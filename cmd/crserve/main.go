// Command crserve runs a kNDS query server with live introspection: a
// /search endpoint next to the full telemetry surface (/metrics,
// /debug/vars, /debug/slowlog, /debug/runtime, /debug/pprof/*), plus
// /healthz and /readyz probes. It serves either a data directory written
// by crgen or, with no -data, a self-contained synthetic ontology +
// corpus — handy for demos and for watching the metrics move:
//
//	crserve -listen :6060                # synthetic corpus
//	crserve -listen :6060 -demo 100ms    # plus background demo traffic
//	crserve -listen :6060 -data data -corpus RADIO -shards 4
//
//	curl 'localhost:6060/search?type=rds&ids=42,99&k=10&eps=0.5'
//	curl localhost:6060/metrics
//	curl localhost:6060/debug/slowlog
//
// Paged search keeps a resumable cursor open server-side: page=N returns
// the first N results plus a resume token, and cursor=TOK&n=N fetches
// subsequent pages — each growing the saved top-k ranking in place rather
// than re-running the query:
//
//	curl 'localhost:6060/search?type=rds&ids=42,99&page=10'
//	curl 'localhost:6060/search?cursor=c1&n=10'
//
// The response's "done" field marks a drained ranking. Idle cursors expire
// after five minutes.
//
// # Distributed serving
//
// The same binary runs the distributed tier. A -node serves one shard of
// the corpus over the versioned RPC protocol; a -coordinator fans /search
// out to the nodes and merges, bitwise identical to local execution:
//
//	crserve -node -shard-index 0 -shard-count 3 -listen :7001
//	crserve -node -shard-index 1 -shard-count 3 -listen :7002
//	crserve -node -shard-index 2 -shard-count 3 -listen :7003
//	crserve -coordinator -peers 'http://localhost:7001;http://localhost:7002;http://localhost:7003' -listen :6060
//
// In -peers, ';' separates shards and ',' separates replicas of one
// shard (hedged after -hedge). Every node must be started from the same
// corpus flags (-data or the synthetic generator settings) so the
// partition agrees. When nodes die mid-query and -partial is set, search
// responses carry a "degraded" field listing the shards the answer is
// missing. SIGINT/SIGTERM drain in-flight requests and open cursors
// before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"conceptrank"
)

// searcher is the slice of the engine surface the server needs; Engine,
// ShardedEngine, and the cluster Coordinator satisfy it via small
// adapters (their metrics and cursor types differ). The degraded slice
// lists shards missing from the answer (distributed partial results).
type searcher interface {
	rds(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error)
	sds(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error)
	openRDS(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) (pager, error)
	openSDS(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) (pager, error)
	numDocs() int
	docConcepts(ctx context.Context, id conceptrank.DocID) ([]conceptrank.ConceptID, error)
}

// pager is the common paging surface of the three cursor types.
type pager interface {
	next(ctx context.Context, n int) ([]conceptrank.Result, error)
	metrics() *conceptrank.Metrics
	degraded() []int
	close()
}

type config struct {
	listen    string
	data      string
	corpus    string
	concepts  int
	scale     float64
	seed      int64
	shards    int
	placement string
	slowMS    int
	cacheMB   int
	demo      time.Duration
	runtimeIv time.Duration
	profSlow  bool

	node       bool
	shardIndex int
	shardCount int

	coordinator bool
	peers       string
	hedge       time.Duration
	deadline    time.Duration
	retries     int
	partial     bool
	maxInflight int
	maxTenant   int
	shedLatency time.Duration
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("crserve: ")
	var cfg config
	flag.StringVar(&cfg.listen, "listen", ":6060", "HTTP listen address")
	flag.StringVar(&cfg.data, "data", "", "data directory written by crgen (empty = synthetic corpus)")
	flag.StringVar(&cfg.corpus, "corpus", "RADIO", "collection within -data: PATIENT or RADIO")
	flag.IntVar(&cfg.concepts, "concepts", 5000, "synthetic ontology size (no -data)")
	flag.Float64Var(&cfg.scale, "corpus-scale", 0.05, "synthetic corpus scale (no -data; 1.0 = paper RADIO size)")
	flag.Int64Var(&cfg.seed, "seed", 1, "synthetic generator seed")
	flag.IntVar(&cfg.shards, "shards", 1, "partition the collection across N engines")
	flag.StringVar(&cfg.placement, "placement", "round-robin", "shard placement policy")
	flag.IntVar(&cfg.slowMS, "slow", 25, "slow-log latency threshold in milliseconds (0 = log every query)")
	flag.IntVar(&cfg.cacheMB, "cache-mb", 0, "semantic-distance cache budget in MiB (0 = caching off)")
	flag.DurationVar(&cfg.demo, "demo", 0, "fire a random background query this often (0 = off)")
	flag.DurationVar(&cfg.runtimeIv, "runtime-sample", 5*time.Second, "runtime/GC sampler cadence for /debug/runtime (0 = default 5s)")
	flag.BoolVar(&cfg.profSlow, "profile-slow", false, "capture rate-limited pprof CPU/heap snapshots for slow queries")
	flag.BoolVar(&cfg.node, "node", false, "serve one shard of the corpus over the cluster RPC protocol")
	flag.IntVar(&cfg.shardIndex, "shard-index", 0, "this node's shard (with -node)")
	flag.IntVar(&cfg.shardCount, "shard-count", 1, "total shards in the cluster (with -node)")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "serve /search by fanning out to -peers")
	flag.StringVar(&cfg.peers, "peers", "", "coordinator peers: ';' separates shards, ',' separates replicas")
	flag.DurationVar(&cfg.hedge, "hedge", 0, "hedge stateless RPCs to the next replica after this delay (0 = off)")
	flag.DurationVar(&cfg.deadline, "deadline", 5*time.Second, "per-RPC-attempt deadline (coordinator)")
	flag.IntVar(&cfg.retries, "retries", 2, "RPC retries on transient errors (coordinator)")
	flag.BoolVar(&cfg.partial, "partial", false, "degrade to flagged partial results when shards die (coordinator)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "admission: max concurrent queries, 0 = unlimited (coordinator)")
	flag.IntVar(&cfg.maxTenant, "max-per-tenant", 0, "admission: max concurrent queries per X-Tenant, 0 = unlimited (coordinator)")
	flag.DurationVar(&cfg.shedLatency, "shed-latency", 0, "admission: shed new queries while p99 exceeds this, 0 = off (coordinator)")
	flag.Parse()

	app, err := build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s on %s", app.banner, ln.Addr())
	if err := app.run(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Print("drained, bye")
}

// app is a fully wired crserve instance: the handler, the paged-cursor
// store to drain at shutdown, and teardown hooks. Tests build one without
// going through flags or signals.
type app struct {
	banner  string
	handler http.Handler
	store   *cursorStore // nil in -node mode
	cleanup []func()
}

// run serves until ctx is cancelled, then drains: in-flight requests get
// shutdownGrace to finish, parked cursors are closed, teardown hooks run.
func (a *app) run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: a.handler}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(sctx)
	if a.store != nil {
		a.store.drain()
	}
	for _, f := range a.cleanup {
		f()
	}
	return err
}

const shutdownGrace = 10 * time.Second

func build(cfg config) (*app, error) {
	if cfg.node && cfg.coordinator {
		return nil, errors.New("-node and -coordinator are mutually exclusive")
	}
	slowThreshold := time.Duration(cfg.slowMS) * time.Millisecond
	if cfg.slowMS <= 0 {
		slowThreshold = time.Nanosecond // Config treats 0 as "use the default"
	}
	tel := conceptrank.NewTelemetry(conceptrank.TelemetryConfig{
		SlowThreshold:   slowThreshold,
		CaptureProfiles: cfg.profSlow,
	})
	a := &app{cleanup: []func(){tel.AttachRuntime(cfg.runtimeIv)}}
	var cc *conceptrank.Cache
	if cfg.cacheMB > 0 {
		cc = conceptrank.NewCache(conceptrank.CacheConfig{MaxBytes: int64(cfg.cacheMB) << 20})
		tel.AttachCache(cc)
	}

	if cfg.coordinator {
		return buildCoordinator(cfg, a, tel)
	}

	o, coll, err := loadOrGenerate(cfg.data, cfg.corpus, cfg.concepts, cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.node {
		return buildNode(cfg, a, tel, cc, o, coll)
	}
	return buildLocal(cfg, a, tel, cc, o, coll)
}

// buildNode serves one shard of the corpus over the cluster RPC protocol.
// Every node of a cluster partitions the same corpus with the same flags,
// so the shards agree without a control plane.
func buildNode(cfg config, a *app, tel *conceptrank.Telemetry, cc *conceptrank.Cache,
	o *conceptrank.Ontology, coll *conceptrank.Collection) (*app, error) {
	if cfg.shardIndex < 0 || cfg.shardIndex >= cfg.shardCount {
		return nil, fmt.Errorf("-shard-index %d outside [0,%d)", cfg.shardIndex, cfg.shardCount)
	}
	pl, err := conceptrank.ParseShardPlacement(cfg.placement)
	if err != nil {
		return nil, err
	}
	colls, maps, err := conceptrank.PartitionCollection(coll,
		conceptrank.ShardConfig{Shards: cfg.shardCount, Placement: pl})
	if err != nil {
		return nil, err
	}
	node, err := conceptrank.NewClusterNode(conceptrank.ClusterNodeConfig{
		Ontology: o,
		Coll:     colls[cfg.shardIndex],
		DocMap:   maps[cfg.shardIndex],
		Cache:    cc,
		Registry: tel.Registry,
	})
	if err != nil {
		return nil, err
	}
	a.cleanup = append(a.cleanup, func() { _ = node.Close() })
	mux := http.NewServeMux()
	mux.Handle("/", tel.Handler())
	mux.Handle(conceptrank.ClusterRPCPrefix, node.Handler())
	conceptrank.ClusterHealthHandler(mux, nil)
	a.handler = mux
	a.banner = fmt.Sprintf("shard node %d/%d serving %d docs",
		cfg.shardIndex, cfg.shardCount, node.NumDocs())
	return a, nil
}

// buildCoordinator serves /search by fanning out to the -peers nodes.
func buildCoordinator(cfg config, a *app, tel *conceptrank.Telemetry) (*app, error) {
	peers, err := parsePeers(cfg.peers)
	if err != nil {
		return nil, err
	}
	ccfg := conceptrank.ClusterConfig{
		Peers:          peers,
		Deadline:       cfg.deadline,
		Retries:        cfg.retries,
		HedgeDelay:     cfg.hedge,
		PartialResults: cfg.partial,
		Admission: conceptrank.ClusterAdmissionConfig{
			MaxInFlight:  cfg.maxInflight,
			MaxPerTenant: cfg.maxTenant,
			ShedLatency:  cfg.shedLatency,
		},
	}
	conceptrank.ClusterTelemetry(&ccfg, tel)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, err := conceptrank.NewCoordinator(ctx, ccfg)
	if err != nil {
		return nil, err
	}
	s := &coordSearcher{c: coord}
	a.store = newCursorStore(256)
	a.cleanup = append(a.cleanup, a.store.stopSweeper(5*time.Minute))
	mux := http.NewServeMux()
	mux.Handle("/", tel.Handler())
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		serveSearch(w, r, coordConceptRange{coord}, s, a.store)
	})
	conceptrank.ClusterHealthHandler(mux, nil)
	a.handler = mux
	a.banner = fmt.Sprintf("coordinator fronting %d shards, %d docs",
		coord.NumShards(), coord.NumDocs())
	return a, nil
}

// buildLocal is the classic standalone server: a single or sharded
// in-process engine behind /search.
func buildLocal(cfg config, a *app, tel *conceptrank.Telemetry, cc *conceptrank.Cache,
	o *conceptrank.Ontology, coll *conceptrank.Collection) (*app, error) {
	var s searcher
	if cfg.shards > 1 {
		pl, err := conceptrank.ParseShardPlacement(cfg.placement)
		if err != nil {
			return nil, err
		}
		se, err := conceptrank.NewShardedEngine(o, coll, conceptrank.ShardConfig{Shards: cfg.shards, Placement: pl})
		if err != nil {
			return nil, err
		}
		se.EnableTelemetry(tel)
		se.EnableCache(cc)
		s = &shardedSearcher{eng: se, coll: coll}
	} else {
		eng := conceptrank.NewEngine(o, coll)
		eng.EnableTelemetry(tel)
		eng.EnableCache(cc)
		s = &singleSearcher{eng: eng, coll: coll}
	}
	a.store = newCursorStore(256)
	a.cleanup = append(a.cleanup, a.store.stopSweeper(5*time.Minute))
	mux := http.NewServeMux()
	mux.Handle("/", tel.Handler())
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		serveSearch(w, r, o, s, a.store)
	})
	conceptrank.ClusterHealthHandler(mux, nil)
	a.handler = mux
	a.banner = fmt.Sprintf("serving %d docs (search: /search, metrics: /metrics)", s.numDocs())
	if cfg.demo > 0 {
		stopDemo := make(chan struct{})
		go demoTraffic(s, o, cfg.demo, cfg.seed, stopDemo)
		a.cleanup = append(a.cleanup, func() { close(stopDemo) })
	}
	return a, nil
}

// parsePeers splits "u1,u2;u3;u4,u5" into one replica list per shard.
func parsePeers(s string) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-coordinator needs -peers (';' separates shards, ',' separates replicas)")
	}
	var peers [][]string
	for _, shardPart := range strings.Split(s, ";") {
		var replicas []string
		for _, u := range strings.Split(shardPart, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			replicas = append(replicas, strings.TrimRight(u, "/"))
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("empty shard in -peers %q", s)
		}
		peers = append(peers, replicas)
	}
	return peers, nil
}

func loadOrGenerate(data, corpusName string, concepts int, scale float64, seed int64) (*conceptrank.Ontology, *conceptrank.Collection, error) {
	if data != "" {
		o, err := conceptrank.LoadOntology(filepath.Join(data, "ontology.cro"))
		if err != nil {
			return nil, nil, err
		}
		coll, err := conceptrank.LoadCollection(filepath.Join(data, strings.ToUpper(corpusName)+".crc"))
		return o, coll, err
	}
	o, err := conceptrank.GenerateOntology(conceptrank.OntologyConfig{NumConcepts: concepts, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	coll, err := conceptrank.GenerateCorpus(o, conceptrank.RadioProfile(scale, seed))
	return o, coll, err
}

type singleSearcher struct {
	eng  *conceptrank.Engine
	coll *conceptrank.Collection
}

func (s *singleSearcher) rds(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error) {
	r, m, err := s.eng.RDSContext(ctx, q, opts)
	return r, m, nil, err
}
func (s *singleSearcher) sds(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error) {
	r, m, err := s.eng.SDSContext(ctx, q, opts)
	return r, m, nil, err
}
func (s *singleSearcher) openRDS(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) (pager, error) {
	c, err := s.eng.OpenRDS(q, opts)
	if err != nil {
		return nil, err
	}
	return &singlePager{c}, nil
}
func (s *singleSearcher) openSDS(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) (pager, error) {
	c, err := s.eng.OpenSDS(q, opts)
	if err != nil {
		return nil, err
	}
	return &singlePager{c}, nil
}
func (s *singleSearcher) numDocs() int { return s.coll.NumDocs() }
func (s *singleSearcher) docConcepts(ctx context.Context, id conceptrank.DocID) ([]conceptrank.ConceptID, error) {
	return s.coll.Doc(id).Concepts, nil
}

type singlePager struct{ c *conceptrank.Cursor }

func (p *singlePager) next(ctx context.Context, n int) ([]conceptrank.Result, error) {
	return p.c.Next(ctx, n)
}
func (p *singlePager) metrics() *conceptrank.Metrics { return p.c.Metrics() }
func (p *singlePager) degraded() []int               { return nil }
func (p *singlePager) close()                        { _ = p.c.Close() }

type shardedSearcher struct {
	eng  *conceptrank.ShardedEngine
	coll *conceptrank.Collection
}

func (s *shardedSearcher) rds(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error) {
	res, sm, err := s.eng.RDSContext(ctx, q, opts)
	return res, shardedMetrics(sm), shardedDegraded(sm), err
}
func (s *shardedSearcher) sds(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error) {
	res, sm, err := s.eng.SDSContext(ctx, q, opts)
	return res, shardedMetrics(sm), shardedDegraded(sm), err
}
func (s *shardedSearcher) openRDS(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) (pager, error) {
	c, err := s.eng.OpenRDS(q, opts)
	if err != nil {
		return nil, err
	}
	return &shardedPager{c}, nil
}
func (s *shardedSearcher) openSDS(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) (pager, error) {
	c, err := s.eng.OpenSDS(q, opts)
	if err != nil {
		return nil, err
	}
	return &shardedPager{c}, nil
}
func (s *shardedSearcher) numDocs() int { return s.eng.NumDocs() }
func (s *shardedSearcher) docConcepts(ctx context.Context, id conceptrank.DocID) ([]conceptrank.ConceptID, error) {
	return s.coll.Doc(id).Concepts, nil
}

type shardedPager struct{ c *conceptrank.ShardedCursor }

func (p *shardedPager) next(ctx context.Context, n int) ([]conceptrank.Result, error) {
	return p.c.Next(ctx, n)
}
func (p *shardedPager) metrics() *conceptrank.Metrics { return &p.c.Metrics().Merged }
func (p *shardedPager) degraded() []int               { return p.c.Metrics().Degraded }
func (p *shardedPager) close()                        { _ = p.c.Close() }

func shardedMetrics(sm *conceptrank.ShardedMetrics) *conceptrank.Metrics {
	if sm == nil {
		return nil
	}
	return &sm.Merged
}

func shardedDegraded(sm *conceptrank.ShardedMetrics) []int {
	if sm == nil {
		return nil
	}
	return sm.Degraded
}

// coordSearcher fronts the cluster coordinator. The X-Tenant header feeds
// per-tenant admission control upstream of this adapter (see serveSearch).
type coordSearcher struct{ c *conceptrank.Coordinator }

func (s *coordSearcher) rds(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error) {
	res, sm, err := s.c.RDS(ctx, q, opts)
	return res, shardedMetrics(sm), shardedDegraded(sm), err
}
func (s *coordSearcher) sds(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error) {
	res, sm, err := s.c.SDS(ctx, q, opts)
	return res, shardedMetrics(sm), shardedDegraded(sm), err
}
func (s *coordSearcher) openRDS(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) (pager, error) {
	c, err := s.c.OpenRDS(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	return &coordPager{c}, nil
}
func (s *coordSearcher) openSDS(ctx context.Context, q []conceptrank.ConceptID, opts conceptrank.Options) (pager, error) {
	c, err := s.c.OpenSDS(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	return &coordPager{c}, nil
}
func (s *coordSearcher) numDocs() int { return s.c.NumDocs() }
func (s *coordSearcher) docConcepts(ctx context.Context, id conceptrank.DocID) ([]conceptrank.ConceptID, error) {
	return s.c.DocConcepts(ctx, id)
}

type coordPager struct{ c *conceptrank.ClusterCursor }

func (p *coordPager) next(ctx context.Context, n int) ([]conceptrank.Result, error) {
	return p.c.Next(ctx, n)
}
func (p *coordPager) metrics() *conceptrank.Metrics { return &p.c.Metrics().Merged }
func (p *coordPager) degraded() []int               { return p.c.Metrics().Degraded }
func (p *coordPager) close()                        { _ = p.c.Close() }

// conceptRange abstracts "how many concepts exist" so the coordinator
// mode (which has no local ontology) can validate query IDs too.
type conceptRange interface{ NumConcepts() int }

type coordConceptRange struct{ c *conceptrank.Coordinator }

func (r coordConceptRange) NumConcepts() int { return r.c.NumConcepts() }

type searchResponse struct {
	Results []searchResult       `json:"results"`
	Metrics *conceptrank.Metrics `json:"metrics"`
	// Cursor is the resume token of a paged search: pass it back as
	// /search?cursor=TOK&n=N to fetch the next page. Omitted once the
	// ranking is drained.
	Cursor string `json:"cursor,omitempty"`
	// Done marks a drained paged search: the collection holds no more
	// rankable documents for this query.
	Done bool `json:"done,omitempty"`
	// Degraded lists shards missing from a partial answer (nodes that died
	// mid-query under the coordinator's -partial policy).
	Degraded []int `json:"degraded,omitempty"`
}

type searchResult struct {
	Doc      int     `json:"doc"`
	Distance float64 `json:"distance"`
}

// cursorStore keeps open cursors between paged /search requests, keyed by
// an opaque token. Cursors idle past the TTL are swept; the oldest cursor
// is evicted when the store is full (the engine holds per-cursor traversal
// state, so the cap bounds server memory).
type cursorStore struct {
	mu      sync.Mutex
	seq     int64
	cursors map[string]*storedCursor
	cap     int
}

type storedCursor struct {
	p        pager
	lastUsed time.Time
}

func newCursorStore(capacity int) *cursorStore {
	return &cursorStore{cursors: make(map[string]*storedCursor), cap: capacity}
}

func (cs *cursorStore) put(p pager) string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.cursors) >= cs.cap {
		oldTok, oldAt := "", time.Time{}
		for tok, sc := range cs.cursors {
			if oldTok == "" || sc.lastUsed.Before(oldAt) {
				oldTok, oldAt = tok, sc.lastUsed
			}
		}
		cs.cursors[oldTok].p.close()
		delete(cs.cursors, oldTok)
	}
	cs.seq++
	tok := "c" + strconv.FormatInt(cs.seq, 36)
	cs.cursors[tok] = &storedCursor{p: p, lastUsed: time.Now()}
	return tok
}

// take removes the cursor from the store for the duration of one page
// fetch, so concurrent requests for the same token cannot interleave
// Next calls mid-flight; the caller puts it back with release.
func (cs *cursorStore) take(tok string) (pager, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sc, ok := cs.cursors[tok]
	if !ok {
		return nil, false
	}
	delete(cs.cursors, tok)
	return sc.p, true
}

func (cs *cursorStore) release(tok string, p pager) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.cursors[tok] = &storedCursor{p: p, lastUsed: time.Now()}
}

func (cs *cursorStore) len() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.cursors)
}

// drain closes every parked cursor — the shutdown path, releasing engine
// traversal state (and, under a coordinator, the node-side cursors).
func (cs *cursorStore) drain() {
	cs.mu.Lock()
	cursors := cs.cursors
	cs.cursors = make(map[string]*storedCursor)
	cs.mu.Unlock()
	for _, sc := range cursors {
		sc.p.close()
	}
}

// stopSweeper starts the TTL sweep loop and returns its stop function.
func (cs *cursorStore) stopSweeper(ttl time.Duration) func() {
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 4)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				cutoff := time.Now().Add(-ttl)
				cs.mu.Lock()
				var expired []pager
				for tok, sc := range cs.cursors {
					if sc.lastUsed.Before(cutoff) {
						expired = append(expired, sc.p)
						delete(cs.cursors, tok)
					}
				}
				cs.mu.Unlock()
				for _, p := range expired {
					p.close()
				}
			}
		}
	}()
	return func() { close(stop) }
}

func serveSearch(w http.ResponseWriter, r *http.Request, o conceptRange, s searcher, store *cursorStore) {
	qp := r.URL.Query()
	ctx := r.Context()
	if tenant := r.Header.Get("X-Tenant"); tenant != "" {
		ctx = conceptrank.WithTenant(ctx, tenant)
	}

	// Resume a paged search: /search?cursor=TOK&n=N.
	if tok := qp.Get("cursor"); tok != "" {
		n := 10
		if v := qp.Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 1 {
				httpError(w, http.StatusBadRequest, "bad n %q", v)
				return
			}
			n = parsed
		}
		p, ok := store.take(tok)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown or expired cursor %q", tok)
			return
		}
		page, err := p.next(ctx, n)
		if err != nil {
			store.release(tok, p) // context errors are resumable; keep the state
			httpError(w, http.StatusInternalServerError, "page failed: %v", err)
			return
		}
		resp := searchResponse{Metrics: p.metrics(), Degraded: p.degraded()}
		if len(page) < n {
			resp.Done = true
			p.close()
		} else {
			resp.Cursor = tok
			store.release(tok, p)
		}
		writeSearchResponse(w, resp, page)
		return
	}

	opts := conceptrank.Options{K: 10, ErrorThreshold: 0.5}
	if v := qp.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad k %q", v)
			return
		}
		opts.K = n
	}
	if v := qp.Get("eps"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			httpError(w, http.StatusBadRequest, "bad eps %q (want [0,1])", v)
			return
		}
		opts.ErrorThreshold = f
	}

	// page=N starts a paged search: the first N results come back with a
	// resume token for /search?cursor=TOK&n=N.
	pageSize := 0
	if v := qp.Get("page"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad page %q", v)
			return
		}
		pageSize = n
		opts.K = n
	}

	var (
		q   []conceptrank.ConceptID
		sds bool
	)
	switch typ := qp.Get("type"); typ {
	case "", "rds":
		for _, part := range strings.Split(qp.Get("ids"), ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			n, perr := strconv.ParseUint(part, 10, 32)
			if perr != nil || int(n) >= o.NumConcepts() {
				httpError(w, http.StatusBadRequest, "bad concept ID %q", part)
				return
			}
			q = append(q, conceptrank.ConceptID(n))
		}
		if len(q) == 0 {
			httpError(w, http.StatusBadRequest, "rds needs ids=1,2,...")
			return
		}
	case "sds":
		doc, perr := strconv.Atoi(qp.Get("doc"))
		if perr != nil || doc < 0 || doc >= s.numDocs() {
			httpError(w, http.StatusBadRequest, "sds needs doc in [0,%d)", s.numDocs())
			return
		}
		concepts, err := s.docConcepts(ctx, conceptrank.DocID(doc))
		if err != nil {
			httpError(w, http.StatusInternalServerError, "doc lookup failed: %v", err)
			return
		}
		q, sds = concepts, true
	default:
		httpError(w, http.StatusBadRequest, "unknown type %q (want rds or sds)", typ)
		return
	}

	if pageSize > 0 {
		open := s.openRDS
		if sds {
			open = s.openSDS
		}
		p, err := open(ctx, q, opts)
		if err != nil {
			searchError(w, err)
			return
		}
		page, err := p.next(ctx, pageSize)
		if err != nil {
			p.close()
			searchError(w, err)
			return
		}
		resp := searchResponse{Metrics: p.metrics(), Degraded: p.degraded()}
		if len(page) < pageSize {
			resp.Done = true
			p.close()
		} else {
			resp.Cursor = store.put(p)
		}
		writeSearchResponse(w, resp, page)
		return
	}

	var (
		results  []conceptrank.Result
		m        *conceptrank.Metrics
		degraded []int
		err      error
	)
	if sds {
		results, m, degraded, err = s.sds(ctx, q, opts)
	} else {
		results, m, degraded, err = s.rds(ctx, q, opts)
	}
	if err != nil {
		searchError(w, err)
		return
	}
	writeSearchResponse(w, searchResponse{Metrics: m, Degraded: degraded}, results)
}

// searchError maps engine errors to HTTP statuses: shed queries are 429
// (retry later), everything else a 500.
func searchError(w http.ResponseWriter, err error) {
	if errors.Is(err, conceptrank.ErrClusterOverloaded) {
		httpError(w, http.StatusTooManyRequests, "overloaded: %v", err)
		return
	}
	httpError(w, http.StatusInternalServerError, "query failed: %v", err)
}

func writeSearchResponse(w http.ResponseWriter, resp searchResponse, results []conceptrank.Result) {
	resp.Results = make([]searchResult, len(results))
	for i, res := range results {
		resp.Results[i] = searchResult{Doc: int(res.Doc), Distance: res.Distance}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// demoTraffic fires random RDS/SDS queries so the telemetry surface has
// something to show out of the box.
func demoTraffic(s searcher, o conceptRange, every time.Duration, seed int64, stop <-chan struct{}) {
	r := rand.New(rand.NewSource(seed))
	t := time.NewTicker(every)
	defer t.Stop()
	ctx := context.Background()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		opts := conceptrank.Options{K: 1 + r.Intn(10), ErrorThreshold: r.Float64()}
		if r.Intn(4) == 0 && s.numDocs() > 0 {
			if concepts, err := s.docConcepts(ctx, conceptrank.DocID(r.Intn(s.numDocs()))); err == nil {
				_, _, _, _ = s.sds(ctx, concepts, opts)
			}
			continue
		}
		q := make([]conceptrank.ConceptID, 1+r.Intn(4))
		for i := range q {
			q[i] = conceptrank.ConceptID(r.Intn(o.NumConcepts()))
		}
		_, _, _, _ = s.rds(ctx, q, opts)
	}
}
