package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
	"conceptrank/internal/shard"
	"conceptrank/internal/telemetry"
)

// CoordinatorConfig wires a coordinator to its shard nodes.
type CoordinatorConfig struct {
	// Peers lists each shard's replica base URLs: Peers[s] holds the
	// replicas serving shard s (all replicas of a shard carry the same
	// documents). At least one shard with at least one replica.
	Peers [][]string
	// Deadline bounds each RPC attempt (default 5s). Retries is the
	// number of extra attempts after a transient failure (default 2);
	// Backoff the first retry delay, doubling per attempt (default 25ms).
	Deadline time.Duration
	Retries  int
	Backoff  time.Duration
	// HedgeDelay races a stateless RPC against the next replica when the
	// preferred one hasn't answered within this delay; 0 disables
	// hedging. Cursor steps never hedge — they are sticky to the replica
	// owning the cursor.
	HedgeDelay time.Duration
	// WaveBudget caps BFS waves per remote step segment (default 16).
	// Smaller segments refresh the cross-shard bound more often at the
	// cost of more RPCs; <= -1 runs each shard to termination in one
	// step.
	WaveBudget int
	// PartialResults degrades instead of failing when a shard is down
	// past its deadline: the query answers from the surviving shards and
	// reports the lost ones in Metrics.Degraded.
	PartialResults bool
	// Admission bounds what the coordinator accepts; the zero value
	// admits everything. A nil LatencyP99 with a ShedLatency set is
	// wired to the coordinator's own query-latency histogram.
	Admission AdmissionConfig
	// Registry, when non-nil, receives the coordinator's RPC, hedging,
	// admission and query-latency instruments.
	Registry *telemetry.Registry
	// Sink, when non-nil, records per-query stats and slow queries.
	Sink *telemetry.Sink
	// HTTPClient overrides the shared transport client (tests).
	HTTPClient *http.Client
}

// Coordinator speaks the in-process sharded engine's public query surface
// over a fleet of shard nodes: it fans each query out, merges with the
// same canonical top-k machinery, and carries the cross-shard bound over
// RPC — so distributed results are bitwise identical to ShardedEngine and
// to a single engine over the union corpus. On top of the algorithm it
// layers the serving behaviors: hedged replica requests, retry with
// backoff, per-tenant admission control, and graceful degradation.
type Coordinator struct {
	cfg    CoordinatorConfig
	groups []*replicaGroup
	cm     *coordMetrics
	adm    *Admission

	docs     []int // per-shard document counts, from the info probe
	concepts int   // ontology size, for client-side query validation

	queryHist *telemetry.Histogram
}

// NewCoordinator connects to the peers and probes each shard's info
// endpoint (hedged across replicas) to learn the corpus layout.
func NewCoordinator(ctx context.Context, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one shard")
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 5 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.WaveBudget == 0 {
		cfg.WaveBudget = 16
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry() // private: callers pay only the atomics
	}
	c := &Coordinator{
		cfg: cfg,
		cm:  newCoordMetrics(reg, len(cfg.Peers)),
		queryHist: reg.Histogram("crank_coord_query_seconds",
			"End-to-end coordinator query latency in seconds.", rpcBuckets),
	}
	adm := cfg.Admission
	if adm.ShedLatency > 0 && adm.LatencyP99 == nil {
		h := c.queryHist
		adm.LatencyP99 = func() time.Duration {
			return time.Duration(h.Quantile(0.99) * float64(time.Second))
		}
	}
	c.adm = NewAdmission(adm, c.cm.sheds)
	for s, replicas := range cfg.Peers {
		if len(replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", s)
		}
		g := &replicaGroup{node: s, hedgeDelay: cfg.HedgeDelay, cm: c.cm}
		for _, base := range replicas {
			g.replicas = append(g.replicas, &transport{
				base:     base,
				hc:       hc,
				deadline: cfg.Deadline,
				retries:  cfg.Retries,
				backoff:  cfg.Backoff,
				onRetry:  c.cm.retries.Inc,
			})
		}
		c.groups = append(c.groups, g)
	}
	for s, g := range c.groups {
		var info InfoResponse
		if _, err := g.call(ctx, "info", struct{}{}, &info); err != nil {
			return nil, fmt.Errorf("cluster: shard %d unreachable: %w", s, err)
		}
		if info.Version != Version {
			return nil, fmt.Errorf("cluster: shard %d speaks protocol %q, want %q",
				s, info.Version, Version)
		}
		c.docs = append(c.docs, info.Docs)
		if info.Concepts > c.concepts {
			c.concepts = info.Concepts
		}
	}
	return c, nil
}

// NumShards returns the number of shard nodes behind the coordinator.
func (c *Coordinator) NumShards() int { return len(c.groups) }

// NumDocs returns the total document count across all shards.
func (c *Coordinator) NumDocs() int {
	n := 0
	for _, d := range c.docs {
		n += d
	}
	return n
}

// NumConcepts returns the ontology size the nodes reported — the valid
// concept-ID range for queries.
func (c *Coordinator) NumConcepts() int { return c.concepts }

// Admission exposes the coordinator's admission controller (observability
// and serving-layer integration).
func (c *Coordinator) Admission() *Admission { return c.adm }

// Metrics is the coordinator's query metrics type — identical to the
// in-process sharded engine's, including the Degraded shard list.
type Metrics = shard.Metrics

// Cursor is a resumable distributed query: the same Next/GrowK/Run page
// protocol as the in-process sharded cursor, executing over remote shard
// cursors. Close releases the remote cursors and the admission slot.
type Cursor struct {
	*shard.Cursor
	release func()
	once    sync.Once
}

// Close releases every remote cursor and the query's admission slot.
func (c *Cursor) Close() error {
	err := c.Cursor.Close()
	c.once.Do(c.release)
	return err
}

// remoteShard adapts one node's remote cursor to the shard fan-out loop:
// Run executes wave-budgeted step segments until the node terminates or
// pauses, offering each segment's newly final results into the shared
// merge state and carrying the freshest cross-shard bound onto the next
// request. All calls are serialized by the Fanout, so the struct needs no
// locking of its own.
type remoteShard struct {
	s     int
	g     *replicaGroup
	ms    *shard.MergeState
	token string
	home  int // replica owning the cursor (the open's hedge winner)
	sent  int // offer watermark: StepRequest.From
	waves int

	metrics  core.Metrics
	examined []core.Result // cached between Grow and Examined
}

func (rs *remoteShard) Run(ctx context.Context) (bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		full, kth := rs.ms.Bound()
		req := StepRequest{
			Cursor: rs.token,
			Bound:  WireBound{Full: full, Kth: wireFloat(kth)},
			Waves:  rs.waves,
			From:   rs.sent,
		}
		var resp StepResponse
		if err := rs.g.callOn(ctx, rs.home, "step", req, &resp); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return false, ctxErr
			}
			return false, fmt.Errorf("shard %d step: %w", rs.s, err)
		}
		for _, r := range fromWire(resp.Results) {
			rs.ms.Offer(r)
		}
		rs.sent += len(resp.Results)
		if resp.Metrics != nil {
			rs.metrics = *resp.Metrics
		}
		switch {
		case resp.Done:
			return true, nil
		case resp.Paused:
			// The node proved its pause against a bound we sent earlier;
			// staleness cannot un-prove it (kth only tightens).
			rs.ms.Pause(rs.s)
			return false, nil
		case rs.ms.PauseIfBeyond(rs.s, float64(resp.DMinus)):
			// Coordinator-side pause: the freshest merged bound already
			// proves this shard out — skip the extra RPC round.
			return false, nil
		}
	}
}

func (rs *remoteShard) Grow(ctx context.Context, k int) error {
	var resp GrowResponse
	if err := rs.g.callOn(ctx, rs.home, "grow", GrowRequest{Cursor: rs.token, K: k}, &resp); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("shard %d grow: %w", rs.s, err)
	}
	rs.examined = fromWire(resp.Examined)
	rs.sent = 0 // the node reset its offer list with the old k-epoch
	return nil
}

func (rs *remoteShard) Examined(ctx context.Context) ([]core.Result, error) {
	return rs.examined, nil
}

func (rs *remoteShard) Metrics() core.Metrics { return rs.metrics }

func (rs *remoteShard) Close() error {
	// Best-effort: an unreachable node's cursor dies by TTL sweep.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return rs.g.replicas[rs.home].call(ctx, "close", CloseRequest{Cursor: rs.token}, nil)
}

// OpenRDS plans a relevant-document query across the fleet and returns a
// cursor positioned before the first merged result.
func (c *Coordinator) OpenRDS(ctx context.Context, q []ontology.ConceptID, opts core.Options) (*Cursor, error) {
	return c.open(ctx, false, q, opts)
}

// OpenSDS plans a similar-document query across the fleet; see OpenRDS.
func (c *Coordinator) OpenSDS(ctx context.Context, queryDoc []ontology.ConceptID, opts core.Options) (*Cursor, error) {
	return c.open(ctx, true, queryDoc, opts)
}

func (c *Coordinator) open(ctx context.Context, sds bool, q []ontology.ConceptID, opts core.Options) (*Cursor, error) {
	// Validation mirrors the in-process sharded engine, so error behavior
	// is mode-independent.
	if opts.Workers < 0 {
		return nil, core.ErrNegativeWorkers
	}
	if len(q) == 0 {
		return nil, core.ErrEmptyQuery
	}
	for _, cc := range q {
		if int(cc) >= c.concepts {
			return nil, fmt.Errorf("cluster: query concept %d outside ontology", cc)
		}
	}
	opts = opts.Normalize()
	release, err := c.adm.Acquire(TenantFrom(ctx))
	if err != nil {
		return nil, err
	}

	wo := WireOptions{
		K:              opts.K,
		ErrorThreshold: opts.ErrorThreshold,
		QueueLimit:     opts.QueueLimit,
		Workers:        opts.Workers,
	}
	shards := make([]shard.FanoutShard, len(c.groups))
	f := shard.NewFanout(shards, opts.K)
	if c.cfg.PartialResults {
		f.PartialOK = func(s int, err error) bool {
			c.cm.degraded.Inc()
			return true
		}
	}
	g, gctx := pool.GroupWithContext(ctx)
	var mu sync.Mutex // guards f.MarkDegraded and the first-open error
	var openErr error
	for s := range c.groups {
		if c.docs[s] == 0 {
			continue // empty shard: nothing to search, nothing to cancel
		}
		s := s
		g.Go(func() error {
			var resp OpenResponse
			home, err := c.groups[s].call(gctx, "open",
				OpenRequest{SDS: sds, Query: q, Options: wo}, &resp)
			if err != nil {
				if c.cfg.PartialResults && gctx.Err() == nil {
					mu.Lock()
					f.MarkDegraded(s)
					mu.Unlock()
					c.cm.degraded.Inc()
					return nil
				}
				mu.Lock()
				if openErr == nil {
					openErr = fmt.Errorf("shard %d open: %w", s, err)
				}
				mu.Unlock()
				return err
			}
			shards[s] = &remoteShard{
				s:     s,
				g:     c.groups[s],
				ms:    f.MergeState(),
				token: resp.Cursor,
				home:  home,
				waves: c.cfg.WaveBudget,
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		_ = f.Close() // release any shards that did open
		release()
		if openErr != nil {
			return nil, openErr
		}
		return nil, err
	}
	return &Cursor{Cursor: shard.NewFanoutCursor(f), release: release}, nil
}

// RDS answers a relevant-document query across the fleet; results are
// bitwise identical to the in-process sharded engine (and to a single
// engine) over the same corpus.
func (c *Coordinator) RDS(ctx context.Context, q []ontology.ConceptID, opts core.Options) ([]core.Result, *Metrics, error) {
	return c.query(ctx, false, q, opts)
}

// SDS answers a similar-document query across the fleet; see RDS.
func (c *Coordinator) SDS(ctx context.Context, queryDoc []ontology.ConceptID, opts core.Options) ([]core.Result, *Metrics, error) {
	return c.query(ctx, true, queryDoc, opts)
}

func (c *Coordinator) query(ctx context.Context, sds bool, q []ontology.ConceptID, opts core.Options) ([]core.Result, *Metrics, error) {
	kind := "cluster_rds"
	if sds {
		kind = "cluster_sds"
	}
	var done func(*core.Metrics, error)
	if c.cfg.Sink != nil {
		opts.Trace, done = c.cfg.Sink.Query(kind, opts.Trace)
	}
	start := time.Now()
	finish := func(m *Metrics, err error) {
		c.queryHist.Observe(time.Since(start).Seconds())
		if done != nil {
			if m != nil {
				done(&m.Merged, err)
			} else {
				done(nil, err)
			}
		}
	}
	cur, err := c.open(ctx, sds, q, opts)
	if err != nil {
		finish(nil, err)
		return nil, nil, err
	}
	defer cur.Close()
	rs, m, err := cur.Run(ctx)
	finish(m, err)
	return rs, m, err
}
