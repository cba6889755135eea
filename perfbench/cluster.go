package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"sync"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/cluster"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
	"conceptrank/internal/shard"
	"conceptrank/internal/telemetry"
)

const clusterShards = 2

// clusterSys is radio-cluster: a Coordinator over two loopback shard
// nodes (httptest, one process) on small-scale RADIO, each node with a
// default-budget cache, driven by two clients.
type clusterSys struct {
	ds    *dataset
	nodes []*cluster.Node
	srvs  []*httptest.Server
	coord *cluster.Coordinator
	hc    *http.Client
	reg   *telemetry.Registry
	ccs   []*cache.Cache
	rt    *rpcTracer // nil when untraced
	ops   []op

	retries0 int64
}

func setupCluster(seed int64, n int, rec *recorder) (system, error) {
	ds, err := loadDataset(smallScale.OntologyConcepts, smallScale.Radio)
	if err != nil {
		return nil, err
	}
	colls, maps, err := shard.Partition(ds.coll, shard.Config{Shards: clusterShards, Placement: shard.RoundRobin})
	if err != nil {
		return nil, err
	}
	s := &clusterSys{ds: ds, reg: telemetry.NewRegistry(), ops: clusterOps(seed, ds, n)}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	s.hc = &http.Client{Transport: transport}
	if rec != nil {
		s.rt = &rpcTracer{base: transport, rec: rec, tokens: map[string]int64{}, opens: map[string]int64{}}
		s.hc = &http.Client{Transport: s.rt}
	}
	peers := make([][]string, clusterShards)
	for i := range colls {
		cc := cache.New(cache.Config{})
		node, err := cluster.NewNode(cluster.NodeConfig{Ontology: ds.o, Coll: colls[i], DocMap: maps[i], Cache: cc})
		if err != nil {
			s.close()
			return nil, err
		}
		var h http.Handler = node.Handler()
		if s.rt != nil {
			h = s.rt.wrap(h)
		}
		srv := httptest.NewServer(h)
		s.nodes, s.srvs, s.ccs = append(s.nodes, node), append(s.srvs, srv), append(s.ccs, cc)
		peers[i] = []string{srv.URL}
	}
	s.coord, err = cluster.NewCoordinator(context.Background(), cluster.CoordinatorConfig{
		Peers: peers, HTTPClient: s.hc, Registry: s.reg})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *clusterSys) stream() []op                                    { return s.ops }
func (s *clusterSys) caches() []*cache.Cache                          { return s.ccs }
func (s *clusterSys) onto() *ontology.Ontology                        { return s.ds.o }
func (s *clusterSys) probeDoc(int, corpus.DocID) []ontology.ConceptID { return nil }

func (s *clusterSys) close() {
	for _, srv := range s.srvs {
		srv.Close()
	}
	for _, n := range s.nodes {
		_ = n.Close()
	}
	s.hc.CloseIdleConnections()
}

func (s *clusterSys) retries() int64 {
	return s.reg.Counter("crank_coord_rpc_retries_total", "").Value()
}

// warm fills the node caches: one RDS query per nq consecutive concepts of
// the eligible vocabulary, so every timed RDS concept is a seed hit.
func (s *clusterSys) warm() (int, error) {
	ctx := context.Background()
	opts := core.Options{K: defaultK, ErrorThreshold: epsRadio}
	n := 0
	for lo := 0; lo < len(s.ds.eligible); lo += defaultNq {
		hi := min(lo+defaultNq, len(s.ds.eligible))
		if _, _, err := s.coord.RDS(ctx, s.ds.eligible[lo:hi], opts); err != nil {
			return n, err
		}
		n++
	}
	s.retries0 = s.retries()
	return n, nil
}

type opKey struct{}

func (s *clusterSys) exec(ctx context.Context, i int, r *opRecord, t *opTracer) error {
	o := &s.ops[i]
	if t != nil {
		ctx = context.WithValue(ctx, opKey{}, t.op)
	}
	opts := core.Options{K: defaultK, ErrorThreshold: epsRadio}
	t0 := time.Now()
	var cur *cluster.Cursor
	var err error
	if o.kind == opSDS {
		cur, err = s.coord.OpenSDS(ctx, o.concepts, opts)
	} else {
		cur, err = s.coord.OpenRDS(ctx, o.concepts, opts)
	}
	if err != nil {
		return err
	}
	r.results, err = cur.Next(ctx, defaultK)
	t1 := time.Now()
	r.lat = t1.Sub(t0)
	if err == nil && o.page {
		r.page, err = cur.GrowK(ctx, pageK)
		r.pageLat = time.Since(t1)
	}
	t2 := time.Now()
	m := *cur.Metrics() // snapshot before Close releases the fan-out
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	if t != nil {
		t3 := time.Now()
		attrs := map[string]float64{}
		shardAttrs(attrs, r.lat+r.pageLat, m.PerShard, m.CancelledShards)
		first := t.span(t.root, "bench.first_page", t0, t1, attrs)
		if d := m.Merged.Stages[core.StageMerge].Time; d > 0 {
			end := t.rec.rel(t1)
			t.rec.add(Span{Parent: first, Op: t.op, Name: "stage.merge", Start: end - int64(d), End: end, Synthetic: true})
		}
		if o.page {
			t.span(t.root, "bench.page", t1, t2, nil)
		}
		t.span(t.root, "bench.close", t2, t3, nil)
	}
	return err
}

// verify checks the sampled ops against a single engine over the
// unpartitioned collection: the first page against a K=10 query, a GrowK
// page against a fresh K=30 query.
func (s *clusterSys) verify(recs []opRecord) error {
	ref := core.NewEngine(s.ds.o, index.BuildMemInverted(s.ds.coll), index.BuildMemForward(s.ds.coll), s.ds.coll.NumDocs(), nil)
	query := func(o *op, k int) ([]core.Result, error) {
		opts := core.Options{K: k, ErrorThreshold: epsRadio}
		var res []core.Result
		var err error
		if o.kind == opSDS {
			res, _, err = ref.SDS(o.concepts, opts)
		} else {
			res, _, err = ref.RDS(o.concepts, opts)
		}
		return res, err
	}
	if err := checkParallel(s.ops, recs, func(j int) ([]core.Result, error) { return query(&s.ops[j], defaultK) }); err != nil {
		return err
	}
	for i := range recs {
		if !s.ops[i].verify || !s.ops[i].page || recs[i].err != nil || recs[i].wrong {
			continue
		}
		want, err := query(&s.ops[i], pageK)
		if err != nil {
			return err
		}
		recs[i].wrong = !sameResults(want, recs[i].page)
	}
	return nil
}

// finishTrace turns the captured step responses into node-side core spans
// and replays their decoding. Each step response carries the node
// cursor's cumulative metrics; the difference to the cursor's previous
// step is the work of this step. Its run-time stages are recorded as a
// core.query span at the start of the step's server span; the open-time
// stages in a cursor's first step ran during its open RPC and are placed
// in that server span instead.
func (s *clusterSys) finishTrace(rec *recorder) (float64, int64) {
	retries := s.retries() - s.retries0
	rt := s.rt
	rt.mu.Lock()
	steps, opens := rt.steps, rt.opens
	rt.mu.Unlock()
	server := map[int64]Span{} // client span ID → server span
	rec.mu.Lock()
	for _, sp := range rec.spans {
		if sp.Name == "node.step" || sp.Name == "node.open" {
			server[sp.Parent] = sp
		}
	}
	rec.mu.Unlock()

	type nodeQuery struct {
		server Span
		open   bool
		m      core.Metrics
	}
	var queries []nodeQuery
	prev := map[string]core.Metrics{}
	var decode time.Duration
	for _, st := range steps {
		t0 := time.Now()
		var resp cluster.StepResponse
		err := json.Unmarshal(st.body, &resp)
		decode += time.Since(t0)
		sv, ok := server[st.client]
		if err != nil || resp.Metrics == nil || !ok {
			continue
		}
		p, seen := prev[st.cursor]
		d := metricsDelta(resp.Metrics, p)
		prev[st.cursor] = *resp.Metrics
		if ov, ok := server[opens[st.cursor]]; ok && !seen {
			queries = append(queries, nodeQuery{server: ov, open: true, m: d})
		}
		queries = append(queries, nodeQuery{server: sv, m: d})
	}
	for i := range queries {
		q := &queries[i]
		open := stageTime(&q.m, openStages)
		if q.open {
			rec.querySpans(q.server.Op, q.server.ID, q.server.Start, open, &q.m, openStages, nil)
			continue
		}
		run, stages := int64(q.m.TotalTime), allStages
		if i > 0 && queries[i-1].open {
			run, stages = run-open, runStages
		}
		rec.querySpans(q.server.Op, q.server.ID, q.server.Start, run, &q.m, stages, queryAttrs(&q.m))
	}
	if len(steps) == 0 {
		return 0, retries
	}
	return float64(decode) / float64(len(steps)) / 1e3, retries
}

// metricsDelta is cur minus prev for the fields the core spans carry.
func metricsDelta(cur *core.Metrics, prev core.Metrics) core.Metrics {
	d := core.Metrics{
		TotalTime:      cur.TotalTime - prev.TotalTime,
		Iterations:     cur.Iterations - prev.Iterations,
		NodesVisited:   cur.NodesVisited - prev.NodesVisited,
		DocsDiscovered: cur.DocsDiscovered - prev.DocsDiscovered,
		DocsExamined:   cur.DocsExamined - prev.DocsExamined,
		DRCCalls:       cur.DRCCalls - prev.DRCCalls,
		ForcedExams:    cur.ForcedExams - prev.ForcedExams,
		SpeculativeDRC: cur.SpeculativeDRC - prev.SpeculativeDRC,
		ResultCount:    cur.ResultCount - prev.ResultCount,
	}
	for i := range d.Stages {
		d.Stages[i].Time = cur.Stages[i].Time - prev.Stages[i].Time
	}
	return d
}

// Headers linking a node's server span to the client span and op of the
// RPC that caused it.
const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// rpcTracer times the coordinator's RPCs from outside: it is the
// coordinator's HTTP transport and wraps every node's handler. Requests of
// traced ops are found by the op ID on their context, or, for cursor
// closes (which the coordinator sends on a background context), by the
// cursor token the op's open returned.
type rpcTracer struct {
	base http.RoundTripper
	rec  *recorder

	mu     sync.Mutex
	tokens map[string]int64 // cursor token → traced op
	opens  map[string]int64 // cursor token → client span of its open
	steps  []capturedStep
}

type capturedStep struct {
	client int64  // client span ID
	cursor string // node cursor token
	body   []byte
}

func (t *rpcTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	endpoint := path.Base(req.URL.Path)
	op, _ := req.Context().Value(opKey{}).(int64)
	var body []byte
	var cursor struct {
		Cursor string `json:"cursor"`
	}
	if req.Body != nil && (op != 0 || endpoint == "close") {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		_ = json.Unmarshal(body, &cursor)
		if op == 0 {
			t.mu.Lock()
			op = t.tokens[cursor.Cursor]
			delete(t.tokens, cursor.Cursor)
			t.mu.Unlock()
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	if op == 0 {
		return t.base.RoundTrip(req)
	}
	id := t.rec.nextID.Add(1)
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	end := time.Now()
	t.rec.add(Span{ID: id, Op: op, Name: "rpc." + endpoint, Start: t.rec.rel(start), End: t.rec.rel(end),
		Attrs: map[string]float64{"req_bytes": float64(len(body)), "resp_bytes": float64(len(raw))}})
	t.mu.Lock()
	switch endpoint {
	case "open":
		var or cluster.OpenResponse
		if json.Unmarshal(raw, &or) == nil {
			t.tokens[or.Cursor] = op
			t.opens[or.Cursor] = id
		}
	case "step":
		t.steps = append(t.steps, capturedStep{client: id, cursor: cursor.Cursor, body: raw})
	}
	t.mu.Unlock()
	return resp, nil
}

// wrap records a server span for every request carrying the op header.
func (t *rpcTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err1 := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		parent, err2 := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.rec.add(Span{Parent: parent, Op: op, Name: "node." + path.Base(r.URL.Path),
			Start: t.rec.rel(start), End: t.rec.rel(time.Now())})
	})
}
