// Package core implements kNDS (k-Nearest Document Search), the
// early-termination top-k algorithm of Section 5 of Arvanitis et al.
// (EDBT 2014), for both query types:
//
//   - RDS (Relevant Document Search): top-k documents by the
//     document-query distance Ddq (Eq. 2), and
//   - SDS (Similar Document Search): top-k documents by the symmetric
//     document-document distance Ddd (Eq. 3).
//
// kNDS runs parallel breadth-first traversals of the ontology starting from
// each query concept, restricted to valid (up* down*) paths. Documents
// containing visited concepts accumulate partial distances (Eqs. 5, 7) and
// lower bounds (Eqs. 6, 8). A candidate is "examined" — its exact distance
// computed with DRC — only when its error estimate ε = 1 - partial/lower
// (Eq. 9) drops to the configured threshold, balancing traversal cost
// against distance-calculation cost. A bounded min-heap of exact distances
// plus the smallest outstanding lower bound give the paper's
// early-termination condition.
//
// All four optimizations listed at the end of Section 5.3 are implemented:
// lower-bound pruning against the k-th distance, partial sorting of the
// candidate list, reusing the accumulated distance when every query concept
// is covered (skipping DRC), and progressive result emission.
//
// The algorithm runs as a staged pipeline — plan, wave stepper, bound
// table, examination policy, collector — driven by a steppable executor
// (pipeline.go). RDS/SDS run the executor to termination; the Cursor API
// (cursor.go) exposes the same executor incrementally, with resumable
// pagination and GrowK. The batch scheduler (batch.go) and the sharded
// fan-out (internal/shard) share these stage types.
package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/index"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
	"conceptrank/internal/store"
)

// Result is one ranked document.
type Result struct {
	Doc      corpus.DocID
	Distance float64
}

// Options configures a kNDS run. Zero values select the paper's defaults
// via Normalize.
type Options struct {
	// K is the number of results (paper default 10).
	K int
	// ErrorThreshold is ε_θ of Eq. 9. 0 waits until a document covers
	// every query node before examining it; 1 examines a document on first
	// contact. The paper's tuned defaults are 0.5 (PATIENT) and 0.9
	// (RADIO).
	ErrorThreshold float64
	// QueueLimit bounds the pending BFS queue (paper default 50,000).
	// When reached, traversal halts and the collected candidates are
	// examined regardless of ErrorThreshold; traversal then resumes, which
	// (unlike the paper's implementation) preserves exactness. <= 0 means
	// unlimited.
	QueueLimit int
	// MaxPaths caps Dewey addresses per concept inside DRC (<= 0: no cap).
	MaxPaths int
	// NoDedup disables the deduplication of BFS states per (origin, node,
	// phase). The paper avoids the bookkeeping and revisits nodes; set it
	// to reproduce that behaviour (ablation). The zero value means dedup
	// on, hence the inverted flag.
	NoDedup bool
	// UseBL swaps DRC for the brute-force pairwise BL calculator when
	// computing exact distances (ablation).
	UseBL bool
	// NoSkipWhenCovered disables optimization 3 (reuse the accumulated
	// distance instead of calling DRC when all query nodes are covered).
	NoSkipWhenCovered bool
	// Workers bounds the goroutines of the partitioned full scan
	// (FullScanRDS/FullScanSDS): a value above 1 splits the scan into that
	// many DocID ranges ranked concurrently, with results identical to the
	// serial scan; 0 and 1 scan serially, and the UseBL ablation path
	// always scans serially. kNDS queries and cursors examine candidates
	// one at a time and ignore it (see DESIGN.md, "Parallel execution").
	// Negative values are rejected with ErrNegativeWorkers by every entry
	// point.
	Workers int
	// ExamPolicy overrides the examination decision of the pipeline's
	// policy stage. nil selects the paper's rule: examine while the Eq. 9
	// error estimate is within ErrorThreshold, unconditionally on forced
	// examinations and at traversal exhaustion (ThresholdPolicy). A custom
	// policy must be deterministic, and only preserves exact top-k results
	// if it examines forced and exhausted candidates; see ExamPolicy.
	ExamPolicy ExamPolicy
	// Progressive, when non-nil, receives results as soon as they are
	// provably part of the top-k (optimization 4), before the run ends.
	// Progressive is always invoked sequentially from the goroutine running
	// the query, so a per-query callback needs no synchronization. (A
	// callback shared across concurrently running queries, e.g. one closure
	// passed to a whole batch, must still synchronize its own state.)
	Progressive func(Result)
	// OnWave, when non-nil, receives a snapshot after every BFS wave —
	// instrumentation for tracing, debugging and the golden tests that
	// replay the paper's Example 3/4 iterations. The snapshot's slices are
	// only valid during the callback.
	OnWave func(WaveInfo)
	// OnBound, when non-nil, receives the query's termination floor d⁻
	// after every wave: the smallest exact distance any document not yet in
	// the top-k heap could still attain. It is monotonically non-decreasing
	// across waves. The sharded engine uses it to propagate per-shard
	// progress to the cross-shard early-termination check. Like Progressive
	// it is invoked sequentially from the goroutine running the query.
	OnBound func(dMinus float64)
	// Cache, when non-nil, attaches the shared semantic-distance cache to
	// the plan stage: each RDS query concept's Ddc seed vector (Eq. 1 to
	// every document) is served from the cache, refreshed incrementally
	// when the corpus grew past the vector's generation, or built and
	// stored on a miss. Seeded origins skip BFS traversal entirely — their
	// coverage is injected into the bound table as the exact distances the
	// traversal would have accumulated — so rankings are bitwise identical
	// to an uncached query (see DESIGN.md, "Distance caching"). One cache
	// may be shared by any number of engines (the sharded engine passes it
	// through to every shard); entries are keyed per engine. SDS queries
	// ignore the cache: the symmetric distance needs per-document concept
	// coverage (M'd of Eq. 7) that a seed vector does not carry.
	Cache *cache.Cache
	// Measure selects the semantic distance measure (internal/measure).
	// nil keeps the paper's Rada shortest-valid-path distance on its DRC
	// fast path; a non-nil measure routes the query through the generic
	// measure pipeline, whose exact distances come from per-origin valid-
	// path vectors (or measure seed vectors served from Cache) instead of
	// DRC. measure.Rada() computes the identical distance through the
	// generic machinery — the equivalence grids pin the two paths bit for
	// bit. A measure must honor the contract documented in
	// internal/measure; the kNDS bounds (and thus result exactness) depend
	// on it. Incompatible with UseBL (the pairwise ablation calculator is
	// Rada-only): queries with both set fail with ErrMeasureBL.
	// Optimization 3 does not apply under a measure — a first contact is
	// the nearest *path*, not necessarily the smallest measure value, so
	// exact distances are always recomputed at examination.
	Measure measure.Measure
	// ArenaRetainBytes caps the per-query arena memory the engine keeps
	// pooled for reuse after a query closes. Queries carve their mutable
	// state (candidate table, coverage arrays, visited bits, DRC scratch)
	// from a recycled arena, so a warm engine allocates almost nothing per
	// query; the cap bounds what one outlier query can pin. 0 selects the
	// default (8 MiB per pooled arena); a negative value disables retention
	// entirely — every query's arena goes to the garbage collector on
	// close. Purely a memory/throughput knob: results are identical at
	// every setting.
	ArenaRetainBytes int64
	// StageAllocs enables heap-allocation sampling at every pipeline stage
	// boundary: Metrics.Stages gains per-stage AllocBytes/AllocObjects
	// deltas read from the runtime's cumulative allocation counters. The
	// counters are process-wide, so concurrent queries bleed into each
	// other's deltas — enable it on a quiet process (or a benchmark) for
	// exact attribution. Off by default: each boundary read costs about a
	// microsecond, which the default observation-only accounting avoids.
	// Stage *times* are always recorded; see Metrics.Stages.
	StageAllocs bool
	// Trace, when non-nil, receives typed span events (see TraceKind) with
	// monotonic timestamps: WaveStart/WaveEnd around each BFS depth level,
	// DRCProbe per exact-distance examination, ForcedExam on queue-limit
	// pauses, Bound after each wave, and a Terminate event whose ε_d equals
	// the returned Metrics.TerminalEps. Tracing is observation-only —
	// results, pruning and every counter are identical with and without a
	// hook — and, like Progressive, the hook is invoked sequentially from
	// the goroutine running the query. A nil Trace costs one branch per
	// would-be event.
	Trace TraceFunc
}

// WaveInfo is the per-wave traversal snapshot delivered to Options.OnWave.
type WaveInfo struct {
	// Depth of the BFS level just expanded (0 = the query nodes).
	Depth int
	// Visited lists the (node, origin index) states popped in this wave.
	Visited []VisitedNode
	// CoveredDist reports, per discovered unexamined document, the
	// per-origin distances found so far (-1 = origin not covered yet).
	CoveredDist map[corpus.DocID][]int32
}

// VisitedNode is one BFS state pop.
type VisitedNode struct {
	Node   ontology.ConceptID
	Origin int // index into the (deduplicated) query
}

// Normalize fills in defaults. Workers == 0 becomes GOMAXPROCS; a negative
// Workers value is left in place and rejected by queries with
// ErrNegativeWorkers (Normalize has no error path, and silently clamping
// would mask caller bugs).
func (o Options) Normalize() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.QueueLimit == 0 {
		o.QueueLimit = 50_000
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Metrics reports where a query spent its time, matching the stacked
// components of the paper's Figures 7-9 (distance calculation, ontology
// traversal, I/O). For a Cursor, times and counters accumulate across
// every run segment of the query's lifetime.
type Metrics struct {
	TraversalTime time.Duration // BFS expansion, bound maintenance
	// DistanceTime is the time spent in DRC / BL exact distance
	// computations. The partitioned full scan sums it across its workers,
	// so there it can exceed the wall-clock TotalTime.
	DistanceTime time.Duration
	// IOTime is the index access time attributed to this query. It is
	// always zero for in-memory stores: only the disk-backed indexes share
	// a store.IOStats with the engine (see NewEngine), so memory-resident
	// lookups have nothing to attribute.
	IOTime    time.Duration
	TotalTime time.Duration

	Iterations     int   // BFS waves completed
	NodesVisited   int64 // BFS states popped
	DocsDiscovered int   // documents that entered the candidate list
	DocsExamined   int   // documents whose exact distance was computed
	DRCCalls       int   // exact distance computations that ran DRC/BL
	ForcedExams    int   // examination phases forced by the queue limit
	ResultCount    int

	// CacheHits / CacheMisses count the plan stage's seed-vector lookups
	// against Options.Cache: one per deduplicated RDS query concept. A
	// stale entry that was refreshed incrementally counts as a hit (the
	// bulk of the vector was reused); a miss builds and stores the vector.
	// Both are zero when no cache is attached and for SDS queries.
	CacheHits   int
	CacheMisses int

	// Deprecated: always 0; the speculative DRC prefetch it counted was
	// removed, and kNDS computes every exact distance inline in its commit
	// loop. Kept so existing readers still compile.
	SpeculativeDRC int

	// Stages is the per-stage resource breakdown: wall time per pipeline
	// stage (plan, seed, wave, bound, exam, collect, merge) for every
	// query, plus heap-allocation deltas when the query ran with
	// Options.StageAllocs. Stage times are recorded from the same clock
	// readings as the component times above, so attribution costs a few
	// additions per wave; full scans report everything under StageExam.
	Stages StageStats

	// TerminalEps is ε_d at termination: 1 - kth/d⁻, the Eq. 9 error form
	// applied to the whole query at its stopping point. 0 means no slack
	// (the heap never filled, or d⁻ barely cleared the k-th distance);
	// 1 means traversal exhausted with unbounded margin. Full scans report
	// 0 (they compute every distance exactly). The same value rides on the
	// TraceTerminate span event.
	TerminalEps float64
}

// ExaminedPrecision returns |top-k| / examined — the fraction of examined
// documents that made it into the results (Section 6.2 reports 99% for RDS
// on PATIENT and >60% for SDS).
func (m *Metrics) ExaminedPrecision() float64 {
	if m.DocsExamined == 0 {
		return 0
	}
	return float64(m.ResultCount) / float64(m.DocsExamined)
}

// Engine evaluates RDS and SDS queries against one indexed collection.
// An Engine is safe for concurrent queries as long as the underlying
// indexes are (both provided implementations are).
type Engine struct {
	o       *ontology.Ontology
	inv     index.Inverted
	fwd     index.Forward
	numDocs func() int
	io      *store.IOStats // optional: shared with disk indexes for I/O attribution
	// addrCache memoizes Dewey address enumeration across queries; it is
	// concurrency-safe and capped. Disabled per query by Options.MaxPaths
	// (capped enumerations must not pollute the uncapped cache).
	addrCache *drc.AddressCache
	// cacheID is this engine's identity in a shared semantic-distance
	// cache (Options.Cache): seed vectors describe one corpus, so every
	// engine — including each shard of a sharded engine — keys its entries
	// under a distinct ID.
	cacheID uint64
	// arenas recycles per-query arena memory (see arena.go). Each shard of
	// a sharded engine is its own Engine, so arenas never cross shards.
	arenas sync.Pool
}

// NewEngine assembles an engine over a fixed-size collection. io may be
// nil; pass the IOStats shared with disk-backed indexes to have
// Metrics.IOTime attributed per query.
func NewEngine(o *ontology.Ontology, inv index.Inverted, fwd index.Forward, numDocs int, io *store.IOStats) *Engine {
	return NewEngineDynamic(o, inv, fwd, func() int { return numDocs }, io)
}

// NewEngineDynamic assembles an engine whose collection may grow between
// queries (the paper's on-the-fly document integration: kNDS needs no
// distance precomputation, so a freshly indexed EMR is searchable
// immediately). numDocs is sampled once per query.
func NewEngineDynamic(o *ontology.Ontology, inv index.Inverted, fwd index.Forward, numDocs func() int, io *store.IOStats) *Engine {
	return &Engine{o: o, inv: inv, fwd: fwd, numDocs: numDocs, io: io,
		addrCache: drc.NewAddressCache(o, 0, 0),
		cacheID:   nextCacheID.Add(1)}
}

// ErrEmptyQuery is returned for queries with no concepts.
var ErrEmptyQuery = errors.New("core: query has no concepts")

// ErrNegativeWorkers is returned when Options.Workers is negative.
var ErrNegativeWorkers = errors.New("core: Options.Workers must be >= 0")

// ErrMeasureBL is returned when Options.Measure is combined with the
// UseBL ablation path, which hardwires the Rada distance.
var ErrMeasureBL = errors.New("core: Options.Measure is incompatible with Options.UseBL")

// ErrNoQueries is returned by MergedRDS when every query is empty.
var ErrNoQueries = errors.New("core: no non-empty queries")

// RDS returns the k documents most relevant to the query concepts
// (Definition 1), ordered by ascending Ddq.
func (e *Engine) RDS(q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.RDSContext(context.Background(), q, opts)
}

// SDS returns the k documents most similar to the query document's concept
// set (Definition 2), ordered by ascending Ddd.
func (e *Engine) SDS(queryDoc []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.SDSContext(context.Background(), queryDoc, opts)
}

// RDSContext is RDS under a caller context. Cancellation is observed at
// wave boundaries (once per BFS depth level); a cancelled query returns
// ctx.Err() with nil results and the metrics accumulated so far.
// RDSContext is exactly OpenRDS + Cursor.Run + Close: one pass of the
// staged pipeline over the same executor the cursor exposes stepwise.
func (e *Engine) RDSContext(ctx context.Context, q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.runQuery(ctx, false, q, opts)
}

// SDSContext is SDS under a caller context; see RDSContext for the
// cancellation contract.
func (e *Engine) SDSContext(ctx context.Context, queryDoc []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.runQuery(ctx, true, queryDoc, opts)
}

func (e *Engine) runQuery(ctx context.Context, sds bool, q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	x, m, err := e.newExecutor(sds, q, opts.Normalize())
	if err != nil {
		return nil, m, err
	}
	defer x.close()
	if err := x.run(ctx); err != nil {
		return nil, m, err
	}
	return x.results, m, nil
}

func (e *Engine) ioSnapshot() time.Duration {
	if e.io == nil {
		return 0
	}
	return e.io.Time()
}

// beginQuery starts the wall-clock / I/O attribution shared by every
// pipeline segment and full-scan entry point: it snapshots the engine's
// cumulative I/O time, and the returned func — deferred by the caller —
// accumulates the segment's deltas into Metrics.TotalTime and
// Metrics.IOTime. Accumulation (rather than overwrite) is what lets a
// Cursor's metrics span its open/run/grow segments without counting the
// caller's think time in between. IOTime is zero for in-memory stores,
// which share no store.IOStats with the engine.
func (e *Engine) beginQuery(m *Metrics) func() {
	start := time.Now()
	ioStart := e.ioSnapshot()
	return func() {
		m.TotalTime += time.Since(start)
		m.IOTime += e.ioSnapshot() - ioStart
	}
}

func dedupConcepts(in []ontology.ConceptID) []ontology.ConceptID {
	seen := make(map[ontology.ConceptID]struct{}, len(in))
	out := make([]ontology.ConceptID, 0, len(in))
	for _, c := range in {
		if _, ok := seen[c]; !ok {
			seen[c] = struct{}{}
			out = append(out, c)
		}
	}
	return out
}
