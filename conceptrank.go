// Package conceptrank is a library for efficient concept-based document
// ranking over ontology-annotated document collections, reproducing
// Arvanitis, Wiley and Hristidis, "Efficient Concept-based Document
// Ranking" (EDBT 2014).
//
// Documents are sets of concepts drawn from a rooted is-a DAG ontology
// (SNOMED-CT-like). The library answers two query types:
//
//   - RDS (Relevant Document Search): the k documents minimizing the
//     document-query distance — the sum over query concepts of the shortest
//     valid-path distance to the document's nearest concept.
//   - SDS (Similar Document Search): the k documents minimizing the
//     symmetric document-document distance of Melton et al.
//
// Both run on the kNDS branch-and-bound algorithm with DRC (D-Radix
// Construction) as its O(n log n) distance component. The package also
// bundles the substrates a self-contained deployment needs: a calibrated
// synthetic ontology generator, synthetic EMR corpus generators, a
// MetaMap-like concept-extraction pipeline (tokenizer, abbreviation
// expansion, negation detection, dictionary matching), disk-backed indexes,
// and baseline implementations (full scan, pairwise BL, Threshold
// Algorithm) for comparison.
//
// # Distance measures
//
// The paper's Rada shortest-valid-path distance is the default, but the
// concept-pair distance is pluggable: pass WithMeasure (or set
// Options.Measure) with a DistanceMeasure — RadaMeasure, NewDensityMeasure
// or NewEnhancedMeasure, or any implementation of the contract documented
// in internal/measure — and every entry point (RDS/SDS, cursors, batches,
// full scans, MergedRDS, HybridRDS, sharded engines) ranks under that
// measure through the same pruning, cache and telemetry infrastructure.
// Rankings stay exact for every conforming measure; cache entries are
// keyed per measure, so warm results never cross measures.
//
// # Distance helpers
//
// The package-level distance helpers (ConceptDistance, DocQueryDistance,
// DocDocDistance, DocQueryDistanceWeighted, DocDocDistanceWeighted) share
// one error convention: they return a bare value, and inputs with no
// valid connecting path (or a D-Radix construction failure) yield the
// distance sentinel float64(MaxInt32) rather than an error. Weighted and
// unweighted forms behave identically; no helper returns an error.
//
// # Quick start
//
//	o, _ := conceptrank.GenerateOntology(conceptrank.OntologyConfig{NumConcepts: 10000, Seed: 1})
//	coll, _ := conceptrank.GenerateCorpus(o, conceptrank.RadioProfile(0.05, 2))
//	eng := conceptrank.NewEngine(o, coll)
//	results, metrics, _ := eng.RDS([]conceptrank.ConceptID{42, 99}, conceptrank.Options{K: 10})
//
// See examples/ for complete programs and DESIGN.md for the paper mapping.
package conceptrank

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/drc"
	"conceptrank/internal/emrgen"
	"conceptrank/internal/index"
	"conceptrank/internal/measure"
	"conceptrank/internal/nlp"
	"conceptrank/internal/ontogen"
	"conceptrank/internal/ontology"
	"conceptrank/internal/store"
	"conceptrank/internal/telemetry"
)

// Core identifiers and data types, re-exported from the internal packages.
type (
	// ConceptID identifies a concept within an Ontology.
	ConceptID = ontology.ConceptID
	// DocID identifies a document within a Collection.
	DocID = corpus.DocID
	// Ontology is a rooted is-a concept DAG with Dewey addressing.
	Ontology = ontology.Ontology
	// OntologyBuilder assembles an Ontology by hand.
	OntologyBuilder = ontology.Builder
	// OntologyStats aggregates structural ontology statistics.
	OntologyStats = ontology.Stats
	// Collection is a set of concept-annotated documents.
	Collection = corpus.Collection
	// Document is one document of a Collection.
	Document = corpus.Document
	// CorpusStats aggregates collection statistics (the paper's Table 3).
	CorpusStats = corpus.Stats
	// Result is one ranked document.
	Result = core.Result
	// PairResult is one ranked document pair (canonical: A < B) returned
	// by the all-pairs join TopKPairs.
	PairResult = core.PairResult
	// PairOptions configures a TopKPairs join (k, error threshold,
	// Workers for the sharded block fan-out, cache, trace).
	PairOptions = core.PairOptions
	// PairMetrics describes one TopKPairs join: seed/join times, the pair
	// universe, discovered/examined/pruned counts, levels, block tasks
	// and cancellations.
	PairMetrics = core.PairMetrics
	// Metrics reports where a query spent its time.
	Metrics = core.Metrics
	// Stage identifies one pipeline stage for resource attribution
	// (StagePlan .. StageMerge); Metrics.Stages is indexed by it.
	Stage = core.Stage
	// StageStat is one stage's resource account within one query: wall
	// time always, allocation deltas when the query ran WithStageAllocs.
	StageStat = core.StageStat
	// StageStats is a query's per-stage breakdown (Metrics.Stages).
	StageStats = core.StageStats
	// Options configures a kNDS query (k, error threshold, queue limit)
	// and the full-scan baseline (Workers partitions the scan; results are
	// identical at every Workers setting).
	Options = core.Options
	// Cursor is a resumable, steppable kNDS query: open with
	// Engine.OpenRDS/OpenSDS, page with Next, extend the ranking with
	// GrowK (bitwise identical to a fresh larger-k query), Close when
	// done. See DESIGN.md, "Query pipeline".
	Cursor = core.Cursor
	// Batch schedules many queries over per-query cursors; a cancelled
	// Run keeps each unfinished query's pipeline state and the next Run
	// resumes it. Construct with Engine.NewBatchRDS/NewBatchSDS.
	Batch = core.Batch
	// ExamPolicy is the pluggable examination-decision stage of the query
	// pipeline (Options.ExamPolicy); nil selects the paper's threshold
	// rule. Custom policies must be deterministic.
	ExamPolicy = core.ExamPolicy
	// ExamDecision is the evidence an ExamPolicy decides on.
	ExamDecision = core.ExamDecision
	// Option is a functional query option (WithK, WithEpsilon, WithWorkers,
	// WithQueueLimit, WithTrace) applied over Options.
	Option = core.Option
	// TraceEvent is one typed span event observed by a per-query Trace
	// hook (BFS waves, DRC probes, bound movement, shard fan-out).
	TraceEvent = core.TraceEvent
	// TraceKind enumerates the span event types.
	TraceKind = core.TraceKind
	// TraceFunc receives span events; install with Options.Trace or
	// WithTrace. Delivery is sequential on the query's goroutine.
	TraceFunc = core.TraceFunc
	// Telemetry bundles the runtime metrics registry, per-query stats and
	// the slow-query log; attach one to an engine with EnableTelemetry and
	// expose it with its Handler or Serve methods.
	Telemetry = telemetry.Sink
	// Cache is the shared semantic-distance cache: per-concept Ddc seed
	// vectors and concept-pair distances, LRU-evicted under a byte budget,
	// with generation-based invalidation for growing corpora. Attach one to
	// an engine with EnableCache (or per query via Options.Cache /
	// WithCache); rankings are bitwise identical with and without it. Safe
	// for concurrent use and shareable across engines.
	Cache = cache.Cache
	// CacheConfig parameterizes NewCache (byte budget, shard count,
	// admission threshold). The zero value is usable: 64 MiB, 16 shards,
	// admit on first miss.
	CacheConfig = cache.Config
	// CacheStats is a point-in-time snapshot of a Cache's counters.
	CacheStats = cache.Stats
	// TelemetryConfig parameterizes NewTelemetry (prefix, slow-query
	// threshold and capacity). The zero value is usable.
	TelemetryConfig = telemetry.Config
	// OntologyConfig parameterizes the synthetic ontology generator.
	OntologyConfig = ontogen.Config
	// CorpusProfile parameterizes the synthetic EMR corpus generator.
	CorpusProfile = emrgen.Profile
	// Annotator extracts ontology concepts from clinical text (tokenizer,
	// abbreviation expansion, negation detection, dictionary matching).
	Annotator = nlp.Matcher
	// Mention is one recognized concept occurrence in text.
	Mention = nlp.Mention
	// DistanceMeasure is a pluggable concept-pair distance (Options.Measure
	// / WithMeasure). Implementations must satisfy the symmetry, identity
	// and monotone level-bound contract documented in internal/measure; the
	// built-ins are RadaMeasure, NewDensityMeasure and NewEnhancedMeasure.
	DistanceMeasure = measure.Measure
)

// RadaMeasure returns the paper's default shortest-valid-path distance as
// an explicit DistanceMeasure. A nil Options.Measure selects the same
// distance on its DRC fast path; passing RadaMeasure() routes it through
// the generic measure machinery instead (rankings are bitwise identical —
// the equivalence grids in internal/core pin the two paths).
func RadaMeasure() DistanceMeasure { return measure.Rada() }

// NewDensityMeasure returns the density-compensated path distance (after
// Zhu et al.): path hops through dense ontology regions count as smaller
// semantic steps. The measure precomputes per-concept density factors of o
// and must only be used with engines over the same ontology.
func NewDensityMeasure(o *Ontology) DistanceMeasure { return measure.NewDensity(o) }

// NewEnhancedMeasure returns the depth-weighted distance (after Daoui et
// al.): the same path length separates deep, specific concepts less than
// shallow, general ones. Precomputes per-concept depths of o; use only
// with engines over the same ontology.
func NewEnhancedMeasure(o *Ontology) DistanceMeasure { return measure.NewEnhanced(o) }

// Functional options, re-exported from internal/core. They layer over the
// Options struct: NewOptions(WithK(5)) is Options{K: 5}, and any Options
// value can be refined with opts.With(WithWorkers(4)).

// WithK sets the number of results (Options.K).
func WithK(k int) Option { return core.WithK(k) }

// WithEpsilon sets the examination error threshold ε_θ
// (Options.ErrorThreshold).
func WithEpsilon(eps float64) Option { return core.WithEpsilon(eps) }

// WithWorkers sets the goroutine bound of the partitioned full scan
// (Options.Workers); kNDS queries examine candidates one at a time and
// ignore it.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// WithQueueLimit sets the BFS queue bound (Options.QueueLimit).
func WithQueueLimit(n int) Option { return core.WithQueueLimit(n) }

// WithTrace installs a per-query span-event hook (Options.Trace). Tracing
// is observation-only — it never changes results — and a nil hook costs
// one branch per would-be event.
func WithTrace(fn TraceFunc) Option { return core.WithTrace(fn) }

// WithCache attaches a distance cache to one query (Options.Cache). For
// engine-wide caching use Engine.EnableCache instead.
func WithCache(c *Cache) Option { return core.WithCache(c) }

// WithMeasure selects the semantic distance measure for one query
// (Options.Measure). nil — the default — is the paper's Rada distance on
// its DRC fast path. Telemetry labels queries per measure (e.g. an RDS
// query under the density measure records as "rds_density").
func WithMeasure(m DistanceMeasure) Option { return core.WithMeasure(m) }

// WithStageAllocs opts one query into per-stage heap-allocation sampling
// (Options.StageAllocs): Metrics.Stages then carries allocation deltas
// next to the always-on stage wall times. The deltas are process-wide
// allocation counters sampled at stage boundaries (~1µs per boundary), so
// attribute on an otherwise idle process for exact numbers.
func WithStageAllocs() Option { return core.WithStageAllocs() }

// WithArenaRetainBytes caps the per-query arena memory an engine keeps
// pooled between queries (Options.ArenaRetainBytes). Queries carve their
// mutable state from recycled arenas, so a warm engine allocates almost
// nothing per query; the cap bounds what one outlier query can pin. 0
// selects the default cap (8 MiB per pooled arena); a negative value
// disables retention. Results are identical at every setting.
func WithArenaRetainBytes(n int64) Option { return core.WithArenaRetainBytes(n) }

// Pipeline stages of the per-query resource attribution (Metrics.Stages),
// re-exported from the engine.
const (
	StagePlan    = core.StagePlan
	StageSeed    = core.StageSeed
	StageWave    = core.StageWave
	StageBound   = core.StageBound
	StageExam    = core.StageExam
	StageCollect = core.StageCollect
	StageMerge   = core.StageMerge
	// NumStages is the length of Metrics.Stages.
	NumStages = core.NumStages
)

// Span event kinds a Trace hook can observe, re-exported from the engine.
const (
	TraceWaveStart     = core.TraceWaveStart
	TraceWaveEnd       = core.TraceWaveEnd
	TraceForcedExam    = core.TraceForcedExam
	TraceDRCProbe      = core.TraceDRCProbe
	TraceBound         = core.TraceBound
	TraceTerminate     = core.TraceTerminate
	TraceShardDispatch = core.TraceShardDispatch
	TraceShardMerge    = core.TraceShardMerge
	TraceCacheHit      = core.TraceCacheHit
	TraceCacheMiss     = core.TraceCacheMiss
	TracePairLevel     = core.TracePairLevel
	TracePairExam      = core.TracePairExam
	TracePairBlock     = core.TracePairBlock
)

// ThresholdPolicy returns the paper's default examination policy: examine
// while the Eq. 9 error estimate is within eps, unconditionally on forced
// examinations and at traversal exhaustion.
func ThresholdPolicy(eps float64) ExamPolicy { return core.ThresholdPolicy(eps) }

// ErrCursorClosed is returned by operations on a closed Cursor.
var ErrCursorClosed = core.ErrCursorClosed

// NewTelemetry builds a telemetry sink. Share one sink across the engines
// of a process (or give each engine its own Prefix) and mount its Handler
// — /metrics, /debug/vars, /debug/slowlog, /debug/pprof/* — or call its
// Serve method to bind an introspection listener.
func NewTelemetry(cfg TelemetryConfig) *Telemetry { return telemetry.New(cfg) }

// NewCache builds a semantic-distance cache. One cache can back any
// number of engines — entries are namespaced per engine (seed vectors)
// and per ontology (pair distances), so sharing never mixes corpora.
func NewCache(cfg CacheConfig) *Cache { return cache.New(cfg) }

// NewOptions builds an Options value by applying opts over the zero value.
func NewOptions(opts ...Option) Options { return core.NewOptions(opts...) }

// NewOntologyBuilder starts a hand-built ontology whose root concept
// carries rootName.
func NewOntologyBuilder(rootName string) *OntologyBuilder {
	return ontology.NewBuilder(rootName)
}

// NewCollection returns an empty document collection.
func NewCollection() *Collection { return corpus.New() }

// GenerateOntology builds a synthetic SNOMED-like ontology calibrated to
// the published structural statistics (see internal/ontogen).
func GenerateOntology(cfg OntologyConfig) (*Ontology, error) { return ontogen.Generate(cfg) }

// PatientProfile returns the dense PATIENT corpus profile of the paper's
// Table 3, scaled by scale (1.0 = published size).
func PatientProfile(scale float64, seed int64) CorpusProfile { return emrgen.Patient(scale, seed) }

// RadioProfile returns the sparse RADIO corpus profile of the paper's
// Table 3, scaled by scale.
func RadioProfile(scale float64, seed int64) CorpusProfile { return emrgen.Radio(scale, seed) }

// GenerateCorpus builds a synthetic concept-set collection over o.
func GenerateCorpus(o *Ontology, p CorpusProfile) (*Collection, error) {
	return emrgen.GenerateConceptSets(o, p)
}

// NewAnnotator builds the concept-extraction pipeline from the ontology's
// terms, synonyms and abbreviations.
func NewAnnotator(o *Ontology) *Annotator { return nlp.NewMatcher(o) }

// Note is one generated clinical note with its ground-truth annotation.
type Note = emrgen.Note

// GenerateNoteCorpus renders synthetic clinical-note text (with
// abbreviated and negated mentions) and builds the collection by running
// the notes through the NLP pipeline — the same document construction flow
// the paper used with MetaMap. negatedFrac of each note's concepts are
// mentioned under negation and therefore excluded from the index.
func GenerateNoteCorpus(o *Ontology, ann *Annotator, p CorpusProfile, negatedFrac float64) (*Collection, []Note, error) {
	return emrgen.GenerateNotes(o, ann, p, negatedFrac)
}

// ConceptDistance returns the shortest valid-path distance between two
// concepts (a valid path passes through a common ancestor).
func ConceptDistance(o *Ontology, a, b ConceptID) int { return distance.ConceptDistance(o, a, b) }

// DocQueryDistance computes the RDS distance Ddq(doc, query) with DRC.
func DocQueryDistance(o *Ontology, doc, query []ConceptID) float64 {
	return drc.NewCalculator(o, 0).DocQuery(doc, query)
}

// DocDocDistance computes the symmetric SDS distance Ddd(d1, d2) with DRC.
func DocDocDistance(o *Ontology, d1, d2 []ConceptID) float64 {
	return drc.NewCalculator(o, 0).DocDoc(d1, d2)
}

// Engine evaluates RDS and SDS queries over one indexed collection.
type Engine struct {
	inner   *core.Engine
	o       *Ontology
	fwd     index.Forward
	numDocs func() int
	io      *store.IOStats
	files   []interface{ Close() error }
	tel     *telemetry.Sink
	cache   *cache.Cache
}

// EnableCache attaches a semantic-distance cache to the engine: every
// subsequent RDS query (including cursors and batches) resolves its seed
// vectors through c, skipping the ontology traversal on warm concepts.
// Rankings are bitwise identical with and without the cache; only timings
// and traversal counters change. A per-query Options.Cache overrides the
// engine-level cache. Pass nil to detach. Not safe to call concurrently
// with queries.
func (e *Engine) EnableCache(c *Cache) { e.cache = c }

// withCache defaults opts.Cache to the engine-level cache installed by
// EnableCache; an explicit per-query Options.Cache wins.
func (e *Engine) withCache(opts Options) Options {
	if opts.Cache == nil {
		opts.Cache = e.cache
	}
	return opts
}

// EnableTelemetry attaches sink to the engine: every subsequent query
// (RDS, SDS, full scans) records its latency, counters and ε_d into the
// sink's registry, and slow or failed queries are captured — with their
// span-event streams — in the sink's slow log. A caller-provided
// Options.Trace hook keeps working; the sink chains to it. Batch entry
// points are not per-query recorded. Pass nil to detach. Not safe to call
// concurrently with queries.
func (e *Engine) EnableTelemetry(sink *Telemetry) { e.tel = sink }

// instrument opens a telemetry recording for one query, splicing the
// sink's recorder in front of any caller trace hook. It returns nil when
// telemetry is disabled — the query then runs exactly as before. Queries
// under a non-default measure record under a per-measure label
// ("rds_density", "scan_rds_enhanced", ...), so dashboards separate
// measures the way they separate query kinds.
func (e *Engine) instrument(kind string, opts *Options) func(*Metrics, error) {
	if e.tel == nil {
		return nil
	}
	if opts.Measure != nil {
		kind += "_" + opts.Measure.Name()
	}
	trace, done := e.tel.Query(kind, opts.Trace)
	opts.Trace = trace
	return done
}

// NewEngine indexes coll in memory and returns a ready engine.
func NewEngine(o *Ontology, coll *Collection) *Engine {
	fwd := index.BuildMemForward(coll)
	n := coll.NumDocs()
	return &Engine{
		inner:   core.NewEngine(o, index.BuildMemInverted(coll), fwd, n, nil),
		o:       o,
		fwd:     fwd,
		numDocs: func() int { return n },
	}
}

// Filenames used by SaveIndexes / OpenDiskEngine within a data directory.
const (
	OntologyFile = "ontology.cro"
	InvertedFile = "inverted.crs"
	ForwardFile  = "forward.crs"
)

// SaveIndexes writes disk-backed inverted and forward indexes for coll
// into dir.
func SaveIndexes(dir string, coll *Collection) error {
	if err := store.BuildInvertedFile(filepath.Join(dir, InvertedFile), coll); err != nil {
		return err
	}
	return store.BuildForwardFile(filepath.Join(dir, ForwardFile), coll)
}

// OpenDiskEngine opens the disk-backed indexes previously written by
// SaveIndexes. numDocs must match the indexed collection. cacheBlocks
// bounds the per-file decoded block cache (0 disables caching). Close the
// engine when done.
func OpenDiskEngine(o *Ontology, dir string, numDocs, cacheBlocks int) (*Engine, error) {
	io := &store.IOStats{}
	inv, err := store.OpenInverted(filepath.Join(dir, InvertedFile), io, cacheBlocks)
	if err != nil {
		return nil, err
	}
	fwd, err := store.OpenForward(filepath.Join(dir, ForwardFile), io, cacheBlocks)
	if err != nil {
		inv.Close()
		return nil, err
	}
	return &Engine{
		inner:   core.NewEngine(o, inv, fwd, numDocs, io),
		o:       o,
		fwd:     fwd,
		numDocs: func() int { return numDocs },
		io:      io,
		files:   []interface{ Close() error }{inv, fwd},
	}, nil
}

// DynamicEngine is an Engine over a mutable collection: documents added
// with AddDocument are searchable immediately, with no precomputation or
// index rebuild — the operational advantage the paper claims for kNDS over
// distance-precomputation schemes such as the Threshold Algorithm.
// AddDocument may run concurrently with queries.
type DynamicEngine struct {
	Engine
	dyn     *index.Dynamic
	journal *store.Journal
}

// NewDynamicEngine returns an empty, growable engine over o.
func NewDynamicEngine(o *Ontology) *DynamicEngine {
	dyn := index.NewDynamic()
	return &DynamicEngine{
		Engine: Engine{
			inner: core.NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil),
			o:     o, fwd: dyn, numDocs: dyn.NumDocs,
		},
		dyn: dyn,
	}
}

// NewDynamicEngineFrom bulk-loads an existing collection and stays
// growable.
func NewDynamicEngineFrom(o *Ontology, coll *Collection) *DynamicEngine {
	dyn := index.FromCollection(coll)
	return &DynamicEngine{
		Engine: Engine{
			inner: core.NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil),
			o:     o, fwd: dyn, numDocs: dyn.NumDocs,
		},
		dyn: dyn,
	}
}

// OpenJournaledEngine opens a growable engine whose documents are durably
// logged to a write-ahead journal at path: existing intact records are
// replayed on open (a torn tail from a crash is truncated), and every
// AddDocument is appended and fsynced before it returns.
func OpenJournaledEngine(o *Ontology, path string) (*DynamicEngine, error) {
	dyn := index.NewDynamic()
	_, err := store.ReplayJournal(path, func(r store.JournalRecord) error {
		concepts := make([]ConceptID, len(r.Concepts))
		for i, c := range r.Concepts {
			concepts[i] = ConceptID(c)
		}
		dyn.AddDocument(r.Name, concepts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	j, err := store.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	e := &DynamicEngine{
		Engine: Engine{
			inner: core.NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil),
			o:     o, fwd: dyn, numDocs: dyn.NumDocs,
			files: []interface{ Close() error }{j},
		},
		dyn:     dyn,
		journal: j,
	}
	return e, nil
}

// AddDocument indexes a new document and returns its ID. On a journaled
// engine the document is logged and fsynced first; a journal failure
// panics rather than silently dropping durability (callers that need
// softer handling should use AddDocumentDurable).
func (e *DynamicEngine) AddDocument(name string, concepts []ConceptID) DocID {
	id, err := e.AddDocumentDurable(name, concepts)
	if err != nil {
		panic(fmt.Sprintf("conceptrank: journal append failed: %v", err))
	}
	return id
}

// AddDocumentDurable is AddDocument with an explicit error for journal
// failures.
func (e *DynamicEngine) AddDocumentDurable(name string, concepts []ConceptID) (DocID, error) {
	if e.journal != nil {
		set := make([]uint32, len(concepts))
		for i, c := range concepts {
			set[i] = uint32(c)
		}
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		dedup := set[:0]
		for i, c := range set {
			if i == 0 || c != set[i-1] {
				dedup = append(dedup, c)
			}
		}
		if err := e.journal.Append(store.JournalRecord{Name: name, Concepts: dedup}); err != nil {
			return 0, err
		}
		if err := e.journal.Sync(); err != nil {
			return 0, err
		}
	}
	return e.dyn.AddDocument(name, concepts), nil
}

// NumDocs returns the current collection size.
func (e *DynamicEngine) NumDocs() int { return e.dyn.NumDocs() }

// DocName returns the name a document was added under.
func (e *DynamicEngine) DocName(id DocID) string { return e.dyn.Name(id) }

// DocConcepts returns a document's indexed concept set.
func (e *DynamicEngine) DocConcepts(id DocID) ([]ConceptID, error) { return e.dyn.Concepts(id) }

// Close releases disk resources (no-op for memory engines).
func (e *Engine) Close() error {
	var first error
	for _, f := range e.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.files = nil
	return first
}

// RDS returns the k documents most relevant to the query concepts.
func (e *Engine) RDS(query []ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.RDSContext(context.Background(), query, opts)
}

// SDS returns the k documents most similar to the query document's
// concept set.
func (e *Engine) SDS(queryDoc []ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.SDSContext(context.Background(), queryDoc, opts)
}

// RDSContext is RDS under a caller context. Cancellation is observed at
// wave boundaries inside kNDS (once per BFS depth level); a cancelled
// query returns ctx.Err() with nil results and the metrics accumulated so
// far. RDS is exactly RDSContext with context.Background().
func (e *Engine) RDSContext(ctx context.Context, query []ConceptID, opts Options) ([]Result, *Metrics, error) {
	opts = e.withCache(opts)
	done := e.instrument("rds", &opts)
	res, m, err := e.inner.RDSContext(ctx, query, opts)
	if done != nil {
		done(m, err)
	}
	return res, m, err
}

// SDSContext is SDS under a caller context; see RDSContext for the
// cancellation contract.
func (e *Engine) SDSContext(ctx context.Context, queryDoc []ConceptID, opts Options) ([]Result, *Metrics, error) {
	opts = e.withCache(opts)
	done := e.instrument("sds", &opts)
	res, m, err := e.inner.SDSContext(ctx, queryDoc, opts)
	if done != nil {
		done(m, err)
	}
	return res, m, err
}

// OpenRDS plans a relevant-document query and returns a resumable cursor:
// page through the ranking with Next, extend it with GrowK (results are
// bitwise identical to a fresh query with the larger k), cancel and retry
// at wave boundaries via contexts. Close the cursor when done. Cursor
// queries are not per-query telemetry-recorded (like the batch entry
// points); install Options.Trace for span-level observation.
func (e *Engine) OpenRDS(query []ConceptID, opts Options) (*Cursor, error) {
	return e.inner.OpenRDS(query, e.withCache(opts))
}

// OpenSDS plans a similar-document query as a resumable cursor; see
// OpenRDS.
func (e *Engine) OpenSDS(queryDoc []ConceptID, opts Options) (*Cursor, error) {
	return e.inner.OpenSDS(queryDoc, e.withCache(opts))
}

// TopKPairs returns the k document pairs with the smallest symmetric
// distance Ddd, in ascending canonical (distance, A, B) order, without
// evaluating all O(n^2) candidates: per-concept exact Ddc vectors (the
// same cache-aware seeds RDS queries use) drive a level-synchronous
// bounded join that prunes candidate pairs against the running k-th best
// pair. Results are bitwise identical to the naive oracle at every
// option setting; an engine-level cache installed with EnableCache is
// used unless PairOptions.Cache overrides it. See DESIGN.md, "All-pairs
// semantic join".
func (e *Engine) TopKPairs(ctx context.Context, opts PairOptions) ([]PairResult, *PairMetrics, error) {
	if opts.Cache == nil {
		opts.Cache = e.cache
	}
	return e.inner.TopKPairs(ctx, opts)
}

// TopKPairsNaive is the O(n^2) reference join (every eligible pair's
// exact Ddd via DRC) — the oracle TopKPairs is pinned against, exposed
// for benchmarking and verification.
func (e *Engine) TopKPairsNaive(ctx context.Context, opts PairOptions) ([]PairResult, *PairMetrics, error) {
	return e.inner.TopKPairsNaive(ctx, opts)
}

// NewBatchRDS prepares a resumable batch of RDS queries over per-query
// cursors: Run drives every unfinished query to termination, a cancelled
// Run keeps per-query pipeline state for the next Run, and Cursor(i)
// exposes each query's cursor (e.g. to GrowK individual queries after the
// batch completes). Close the batch when done.
func (e *Engine) NewBatchRDS(queries [][]ConceptID, opts Options) (*Batch, error) {
	return e.inner.NewBatchRDS(queries, e.withCache(opts))
}

// NewBatchSDS prepares a resumable batch of SDS queries; see NewBatchRDS.
func (e *Engine) NewBatchSDS(queryDocs [][]ConceptID, opts Options) (*Batch, error) {
	return e.inner.NewBatchSDS(queryDocs, e.withCache(opts))
}

// BatchRDS evaluates many RDS queries concurrently over a worker pool
// (workers <= 0 selects GOMAXPROCS). Results are in input order; the
// first error cancels the queries not yet started.
func (e *Engine) BatchRDS(queries [][]ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	return e.inner.BatchRDS(queries, e.withCache(opts), workers)
}

// BatchSDS evaluates many SDS queries concurrently.
func (e *Engine) BatchSDS(queryDocs [][]ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	return e.inner.BatchSDS(queryDocs, e.withCache(opts), workers)
}

// BatchRDSContext is BatchRDS under a caller context: cancellation stops
// scheduling further queries and returns the context's error together
// with the partial output — queries that completed before the failure
// keep their results and Metrics (both non-nil); aborted or unscheduled
// queries have both slots nil.
func (e *Engine) BatchRDSContext(ctx context.Context, queries [][]ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	return e.inner.BatchRDSContext(ctx, queries, e.withCache(opts), workers)
}

// BatchSDSContext is BatchSDS under a caller context.
func (e *Engine) BatchSDSContext(ctx context.Context, queryDocs [][]ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	return e.inner.BatchSDSContext(ctx, queryDocs, e.withCache(opts), workers)
}

// FullScanRDS ranks by scanning the whole collection (the evaluation
// baseline; exact but slow). WithK selects the result count (default 10)
// and WithWorkers > 1 partitions the scan across a worker pool with
// results identical to the serial scan; other options are ignored — the
// baseline has no traversal to tune.
func (e *Engine) FullScanRDS(query []ConceptID, opts ...Option) ([]Result, *Metrics, error) {
	return e.fullScan(false, query, opts)
}

// FullScanSDS is the full-scan baseline for similarity queries, with the
// same options contract as FullScanRDS.
func (e *Engine) FullScanSDS(queryDoc []ConceptID, opts ...Option) ([]Result, *Metrics, error) {
	return e.fullScan(true, queryDoc, opts)
}

func (e *Engine) fullScan(sds bool, query []ConceptID, opts []Option) ([]Result, *Metrics, error) {
	// withCache here mirrors RDSContext/SDSContext: an engine-level cache
	// installed with EnableCache accelerates the scan (an explicit
	// WithCache still wins). Rankings are identical either way.
	o := e.withCache(core.NewOptions(opts...))
	kind := "scan_rds"
	if sds {
		kind = "scan_sds"
	}
	done := e.instrument(kind, &o)
	var (
		res []Result
		m   *Metrics
		err error
	)
	if sds {
		res, m, err = e.inner.FullScanSDS(query, o)
	} else {
		res, m, err = e.inner.FullScanRDS(query, o)
	}
	if done != nil {
		done(m, err)
	}
	return res, m, err
}

// SaveOntology writes o to path in the checksummed binary format.
func SaveOntology(path string, o *Ontology) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := o.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadOntology reads an ontology written by SaveOntology.
func LoadOntology(path string) (*Ontology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	o, err := ontology.ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("conceptrank: load %s: %w", path, err)
	}
	return o, nil
}

// SaveCollection writes coll to path.
func SaveCollection(path string, coll *Collection) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := coll.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCollection reads a collection written by SaveCollection.
func LoadCollection(path string) (*Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := corpus.ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("conceptrank: load %s: %w", path, err)
	}
	return c, nil
}

// FindConcept looks a concept up by its primary term or any synonym
// (case-sensitive). The first call builds a term→concept map on the
// ontology (guarded by sync.Once, so concurrent callers are safe); every
// lookup afterwards is O(1). Ambiguous terms resolve exactly as the former
// linear scan did: lowest ConceptID wins, primary name before synonyms.
func FindConcept(o *Ontology, term string) (ConceptID, bool) {
	return o.LookupTerm(term)
}

// FindConcepts is the bulk form of FindConcept: ids[i] holds the concept
// for terms[i] and is only meaningful when found[i] is true.
func FindConcepts(o *Ontology, terms []string) (ids []ConceptID, found []bool) {
	ids = make([]ConceptID, len(terms))
	found = make([]bool, len(terms))
	for i, t := range terms {
		ids[i], found[i] = o.LookupTerm(t)
	}
	return ids, found
}
