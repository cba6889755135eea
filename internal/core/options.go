package core

// Functional options: a composable layer over the Options struct for the
// public facade's collapsed entry points (FullScanRDS/FullScanSDS and the
// constructors that grew out of the FullScan{RDS,SDS}{,Parallel} quartet).
// Options remains the exhaustive configuration surface; functional options
// cover the knobs callers actually tune per call.

import (
	"conceptrank/internal/cache"
	"conceptrank/internal/measure"
)

// Option mutates an Options value; apply a list with NewOptions or
// Options.With.
type Option func(*Options)

// WithK sets the number of results (Options.K).
func WithK(k int) Option { return func(o *Options) { o.K = k } }

// WithEpsilon sets the examination error threshold ε_θ
// (Options.ErrorThreshold).
func WithEpsilon(eps float64) Option { return func(o *Options) { o.ErrorThreshold = eps } }

// WithWorkers sets the goroutine bound of the partitioned full scan
// (Options.Workers).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithQueueLimit sets the BFS queue bound (Options.QueueLimit).
func WithQueueLimit(n int) Option { return func(o *Options) { o.QueueLimit = n } }

// WithTrace installs a per-query span-event hook (Options.Trace). Tracing
// is observation-only; a nil hook costs one branch per would-be event.
func WithTrace(fn TraceFunc) Option { return func(o *Options) { o.Trace = fn } }

// WithCache attaches a shared semantic-distance cache to the query's plan
// stage (Options.Cache): RDS seed vectors and concept-pair distances are
// served from c, with generation-based invalidation for growing corpora.
// Rankings are bitwise identical with and without a cache.
func WithCache(c *cache.Cache) Option { return func(o *Options) { o.Cache = c } }

// WithMeasure selects the semantic distance measure (Options.Measure).
// nil — the default — keeps the paper's Rada shortest-valid-path distance
// on its DRC fast path; see Options.Measure for the generic-pipeline
// contract.
func WithMeasure(m measure.Measure) Option { return func(o *Options) { o.Measure = m } }

// WithStageAllocs enables per-stage heap-allocation sampling
// (Options.StageAllocs); stage wall times are recorded regardless.
func WithStageAllocs() Option { return func(o *Options) { o.StageAllocs = true } }

// WithArenaRetainBytes caps the per-query arena memory the engine keeps
// pooled between queries (Options.ArenaRetainBytes): 0 selects the
// default cap, a negative value disables arena retention entirely.
func WithArenaRetainBytes(n int64) Option { return func(o *Options) { o.ArenaRetainBytes = n } }

// NewOptions builds an Options value by applying opts over the zero value.
// The result is not normalized; queries normalize on entry as usual.
func NewOptions(opts ...Option) Options {
	var o Options
	return o.With(opts...)
}

// With returns a copy of o with opts applied.
func (o Options) With(opts ...Option) Options {
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
