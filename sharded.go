package conceptrank

import (
	"context"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/shard"
	"conceptrank/internal/telemetry"
)

// Sharded execution: the collection is partitioned across N per-shard kNDS
// engines, every query fans out to all shards concurrently, and the
// per-shard top-k heaps merge into a global top-k that is bitwise
// identical to a single Engine over the union collection — same documents,
// same distances, same tie-breaks, for every shard count and placement
// policy. Shards propagate progress to each other: one whose outstanding
// lower bound passes the merged k-th distance is cancelled early. See
// DESIGN.md, "Sharded execution", for the placement invariants and the
// merge proof sketch.

// ShardPlacement selects how documents are distributed across shards.
type ShardPlacement = shard.Placement

// Shard placement policies.
const (
	// RoundRobinPlacement assigns document i to shard i mod N.
	RoundRobinPlacement = shard.RoundRobin
	// SizeBalancedPlacement assigns each document to the shard with the
	// smallest total concept count so far.
	SizeBalancedPlacement = shard.SizeBalanced
)

// ParseShardPlacement resolves a placement name ("round-robin" or
// "size-balanced"), for CLI flags and configuration files.
func ParseShardPlacement(s string) (ShardPlacement, error) { return shard.ParsePlacement(s) }

// ShardConfig parameterizes a sharded engine: the number of shards (>= 1)
// and the placement policy.
type ShardConfig = shard.Config

// ShardedMetrics describes one sharded query: merged totals, the
// per-shard breakdown, and how many shards the cross-shard bound
// cancelled early.
type ShardedMetrics = shard.Metrics

// ShardedCursor is a resumable sharded query: one pipeline cursor per
// shard plus the cross-shard merger, held open so the merged ranking can
// be paged with Next and extended with GrowK — growing resumes every
// shard (including bound-paused ones) from its saved traversal state and
// returns results bitwise identical to a fresh sharded query at the
// larger k. Open with ShardedEngine.OpenRDS/OpenSDS.
type ShardedCursor = shard.Cursor

// ShardedEngine answers RDS and SDS queries over a partitioned collection.
// It is safe for concurrent queries. Results are identical to a single
// Engine over the union collection.
type ShardedEngine struct {
	inner *shard.Engine
	tel   *telemetry.Sink
	cache *cache.Cache
}

// EnableCache attaches a semantic-distance cache: Options.Cache
// propagates to every shard's plan stage, so each shard caches its own
// seed vectors while all shards share the concept-pair distances (they
// share the ontology). Rankings are unchanged. A per-query Options.Cache
// overrides the engine-level cache. Pass nil to detach. Not safe to call
// concurrently with queries.
func (e *ShardedEngine) EnableCache(c *Cache) { e.cache = c }

func (e *ShardedEngine) withCache(opts Options) Options {
	if opts.Cache == nil {
		opts.Cache = e.cache
	}
	return opts
}

// EnableTelemetry attaches sink to the sharded engine: queries record
// into the sink's registry under the "sharded_rds"/"sharded_sds" kinds,
// including the shard fan-out width, and slow or failed queries land in
// the slow log with their forwarded per-shard span events. Pass nil to
// detach. Not safe to call concurrently with queries.
func (e *ShardedEngine) EnableTelemetry(sink *Telemetry) { e.tel = sink }

func (e *ShardedEngine) instrument(kind string, opts *Options) func(*core.Metrics, error) {
	if e.tel == nil {
		return nil
	}
	trace, done := e.tel.Query(kind, opts.Trace)
	opts.Trace = trace
	return done
}

// NewShardedEngine partitions coll per cfg and indexes every shard in
// memory.
func NewShardedEngine(o *Ontology, coll *Collection, cfg ShardConfig) (*ShardedEngine, error) {
	inner, err := shard.New(o, coll, cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{inner: inner}, nil
}

// SaveShardedIndexes partitions coll per cfg and writes one inverted /
// forward / docmap file triple per shard plus a manifest into dir
// (created if missing).
func SaveShardedIndexes(dir string, coll *Collection, cfg ShardConfig) error {
	return shard.SaveIndexes(dir, coll, cfg)
}

// OpenShardedDiskEngine opens the sharded disk layout previously written
// by SaveShardedIndexes. cacheBlocks bounds each store file's decoded
// block cache (0 disables caching). Close the engine when done.
func OpenShardedDiskEngine(o *Ontology, dir string, cacheBlocks int) (*ShardedEngine, error) {
	inner, err := shard.OpenDisk(o, dir, cacheBlocks)
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{inner: inner}, nil
}

// NumShards returns the number of partitions.
func (e *ShardedEngine) NumShards() int { return e.inner.NumShards() }

// NumDocs returns the total number of documents across all shards.
func (e *ShardedEngine) NumDocs() int { return e.inner.NumDocs() }

// Close releases disk-backed resources (no-op for in-memory engines).
func (e *ShardedEngine) Close() error { return e.inner.Close() }

// RDS returns the k documents most relevant to the query concepts,
// searched across all shards concurrently. Progressive, OnWave and
// OnBound are used internally by the merge and are ignored; Options.Trace
// is honored — per-shard span events are forwarded to it sequentially
// with TraceEvent.Shard stamped.
func (e *ShardedEngine) RDS(query []ConceptID, opts Options) ([]Result, *ShardedMetrics, error) {
	return e.RDSContext(context.Background(), query, opts)
}

// SDS returns the k documents most similar to the query document's
// concept set, searched across all shards concurrently.
func (e *ShardedEngine) SDS(queryDoc []ConceptID, opts Options) ([]Result, *ShardedMetrics, error) {
	return e.SDSContext(context.Background(), queryDoc, opts)
}

// RDSContext is RDS under a caller context: cancellation propagates to
// every shard and is observed at their wave boundaries.
func (e *ShardedEngine) RDSContext(ctx context.Context, query []ConceptID, opts Options) ([]Result, *ShardedMetrics, error) {
	opts = e.withCache(opts)
	done := e.instrument("sharded_rds", &opts)
	res, sm, err := e.inner.RDSContext(ctx, query, opts)
	if done != nil {
		done(shardedMerged(sm), err)
	}
	return res, sm, err
}

// SDSContext is SDS under a caller context.
func (e *ShardedEngine) SDSContext(ctx context.Context, queryDoc []ConceptID, opts Options) ([]Result, *ShardedMetrics, error) {
	opts = e.withCache(opts)
	done := e.instrument("sharded_sds", &opts)
	res, sm, err := e.inner.SDSContext(ctx, queryDoc, opts)
	if done != nil {
		done(shardedMerged(sm), err)
	}
	return res, sm, err
}

// OpenRDS plans a relevant-document query across all shards and returns a
// resumable cursor over the merged ranking. Cursor queries are not
// per-query telemetry-recorded; install Options.Trace for span events.
// Close the cursor when done.
func (e *ShardedEngine) OpenRDS(query []ConceptID, opts Options) (*ShardedCursor, error) {
	return e.inner.OpenRDS(query, e.withCache(opts))
}

// OpenSDS plans a similar-document query across all shards; see OpenRDS.
func (e *ShardedEngine) OpenSDS(queryDoc []ConceptID, opts Options) (*ShardedCursor, error) {
	return e.inner.OpenSDS(queryDoc, e.withCache(opts))
}

// TopKPairs returns the k lowest-Ddd document pairs across the whole
// partitioned collection: each shard's documents form one block of a
// bounded all-pairs join, the intra- and cross-block tasks fan out
// concurrently (PairOptions.Workers wide), and every task prunes against
// the shared global k-th-best threshold, which also cancels tasks with
// provably nothing left to contribute. Results are bitwise identical to
// a single Engine's TopKPairs over the union collection. An engine-level
// cache installed with EnableCache is shared by all shards unless
// PairOptions.Cache overrides it.
func (e *ShardedEngine) TopKPairs(ctx context.Context, opts PairOptions) ([]PairResult, *PairMetrics, error) {
	if opts.Cache == nil {
		opts.Cache = e.cache
	}
	return e.inner.TopKPairs(ctx, opts)
}

func shardedMerged(sm *ShardedMetrics) *core.Metrics {
	if sm == nil {
		return nil
	}
	return &sm.Merged
}

// DynamicShardedEngine is a growable ShardedEngine: AddDocument routes
// each new document to the least-loaded shard (the SizeBalanced policy)
// and the document is searchable by the next query. AddDocument may run
// concurrently with queries.
type DynamicShardedEngine struct {
	ShardedEngine
	dyn *shard.DynamicEngine
}

// NewDynamicShardedEngine returns an empty growable sharded engine.
func NewDynamicShardedEngine(o *Ontology, shards int) (*DynamicShardedEngine, error) {
	dyn, err := shard.NewDynamic(o, shards)
	if err != nil {
		return nil, err
	}
	return &DynamicShardedEngine{ShardedEngine: ShardedEngine{inner: &dyn.Engine}, dyn: dyn}, nil
}

// AddDocument routes the document to the smallest shard and returns its
// global DocID, assigned in insertion order.
func (e *DynamicShardedEngine) AddDocument(name string, concepts []ConceptID) DocID {
	return e.dyn.AddDocument(name, concepts)
}
