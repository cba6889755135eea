package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// Batch evaluation: the engine is safe for concurrent queries (its indexes
// are read-only or internally synchronized), so query workloads — the
// experiment harness, bulk cohort screens, the paper's suggested
// MapReduce-style deployment — fan out over internal/pool's errgroup-style
// Group. Results are returned in input order.
//
// A Batch is built over per-query cursors, so it is resumable: a Run that
// is cancelled keeps each in-flight query's saved pipeline state (frontier,
// bound table, collector) inside its cursor, and the next Run picks every
// unfinished query up at the wave where it stopped instead of starting
// over. Completed queries are never re-run.
//
// The one-shot entry points (BatchRDS and friends) are NewBatch + Run +
// Close. On error or cancellation they return the partial result and
// metrics slices alongside the error: a query that completed before the
// failure keeps its results and Metrics (both non-nil, internally
// consistent — TotalTime set, counters final); a query that failed, was
// aborted mid-flight, or was never scheduled has both slots nil. Non-nil
// metrics[i] therefore always means query i completed.

// Batch schedules many queries of one type over an engine, preserving
// per-query cursor state across cancelled runs. Construct with NewBatchRDS
// or NewBatchSDS, call Run (repeatedly, if cancelled) and read Results /
// Metrics / Cursor; Close when done.
//
// A Batch is not safe for concurrent method calls.
type Batch struct {
	e       *Engine
	sds     bool
	queries [][]ontology.ConceptID
	opts    Options

	curs    []*Cursor // lazily opened by the first Run that schedules the slot
	results [][]Result
	metrics []*Metrics
	failed  []error // permanent (non-context) per-query failures
}

// NewBatchRDS prepares a resumable batch of RDS queries. No query state is
// allocated until Run schedules each slot.
func (e *Engine) NewBatchRDS(queries [][]ontology.ConceptID, opts Options) (*Batch, error) {
	return e.newBatch(false, queries, opts)
}

// NewBatchSDS prepares a resumable batch of SDS queries.
func (e *Engine) NewBatchSDS(queryDocs [][]ontology.ConceptID, opts Options) (*Batch, error) {
	return e.newBatch(true, queryDocs, opts)
}

func (e *Engine) newBatch(sds bool, queries [][]ontology.ConceptID, opts Options) (*Batch, error) {
	if opts.Workers < 0 {
		return nil, ErrNegativeWorkers
	}
	return &Batch{
		e: e, sds: sds, queries: queries, opts: opts,
		curs:    make([]*Cursor, len(queries)),
		results: make([][]Result, len(queries)),
		metrics: make([]*Metrics, len(queries)),
		failed:  make([]error, len(queries)),
	}, nil
}

// Run drives every unfinished query to termination on a scheduler pool of
// the given width (<= 0 selects GOMAXPROCS). The first error cancels the
// run: queries in flight stop at their next wave boundary with their
// cursor state intact, queries not yet started are skipped, and the first
// error (annotated with its query index) is returned. If that error was a
// context error, a later Run resumes the stopped queries where they left
// off; any other error marks its query permanently failed and is reported
// again by subsequent Runs.
func (b *Batch) Run(ctx context.Context, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(b.queries) {
		workers = len(b.queries)
	}
	if workers < 1 {
		workers = 1
	}
	g, gctx := pool.GroupWithContext(ctx)
	g.SetLimit(workers)
	for i := range b.queries {
		if gctx.Err() != nil {
			break // a sibling failed or the caller canceled: stop scheduling
		}
		if b.metrics[i] != nil || b.failed[i] != nil {
			continue // completed or permanently failed earlier
		}
		i := i
		g.Go(func() error {
			// Per-query context check: a query whose slot was acquired
			// after cancellation is skipped (its cursor state, if any, is
			// kept for the next Run).
			if gctx.Err() != nil {
				return nil
			}
			return b.runOne(gctx, i)
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// A fully scheduled, uncancelled run still surfaces permanent failures
	// recorded by earlier runs, so Run's nil means "every query completed".
	for i, err := range b.failed {
		if err != nil {
			return fmt.Errorf("batch query %d: %w", i, err)
		}
	}
	return nil
}

func (b *Batch) runOne(ctx context.Context, i int) error {
	cur := b.curs[i]
	if cur == nil {
		var err error
		if b.sds {
			cur, err = b.e.OpenSDS(b.queries[i], b.opts)
		} else {
			cur, err = b.e.OpenRDS(b.queries[i], b.opts)
		}
		if err != nil {
			b.failed[i] = err
			return fmt.Errorf("batch query %d: %w", i, err)
		}
		b.curs[i] = cur
	}
	res, m, err := cur.Run(ctx)
	if err != nil {
		if ctxErr(err) {
			// Resumable: the cursor holds the query mid-wave; the next Run
			// continues it. Results/metrics slots stay nil (not completed).
			return fmt.Errorf("batch query %d: %w", i, err)
		}
		b.failed[i] = err
		cur.Close()
		b.curs[i] = nil
		return fmt.Errorf("batch query %d: %w", i, err)
	}
	b.results[i], b.metrics[i] = res, m
	return nil
}

// Results returns the per-query result slices in input order; a nil slot
// means the query has not completed (pending, mid-flight, or failed).
func (b *Batch) Results() [][]Result { return b.results }

// Metrics returns the per-query metrics; non-nil metrics[i] always means
// query i completed.
func (b *Batch) Metrics() []*Metrics { return b.metrics }

// Cursor returns query i's live cursor, or nil if the query was never
// scheduled or failed permanently. Completed queries keep their cursors
// open, so a caller can GrowK individual queries after the batch finishes.
// The cursor is owned by the batch: do not Close it directly.
func (b *Batch) Cursor(i int) *Cursor { return b.curs[i] }

// Close releases every open cursor. The batch cannot run afterwards.
func (b *Batch) Close() error {
	for i, c := range b.curs {
		if c != nil {
			c.Close()
			b.curs[i] = nil
		}
	}
	return nil
}

// BatchRDS evaluates many RDS queries concurrently with the given number
// of scheduler workers (<= 0 selects GOMAXPROCS).
func (e *Engine) BatchRDS(queries [][]ontology.ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	return e.BatchRDSContext(context.Background(), queries, opts, workers)
}

// BatchSDS evaluates many SDS queries concurrently.
func (e *Engine) BatchSDS(queryDocs [][]ontology.ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	return e.BatchSDSContext(context.Background(), queryDocs, opts, workers)
}

// BatchRDSContext is BatchRDS under a caller context: cancellation stops
// scheduling new queries and the context's error is returned together
// with the partial results (see the package comment on batch evaluation).
func (e *Engine) BatchRDSContext(ctx context.Context, queries [][]ontology.ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	return e.batch(ctx, false, queries, opts, workers)
}

// BatchSDSContext is BatchSDS under a caller context.
func (e *Engine) BatchSDSContext(ctx context.Context, queryDocs [][]ontology.ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	return e.batch(ctx, true, queryDocs, opts, workers)
}

func (e *Engine) batch(ctx context.Context, sds bool, queries [][]ontology.ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	b, err := e.newBatch(sds, queries, opts)
	if err != nil {
		return nil, nil, err
	}
	defer b.Close()
	if err := b.Run(ctx, workers); err != nil {
		return b.results, b.metrics, err
	}
	return b.results, b.metrics, nil
}

// ctxErr reports whether err is (or wraps) a context cancellation or
// deadline error — the resumable class of cursor errors.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
