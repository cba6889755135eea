package core

import (
	"context"
	"sort"
	"time"

	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// Parallel full scans: the baseline partitioned across workers. Unlike
// kNDS, a full scan has no cross-document decisions, so this is a plain
// deterministic map-reduce: each worker ranks a contiguous DocID range
// into a private top-k, and the partial results merge by (distance, doc) —
// the same total order the serial scan's strict-eviction heap induces, so
// results are identical to FullScanRDS/FullScanSDS.

// fullScanParallel is the partitioned scan; the dispatcher guarantees
// opts.Workers > 1 and !opts.UseBL. With a measure, every worker shares
// the read-only valid-path vectors prepared up front; the per-document
// evaluation is measureDocDistance, so results match the serial scan
// exactly here too.
func (e *Engine) fullScanParallel(ctx context.Context, sds bool, rawQuery []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	workers := opts.Workers
	m := &Metrics{}
	defer e.beginQuery(m)()
	tr := newTracer(opts.Trace)

	q := dedupConcepts(rawQuery)
	if len(q) == 0 {
		return nil, m, ErrEmptyQuery
	}
	k := opts.K
	if k <= 0 {
		k = 10
	}
	smp := newStageSampler(opts.StageAllocs)
	mk := smp.mark()
	var prep *drc.Prepared
	var mvecs [][]int32
	if opts.Measure != nil {
		mvecs = make([][]int32, len(q))
		for i, c := range q {
			mvecs[i] = validPathDistances(e.o, c)
		}
	} else {
		prep = drc.PrepareCached(e.o, q, 0, e.addrCache)
	}
	m.DistanceTime += smp.record(m, StagePlan, mk)

	n := e.numDocs()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	type chunkResult struct {
		items    []Result
		examined int
		drcCalls int
		distTime time.Duration
	}
	chunks := make([]chunkResult, workers)
	tr.emit(TraceEvent{Kind: TraceWaveStart, N: n})
	mk = smp.mark()
	g, gctx := pool.GroupWithContext(ctx)
	for w := 0; w < workers; w++ {
		w := w
		lo := corpus.DocID(w * n / workers)
		hi := corpus.DocID((w + 1) * n / workers)
		g.Go(func() error {
			hk := newTopK(k)
			cr := &chunks[w]
			var scr drc.Scratch
			for d := lo; d < hi; d++ {
				if (d-lo)%scanCancelStride == 0 {
					if err := gctx.Err(); err != nil {
						return err
					}
				}
				concepts, err := e.fwd.Concepts(d)
				if err != nil {
					return err
				}
				if len(concepts) == 0 {
					continue
				}
				t1 := time.Now()
				var dist float64
				switch {
				case opts.Measure != nil:
					dist = measureDocDistance(opts.Measure, q, mvecs, concepts, sds)
				case sds:
					dist, err = prep.DocDocScratch(concepts, &scr)
				default:
					dist, err = prep.DocQueryScratch(concepts, &scr)
				}
				cr.distTime += time.Since(t1)
				if err != nil {
					return err
				}
				cr.examined++
				cr.drcCalls++
				hk.offer(Result{Doc: d, Distance: dist})
			}
			cr.items = hk.sorted()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, m, err
	}
	smp.record(m, StageExam, mk)
	mk = smp.mark()
	var all []Result
	for i := range chunks {
		all = append(all, chunks[i].items...)
		m.DocsExamined += chunks[i].examined
		m.DRCCalls += chunks[i].drcCalls
		m.DistanceTime += chunks[i].distTime
	}
	sort.Slice(all, func(i, j int) bool { return worse(all[j], all[i]) })
	if len(all) > k {
		all = all[:k]
	}
	m.ResultCount = len(all)
	smp.record(m, StageCollect, mk)
	tr.emit(TraceEvent{Kind: TraceWaveEnd, N: m.DocsExamined})
	tr.emit(TraceEvent{Kind: TraceTerminate, Value: 0, N: len(all)})
	return all, m, nil
}
