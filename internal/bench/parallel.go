package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/ontology"
)

// Parallel execution experiments (beyond the paper): the EDBT evaluation
// is single-threaded, but the ROADMAP north star is a server saturating
// its hardware. These tables measure the two parallelism layers the
// engine has — the concurrent batch scheduler (inter-query) and the
// partitioned full scan (intra-query) — against their serial forms on the
// same calibrated workloads. Both layers are result-identical to serial
// (internal/core/parallel_equiv_test.go), so the tables report pure
// throughput.
//
// Speedup is bounded by GOMAXPROCS: on a single-core host every row sits
// near 1x (the table's Note records the core count so EXPERIMENTS.md
// entries are interpretable).

// ParallelWorkerGrid is the worker-count sweep of the parallel experiment.
var ParallelWorkerGrid = []int{1, 2, 4, 8}

// ParallelSpeedup measures batched RDS and SDS wall-clock throughput
// against scheduler worker count on both collections.
func ParallelSpeedup(env *Env) (*Table, error) {
	t := &Table{
		ID: "parallel",
		Title: fmt.Sprintf("Batched query throughput vs workers (GOMAXPROCS=%d): inter-query scheduler, serial per query",
			runtime.GOMAXPROCS(0)),
		Header: []string{"dataset", "type", "workers", "batch ms", "queries/s", "speedup"},
	}
	for _, ds := range env.Datasets() {
		for _, sds := range []bool{false, true} {
			kind, queries := workload(env, ds, sds)
			opts := core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps}
			var serial time.Duration
			for _, w := range ParallelWorkerGrid {
				elapsed, err := timeBatch(ds.Engine, sds, queries, opts, w)
				if err != nil {
					return nil, err
				}
				if w == 1 {
					serial = elapsed
				}
				qps := float64(len(queries)) / elapsed.Seconds()
				t.Add(ds.Name, kind, itoa(w), ms(elapsed), f2(qps), f2(float64(serial)/float64(elapsed)))
			}
		}
	}
	t.Note("results are identical at every worker count; speedup ceiling is GOMAXPROCS=%d on this host", runtime.GOMAXPROCS(0))
	return t, nil
}

// ParallelIntraQuery measures single-query latency of the partitioned
// full-scan baseline at several Options.Workers settings. kNDS examines
// candidates one at a time, so Workers does not reach it.
func ParallelIntraQuery(env *Env) (*Table, error) {
	t := &Table{
		ID: "parallel-intra",
		Title: fmt.Sprintf("Partitioned full scan vs Options.Workers (GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		Header: []string{"dataset", "workers", "scan ms/q", "scan speedup"},
	}
	for _, ds := range env.Datasets() {
		_, queries := workload(env, ds, false)
		var serialScan time.Duration
		for _, w := range ParallelWorkerGrid {
			start := time.Now()
			for _, q := range queries {
				if _, _, err := ds.Engine.FullScanRDS(q, core.Options{K: DefaultK, Workers: w}); err != nil {
					return nil, err
				}
			}
			scan := time.Since(start) / time.Duration(len(queries))
			if w == 1 {
				serialScan = scan
			}
			t.Add(ds.Name, itoa(w), ms(scan), f2(float64(serialScan)/float64(scan)))
		}
	}
	return t, nil
}

func workload(env *Env, ds *Dataset, sds bool) (string, [][]ontology.ConceptID) {
	r := rand.New(rand.NewSource(41))
	if sds {
		return "SDS", ds.RandomQueryDocs(r, env.Scale.RankQueries)
	}
	return "RDS", ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
}

func timeBatch(eng *core.Engine, sds bool, queries [][]ontology.ConceptID, opts core.Options, workers int) (time.Duration, error) {
	start := time.Now()
	var err error
	if sds {
		_, _, err = eng.BatchSDS(queries, opts, workers)
	} else {
		_, _, err = eng.BatchRDS(queries, opts, workers)
	}
	return time.Since(start), err
}
