package bench

import (
	"context"
	"fmt"
	"time"

	"conceptrank/internal/core"
)

// CursorResume measures the two costs the staged pipeline's cursor API is
// meant to control:
//
//  1. One-shot latency through the pipeline on the standard workloads.
//     The staged executor replaced the monolithic search loop, so this
//     column is the no-regression number against EXPERIMENTS.md.
//  2. GrowK-resume vs fresh requery: take the top k, then extend the same
//     cursor to k' = 2k, and compare against re-running the query from
//     scratch at k'. The resume only pays for the *additional* waves and
//     DRC probes, so it should be strictly cheaper.
func CursorResume(env *Env) (*Table, error) {
	t := &Table{
		ID:    "cursor",
		Title: fmt.Sprintf("Cursor resume: GrowK %d->%d on a saved traversal vs a fresh k'=%d query", DefaultK, 2*DefaultK, 2*DefaultK),
		Header: []string{"dataset", "type", "one-shot ms", "grow ms", "fresh ms", "grow speedup",
			"DRC saved"},
	}
	ctx := context.Background()
	for _, ds := range env.Datasets() {
		for _, sds := range []bool{false, true} {
			kind, queries := workload(env, ds, sds)
			opts := core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps}

			// (1) One-shot pipeline latency at the default k.
			oneShot, err := runWorkload(ds.Engine, sds, queries, opts)
			if err != nil {
				return nil, err
			}

			// (2) Resume vs requery at k' = 2k.
			var growTotal, freshTotal time.Duration
			var growDRC, freshDRC int64
			for _, q := range queries {
				open := ds.Engine.OpenRDS
				if sds {
					open = ds.Engine.OpenSDS
				}
				cur, err := open(q, opts)
				if err != nil {
					return nil, err
				}
				if _, err := cur.Next(ctx, DefaultK); err != nil {
					cur.Close()
					return nil, err
				}
				start := time.Now()
				if _, err := cur.GrowK(ctx, 2*DefaultK); err != nil {
					cur.Close()
					return nil, err
				}
				growTotal += time.Since(start)
				growDRC += int64(cur.Metrics().DRCCalls)
				cur.Close()

				big := opts
				big.K = 2 * DefaultK
				var m *core.Metrics
				if sds {
					_, m, err = ds.Engine.SDS(q, big)
				} else {
					_, m, err = ds.Engine.RDS(q, big)
				}
				if err != nil {
					return nil, err
				}
				freshTotal += m.TotalTime
				// The cursor's DRCCalls accumulate across the k and grow
				// segments — the full lifetime cost of reaching k' by
				// resuming. The equivalence tests guarantee that lifetime
				// never exceeds a single fresh k' query, so the k-page the
				// user already saw came for free.
				freshDRC += int64(m.DRCCalls)
			}
			n := time.Duration(len(queries))
			growAvg := growTotal / n
			freshAvg := freshTotal / n
			speedup := 0.0
			if growAvg > 0 {
				speedup = float64(freshAvg) / float64(growAvg)
			}
			drcSaved := float64(freshDRC-growDRC) / float64(len(queries))
			t.Add(ds.Name, kind, ms(oneShot.Total), ms(growAvg), ms(freshAvg),
				f2(speedup), f2(drcSaved))
		}
	}
	t.Note("grow ms is the marginal cost of extending an open cursor from k=%d to k'=%d; fresh ms re-runs the query at k'. DRC saved is fresh-requery DRC calls minus the grown cursor's lifetime total (negative would mean growing repaid work — the resume-equivalence tests forbid that)", DefaultK, 2*DefaultK)
	t.Note("one-shot ms is the staged pipeline's end-to-end latency at k=%d on the standard workload — the monolith-replacement no-regression number", DefaultK)
	return t, nil
}
