package bench

import (
	"fmt"
	"math/rand"

	"conceptrank/internal/core"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// Measure comparison (beyond the paper; ROADMAP "pluggable semantic
// distance measures"): the same kNDS pipeline ranked under each built-in
// DistanceMeasure on both collections. Two questions the table answers:
//
//   - how much do the alternative measures actually change the ranking?
//     (overlap@k against the Rada default — 1.00 means the top-k sets
//     coincide, lower means the measure genuinely reorders relevance);
//   - what do they cost? (ms and examined documents per query through
//     the generic measure pipeline, with the Rada measure routed through
//     that same generic path as the overhead control: rada* vs the
//     nil-measure fast path isolates the cost of pluggability itself,
//     since both return bit-identical rankings.)

// MeasureSweep ranks the shared RDS workload under every built-in measure
// and reports per-query cost plus top-k overlap against the Rada default.
func MeasureSweep(env *Env) (*Table, error) {
	t := &Table{
		ID:    "measures",
		Title: fmt.Sprintf("Pluggable distance measures: ranking overlap vs Rada and per-query cost (kNDS, k=%d)", DefaultK),
		Header: []string{"dataset", "measure", "ms/q", "examined/q", "DRC calls/q",
			fmt.Sprintf("overlap@%d vs rada", DefaultK)},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(41))
		queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
		opts := core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps}

		// Reference rankings: the nil-measure DRC fast path.
		ref := make([]map[string]bool, len(queries))
		for i, q := range queries {
			res, _, err := ds.Engine.RDS(q, opts)
			if err != nil {
				return nil, err
			}
			ref[i] = docSet(res)
		}
		refM, err := runWorkload(ds.Engine, false, queries, opts)
		if err != nil {
			return nil, err
		}
		t.Add(ds.Name, "rada (fast path)", ms(refM.Total), f2(refM.Examined), f2(refM.DRCCalls), "1.00")

		tiers := []struct {
			name string
			m    measure.Measure
		}{
			{"rada* (generic)", measure.Rada()},
			{"density", measure.NewDensity(env.O)},
			{"enhanced", measure.NewEnhanced(env.O)},
		}
		for _, tier := range tiers {
			mOpts := opts
			mOpts.Measure = tier.m
			overlap, err := meanOverlap(ds, queries, mOpts, ref)
			if err != nil {
				return nil, err
			}
			agg, err := runWorkload(ds.Engine, false, queries, mOpts)
			if err != nil {
				return nil, err
			}
			t.Add(ds.Name, tier.name, ms(agg.Total), f2(agg.Examined), f2(agg.DRCCalls), f2(overlap))
		}
	}
	t.Note("rada* routes the identical distance through the generic measure pipeline: its overlap is 1.00 by construction (bit-identical rankings, pinned by the equivalence grids) and its cost column is the price of pluggability")
	return t, nil
}

// docSet collects a ranking's document IDs.
func docSet(res []core.Result) map[string]bool {
	s := make(map[string]bool, len(res))
	for _, r := range res {
		s[fmt.Sprint(r.Doc)] = true
	}
	return s
}

// meanOverlap runs every query under opts and averages |topk ∩ ref| / k.
func meanOverlap(ds *Dataset, queries [][]ontology.ConceptID, opts core.Options, ref []map[string]bool) (float64, error) {
	total := 0.0
	for i, q := range queries {
		res, _, err := ds.Engine.RDS(q, opts)
		if err != nil {
			return 0, err
		}
		inter := 0
		for _, r := range res {
			if ref[i][fmt.Sprint(r.Doc)] {
				inter++
			}
		}
		denom := len(ref[i])
		if denom == 0 {
			continue
		}
		total += float64(inter) / float64(denom)
	}
	return total / float64(len(queries)), nil
}
