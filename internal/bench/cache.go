package bench

import (
	"fmt"
	"math/rand"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

// CacheSweep measures the semantic-distance cache on a Zipf-skewed RDS
// stream — the access pattern caching is for: a few concepts dominate the
// workload, so their Ddc seed vectors are reused across queries. Two
// tables come out:
//
//   - "cache": byte-budget sweep (off / 64 KiB / 1 MiB / 64 MiB) reporting
//     the seed hit rate, end-to-end p50 latency, plan-stage (traversal)
//     p50 and its speedup over the uncached engine, and evictions. Every
//     cached query is verified bitwise identical to the uncached answer.
//   - "cache-grow": generation invalidation on a growing corpus — the
//     stream runs warm, the corpus grows ~5%, and the stream runs again;
//     stale vectors must be served as hits through incremental refresh,
//     with rankings verified against a cold engine over the grown corpus.
func CacheSweep(env *Env) ([]*Table, error) {
	sweep := &Table{
		ID:     "cache",
		Title:  "Distance cache: Zipf query stream, byte-budget sweep (RDS, defaults)",
		Header: []string{"dataset", "cache", "hit rate", "p50 ms", "trav p50 ms", "trav speedup", "evictions"},
	}
	budgets := []struct {
		name  string
		bytes int64
	}{
		{"off", 0},
		{"64 KiB", 64 << 10},
		{"1 MiB", 1 << 20},
		{"64 MiB", 64 << 20},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(77))
		queries := zipfQueries(r, ds.Eligible, 4*env.Scale.RankQueries, DefaultNq)
		opts := core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps}

		// Reference pass: uncached answers, also the warm-up.
		ref := make([][]core.Result, len(queries))
		for i, q := range queries {
			res, _, err := ds.Engine.RDS(q, opts)
			if err != nil {
				return nil, err
			}
			ref[i] = res
		}

		var baseTrav time.Duration
		for _, b := range budgets {
			var cc *cache.Cache
			if b.bytes > 0 {
				cc = cache.New(cache.Config{MaxBytes: b.bytes})
			}
			copts := opts
			copts.Cache = cc
			// Best-of-cacheReps per query; for cached configs the first
			// rep of each query populates the cache, so the kept latency
			// reflects the steady state the sweep is about.
			lat := make([]time.Duration, len(queries))
			trav := make([]time.Duration, len(queries))
			for i := range lat {
				lat[i] = time.Duration(1<<63 - 1)
				trav[i] = lat[i]
			}
			for rep := 0; rep < cacheReps; rep++ {
				for i, q := range queries {
					start := time.Now()
					res, m, err := ds.Engine.RDS(q, copts)
					if err != nil {
						return nil, err
					}
					if d := time.Since(start); d < lat[i] {
						lat[i] = d
					}
					if m.TraversalTime < trav[i] {
						trav[i] = m.TraversalTime
					}
					if err := sameResults(ref[i], res); err != nil {
						return nil, fmt.Errorf("bench: cache %s, %s query %d: %w", b.name, ds.Name, i, err)
					}
				}
			}
			travP50 := quantileDur(trav, 0.50)
			hitRate, evictions := "—", "—"
			speedup := "—"
			if cc == nil {
				baseTrav = travP50
			} else {
				st := cc.Stats()
				hitRate = fmt.Sprintf("%.0f%%", 100*float64(st.SeedHits)/float64(st.SeedHits+st.SeedMisses))
				evictions = fmt.Sprintf("%d", st.Evictions)
				if travP50 > 0 {
					speedup = fmt.Sprintf("%.1fx", float64(baseTrav)/float64(travP50))
				}
			}
			sweep.Add(ds.Name, b.name, hitRate, ms(quantileDur(lat, 0.50)), ms(travP50), speedup, evictions)
		}
	}
	sweep.Note("every cached query verified bitwise identical to the uncached answer (%d queries x %d reps per config)", 4*env.Scale.RankQueries, cacheReps)

	grow, err := cacheGrow(env)
	if err != nil {
		return nil, err
	}
	return []*Table{sweep, grow}, nil
}

// cacheReps: best-of runs per (query, budget) pair.
const cacheReps = 3

// cacheGrow measures generation invalidation: a warm cache must survive
// corpus growth through incremental refresh (stale entries count as hits
// and only the new documents are recomputed), with rankings identical to
// a cold engine over the grown collection.
func cacheGrow(env *Env) (*Table, error) {
	t := &Table{
		ID:     "cache-grow",
		Title:  "Cache invalidation: corpus growth with incremental seed refresh",
		Header: []string{"dataset", "phase", "hit rate", "refreshes", "p50 ms", "identical"},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(78))
		queries := zipfQueries(r, ds.Eligible, 2*env.Scale.RankQueries, DefaultNq)
		opts := core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps}

		// Growable engine over the dataset plus a mirror collection for
		// the cold-reference engine after growth.
		dyn := index.FromCollection(ds.Coll)
		eng := core.NewEngineDynamic(env.O, dyn, dyn, dyn.NumDocs, nil)
		mirror := corpus.New()
		for _, d := range ds.Coll.Docs() {
			mirror.Add(d.Name, d.TokenCount, d.Concepts)
		}

		cc := cache.New(cache.Config{})
		copts := opts
		copts.Cache = cc

		runPhase := func(phase string, verify *core.Engine) error {
			before := cc.Stats()
			lat := make([]time.Duration, len(queries))
			identical := true
			for i, q := range queries {
				start := time.Now()
				res, _, err := eng.RDS(q, copts)
				if err != nil {
					return err
				}
				lat[i] = time.Since(start)
				if verify != nil {
					want, _, err := verify.RDS(q, opts)
					if err != nil {
						return err
					}
					if sameResults(want, res) != nil {
						identical = false
					}
				}
			}
			after := cc.Stats()
			hits := after.SeedHits - before.SeedHits
			misses := after.SeedMisses - before.SeedMisses
			ident := "—"
			if verify != nil {
				ident = "yes"
				if !identical {
					ident = "NO"
				}
			}
			t.Add(ds.Name, phase,
				fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(hits+misses)),
				fmt.Sprintf("%d", after.SeedRefreshes-before.SeedRefreshes),
				ms(quantileDur(lat, 0.50)), ident)
			return nil
		}

		if err := runPhase("cold", nil); err != nil {
			return nil, err
		}
		if err := runPhase("warm", nil); err != nil {
			return nil, err
		}
		growBy := ds.Coll.NumDocs() / 20
		if growBy < 10 {
			growBy = 10
		}
		for i := 0; i < growBy; i++ {
			n := 1 + r.Intn(2*DefaultNq)
			concepts := make([]ontology.ConceptID, n)
			for j := range concepts {
				concepts[j] = ds.Eligible[r.Intn(len(ds.Eligible))]
			}
			dyn.AddDocument("grown", concepts)
			mirror.Add("grown", 0, concepts)
		}
		cold := core.NewEngine(env.O, index.BuildMemInverted(mirror), index.BuildMemForward(mirror), mirror.NumDocs(), nil)
		if err := runPhase(fmt.Sprintf("post-add (+%d docs)", growBy), cold); err != nil {
			return nil, err
		}
	}
	t.Note("post-add rankings verified against a cold engine over the grown collection; stale vectors are served as hits (refreshed incrementally), never rebuilt")
	return t, nil
}

// zipfQueries draws n queries of up to nq distinct concepts each from the
// eligible vocabulary under a Zipf(1.3) popularity law — the skew that
// makes a concept cache worth having.
func zipfQueries(r *rand.Rand, eligible []ontology.ConceptID, n, nq int) [][]ontology.ConceptID {
	z := rand.NewZipf(r, 1.3, 1, uint64(len(eligible)-1))
	out := make([][]ontology.ConceptID, n)
	for i := range out {
		q := make([]ontology.ConceptID, 0, nq)
		seen := map[ontology.ConceptID]bool{}
		for attempts := 0; len(q) < nq && attempts < 20*nq; attempts++ {
			c := eligible[z.Uint64()]
			if !seen[c] {
				seen[c] = true
				q = append(q, c)
			}
		}
		out[i] = q
	}
	return out
}

// sameResults reports whether two rankings are bitwise identical.
func sameResults(want, got []core.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
