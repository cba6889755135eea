package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
	"conceptrank/internal/store"
	"conceptrank/internal/ta"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: they quantify each engineering decision in
// isolation.

// AblationDedup compares BFS visit deduplication on (our default) and off
// (the paper's description: "labeling a visited node is more expensive").
func AblationDedup(env *Env) (*Table, error) {
	t := &Table{
		ID:     "abl-dedup",
		Title:  "BFS visit dedup on/off (RDS, defaults)",
		Header: []string{"dataset", "dedup ms", "no-dedup ms", "dedup nodes", "no-dedup nodes"},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(29))
		queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
		withDedup, err := runWorkloadNodes(ds, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			return nil, err
		}
		noDedup, err := runWorkloadNodes(ds, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps, NoDedup: true})
		if err != nil {
			return nil, err
		}
		t.Add(ds.Name, ms(withDedup.avg), ms(noDedup.avg), f2(withDedup.nodes), f2(noDedup.nodes))
	}
	return t, nil
}

type nodesResult struct {
	avg   time.Duration
	nodes float64
}

func runWorkloadNodes(ds *Dataset, queries [][]ontology.ConceptID, opts core.Options) (nodesResult, error) {
	var total time.Duration
	var nodes float64
	for _, q := range queries {
		_, m, err := ds.Engine.RDS(q, opts)
		if err != nil {
			return nodesResult{}, err
		}
		total += m.TotalTime
		nodes += float64(m.NodesVisited)
	}
	return nodesResult{avg: total / time.Duration(len(queries)), nodes: nodes / float64(len(queries))}, nil
}

// AblationQueueLimit sweeps the BFS queue limit.
func AblationQueueLimit(env *Env) (*Table, error) {
	t := &Table{
		ID:     "abl-queue",
		Title:  "Queue limit sweep (RDS, RADIO): forced examinations vs time",
		Header: []string{"limit", "total ms", "forced exams", "examined"},
	}
	ds := env.Radio
	r := rand.New(rand.NewSource(31))
	queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
	for _, limit := range []int{100, 1000, 10_000, 50_000, -1} {
		var total time.Duration
		var forced, examined float64
		for _, q := range queries {
			_, m, err := ds.Engine.RDS(q, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps, QueueLimit: limit})
			if err != nil {
				return nil, err
			}
			total += m.TotalTime
			forced += float64(m.ForcedExams)
			examined += float64(m.DocsExamined)
		}
		n := float64(len(queries))
		label := itoa(limit)
		if limit < 0 {
			label = "unlimited"
		}
		t.Add(label, ms(total/time.Duration(len(queries))), f2(forced/n), f2(examined/n))
	}
	return t, nil
}

// AblationSkipCovered toggles optimization 3 (reuse accumulated distances
// instead of probing DRC when all query nodes are covered).
func AblationSkipCovered(env *Env) (*Table, error) {
	t := &Table{
		ID:     "abl-skip",
		Title:  "Optimization 3 (skip DRC when fully covered) on/off (RDS, ε_θ=0)",
		Header: []string{"dataset", "opt on ms", "opt off ms", "opt on DRC calls", "opt off DRC calls"},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(37))
		queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
		on, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: 0})
		if err != nil {
			return nil, err
		}
		off, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: 0, NoSkipWhenCovered: true})
		if err != nil {
			return nil, err
		}
		t.Add(ds.Name, ms(on.Total), ms(off.Total), f2(on.DRCCalls), f2(off.DRCCalls))
	}
	return t, nil
}

// AblationStore compares in-memory indexes against the disk-backed store
// (the paper's MySQL I/O component).
func AblationStore(env *Env) (*Table, error) {
	t := &Table{
		ID:     "abl-store",
		Title:  "Index backend: memory vs disk store (RDS, defaults) — I/O share of total time",
		Header: []string{"dataset", "mem ms", "disk ms", "disk io ms", "io reads/query"},
	}
	dir, err := os.MkdirTemp("", "crbench-store")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, ds := range env.Datasets() {
		invPath := filepath.Join(dir, ds.Name+".inv")
		fwdPath := filepath.Join(dir, ds.Name+".fwd")
		if err := store.BuildInvertedFile(invPath, ds.Coll); err != nil {
			return nil, err
		}
		if err := store.BuildForwardFile(fwdPath, ds.Coll); err != nil {
			return nil, err
		}
		var ioStats store.IOStats
		dinv, err := store.OpenInverted(invPath, &ioStats, 256)
		if err != nil {
			return nil, err
		}
		dfwd, err := store.OpenForward(fwdPath, &ioStats, 256)
		if err != nil {
			return nil, err
		}
		diskEngine := core.NewEngine(env.O, dinv, dfwd, ds.Coll.NumDocs(), &ioStats)

		r := rand.New(rand.NewSource(41))
		queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
		mem, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			return nil, err
		}
		readsBefore := ioStats.Reads.Load()
		disk, err := runWorkload(diskEngine, false, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			return nil, err
		}
		readsPerQuery := float64(ioStats.Reads.Load()-readsBefore) / float64(len(queries))
		t.Add(ds.Name, ms(mem.Total), ms(disk.Total), ms(disk.IO), f2(readsPerQuery))
		dinv.Close()
		dfwd.Close()
	}
	return t, nil
}

// TAExperiment compares the Threshold Algorithm baseline against kNDS for
// RDS, reporting TA's precomputation cost separately (the paper's Section
// 4.1 argument: the index is enormous offline work and useless for SDS).
func TAExperiment(env *Env) (*Table, error) {
	t := &Table{
		ID:     "ta",
		Title:  "Threshold Algorithm vs kNDS (RDS, defaults); TA needs offline per-concept distance postings",
		Header: []string{"dataset", "TA build ms/query-concepts", "TA query ms", "kNDS ms"},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(43))
		nQueries := env.Scale.RankQueries
		if nQueries > 10 {
			nQueries = 10 // TA build cost is per-concept; keep the experiment bounded
		}
		queries := ds.RandomQueries(r, nQueries, DefaultNq)
		fwd := index.BuildMemForward(ds.Coll)
		var buildTotal, queryTotal time.Duration
		for _, q := range queries {
			ix, err := ta.Build(env.O, ds.Coll, fwd, q)
			if err != nil {
				return nil, err
			}
			buildTotal += ix.BuildTime
			_, stats, err := ix.TopK(q, DefaultK)
			if err != nil {
				return nil, err
			}
			queryTotal += stats.QueryTime
		}
		knds, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			return nil, err
		}
		n := time.Duration(len(queries))
		t.Add(ds.Name, ms(buildTotal/n), ms(queryTotal/n), ms(knds.Total))
	}
	t.Note("TA build cost shown per query's %d concepts; the paper's offline variant would pay it for all |C| concepts and re-pay on every corpus update", DefaultNq)
	return t, nil
}

// All runs every experiment at the given scale.
func All(env *Env) ([]*Table, error) {
	var out []*Table
	out = append(out, Table3(env), OntoStats(env))
	out = append(out, Fig6(env)...)
	f7, err := Fig7(env)
	if err != nil {
		return nil, err
	}
	out = append(out, f7...)
	f8, err := Fig8(env)
	if err != nil {
		return nil, err
	}
	out = append(out, f8...)
	f9, err := Fig9(env)
	if err != nil {
		return nil, err
	}
	out = append(out, f9...)
	ex, err := Examined(env)
	if err != nil {
		return nil, err
	}
	out = append(out, ex)
	for _, fn := range []func(*Env) (*Table, error){AblationDedup, AblationQueueLimit, AblationSkipCovered, AblationStore, TAExperiment, ParallelSpeedup, ParallelIntraQuery, ShardSweep, TelemetryOverhead, CursorResume, PairJoin, MeasureSweep} {
		tbl, err := fn(env)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	mt, err := MemStats(env)
	if err != nil {
		return nil, err
	}
	out = append(out, mt...)
	ct, err := CacheSweep(env)
	if err != nil {
		return nil, err
	}
	out = append(out, ct...)
	cl, err := ClusterServing(env)
	if err != nil {
		return nil, err
	}
	return append(out, cl...), nil
}

// Experiment names accepted by Run.
var experimentNames = []string{
	"table3", "ontostats", "fig6", "fig7", "fig8", "fig9", "examined",
	"dedup", "queue", "skip", "store", "ta", "parallel", "shard",
	"telemetry", "cursor", "cache", "pairs", "measures", "memstats",
	"cluster", "all",
}

// Names lists the runnable experiment identifiers.
func Names() []string { return experimentNames }

// Run executes one named experiment (or "all").
func Run(env *Env, name string) ([]*Table, error) {
	switch name {
	case "table3":
		return []*Table{Table3(env)}, nil
	case "ontostats":
		return []*Table{OntoStats(env)}, nil
	case "fig6":
		return Fig6(env), nil
	case "fig7":
		return Fig7(env)
	case "fig8":
		return Fig8(env)
	case "fig9":
		return Fig9(env)
	case "examined":
		t, err := Examined(env)
		return []*Table{t}, err
	case "dedup":
		t, err := AblationDedup(env)
		return []*Table{t}, err
	case "queue":
		t, err := AblationQueueLimit(env)
		return []*Table{t}, err
	case "skip":
		t, err := AblationSkipCovered(env)
		return []*Table{t}, err
	case "store":
		t, err := AblationStore(env)
		return []*Table{t}, err
	case "ta":
		t, err := TAExperiment(env)
		return []*Table{t}, err
	case "parallel":
		inter, err := ParallelSpeedup(env)
		if err != nil {
			return nil, err
		}
		intra, err := ParallelIntraQuery(env)
		if err != nil {
			return nil, err
		}
		return []*Table{inter, intra}, nil
	case "shard":
		t, err := ShardSweep(env)
		return []*Table{t}, err
	case "telemetry":
		t, err := TelemetryOverhead(env)
		return []*Table{t}, err
	case "cursor":
		t, err := CursorResume(env)
		return []*Table{t}, err
	case "cache":
		return CacheSweep(env)
	case "pairs":
		t, err := PairJoin(env)
		return []*Table{t}, err
	case "measures":
		t, err := MeasureSweep(env)
		return []*Table{t}, err
	case "memstats":
		return MemStats(env)
	case "cluster":
		return ClusterServing(env)
	case "all", "":
		return All(env)
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", name, experimentNames)
}
