package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontology"
)

// layerInput is what the per-layer metrics are computed from: the traced
// ops' spans plus the counters the layers already expose.
type layerInput struct {
	spans    []Span
	overhead float64
	replay   drcReplay
	hasCache bool
	cache0   cache.Stats
	cache1   cache.Stats
	queries  int // RDS and SDS ops in the window, traced or not
	ops      int // all ops in the window
	rt0, rt1 runtimeSample
	decodeUS float64
	retries  int64
}

// stageNames lists the core stages in Metrics.Stages order.
func stageNames() []string {
	out := make([]string, core.NumStages)
	for i := range out {
		out[i] = core.Stage(i).String()
	}
	return out
}

// coreCounts are the core.query attributes reported per query.
var coreCounts = []struct{ metric, attr string }{
	{"waves_per_q", "waves"},
	{"docs_discovered_per_q", "docs_discovered"},
	{"docs_examined_per_q", "docs_examined"},
	{"drc_calls_per_q", "drc_calls"},
	{"speculative_drc_per_q", "speculative_drc"},
	{"forced_exams_per_q", "forced_exams"},
}

// layerMetrics computes every per-layer metric. Layers that do not run on
// a workload report 0.
func layerMetrics(in layerInput) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, unit}
	}
	self := selfTimes(in.spans)
	rootOf := map[int64]*Span{} // op → root span
	for i := range in.spans {
		s := &in.spans[i]
		if s.Parent == 0 {
			rootOf[s.Op] = s
		}
	}
	kindOf := func(s *Span) string {
		if r := rootOf[s.Op]; r != nil && isQueryRoot(r.Name) {
			return opSuffix(r.Name)
		}
		return ""
	}

	// Per op: core time, unattributed core time, and the union of the
	// named work (stages, RPCs) for the stage-coverage check.
	type opAcc struct {
		coreNS, gapNS int64
		covered       [][2]int64
	}
	perOp := map[int64]*opAcc{}
	acc := func(op int64) *opAcc {
		a := perOp[op]
		if a == nil {
			a = &opAcc{}
			perOp[op] = a
		}
		return a
	}
	nq := map[string]float64{}
	for _, r := range rootOf {
		if isQueryRoot(r.Name) {
			nq[opSuffix(r.Name)]++
		}
	}
	sum := map[string]float64{} // metric name (without kind suffix) + "." + kind
	var nodes, rpcs, steps, clientNS, serverNS, reqB, respB float64
	var wall, critical, meanShard, cancelled, fanouts float64
	for i := range in.spans {
		s := &in.spans[i]
		kind := kindOf(s)
		if kind == "" {
			continue
		}
		switch {
		case strings.HasPrefix(s.Name, "stage."):
			sum["core."+strings.TrimPrefix(s.Name, "stage.")+"_ms."+kind] += float64(self[s.ID]) / 1e6
			a := acc(s.Op)
			a.covered = append(a.covered, [2]int64{s.Start, s.End})
		case s.Name == "core.query":
			sum["core.stage_gap_ms."+kind] += float64(self[s.ID]) / 1e6
			for _, c := range coreCounts {
				sum["core."+c.metric+"."+kind] += s.Attrs[c.attr]
			}
			sum["results."+kind] += s.Attrs["results"]
			nodes += s.Attrs["nodes_visited"]
			a := acc(s.Op)
			a.coreNS += s.dur()
			a.gapNS += self[s.ID]
		case strings.HasPrefix(s.Name, "rpc."):
			rpcs++
			if s.Name == "rpc.step" {
				steps++
			}
			clientNS += float64(s.dur())
			reqB += s.Attrs["req_bytes"]
			respB += s.Attrs["resp_bytes"]
			a := acc(s.Op)
			a.covered = append(a.covered, [2]int64{s.Start, s.End})
		case strings.HasPrefix(s.Name, "node."):
			serverNS += float64(s.dur())
		}
		if w, ok := s.Attrs["shard.wall_ns"]; ok {
			fanouts++
			wall += w
			critical += s.Attrs["shard.critical_ns"]
			meanShard += s.Attrs["shard.mean_ns"]
			cancelled += s.Attrs["shard.cancelled"]
		}
	}

	for _, kind := range []string{"rds", "sds"} {
		n := nq[kind]
		for _, st := range stageNames() {
			name := "core." + st + "_ms"
			put(name+"."+kind, sum[name+"."+kind]/n, "ms")
		}
		put("core.stage_gap_ms."+kind, sum["core.stage_gap_ms."+kind]/n, "ms")
		for _, c := range coreCounts {
			put("core."+c.metric+"."+kind, sum["core."+c.metric+"."+kind]/n, "count")
		}
		put("core.exam_precision."+kind, sum["results."+kind]/sum["core.docs_examined_per_q."+kind], "frac")
	}
	queries := nq["rds"] + nq["sds"]
	put("ontology.nodes_visited_per_q", nodes/queries, "count")

	put("drc.docquery_us", in.replay.docQueryUS, "us")
	put("drc.docdoc_us", in.replay.docDocUS, "us")
	put("drc.replay_ms_per_q", in.replay.msPerQuery, "ms")

	if in.hasCache {
		d := func(a, b int64) float64 { return float64(b - a) }
		hits, misses := d(in.cache0.SeedHits, in.cache1.SeedHits), d(in.cache0.SeedMisses, in.cache1.SeedMisses)
		phits, pmisses := d(in.cache0.PairHits, in.cache1.PairHits), d(in.cache0.PairMisses, in.cache1.PairMisses)
		q := float64(in.queries)
		put("cache.seed_hit_ratio", hits/(hits+misses), "frac")
		put("cache.seed_misses_per_q", misses/q, "count")
		put("cache.seed_refreshes_per_q", d(in.cache0.SeedRefreshes, in.cache1.SeedRefreshes)/q, "count")
		put("cache.pair_hit_ratio", phits/(phits+pmisses), "frac")
		put("cache.evictions_per_q", d(in.cache0.Evictions, in.cache1.Evictions)/q, "count")
		put("cache.bytes_mb", float64(in.cache1.Bytes)/(1<<20), "MB")
	} else {
		for _, m := range []struct{ name, unit string }{
			{"seed_hit_ratio", "frac"}, {"seed_misses_per_q", "count"}, {"seed_refreshes_per_q", "count"},
			{"pair_hit_ratio", "frac"}, {"evictions_per_q", "count"}, {"bytes_mb", "MB"},
		} {
			put("cache."+m.name, 0, m.unit)
		}
	}

	put("shard.critical_ms", critical/fanouts/1e6, "ms")
	put("shard.fanout_overhead_ms", (wall-critical)/fanouts/1e6, "ms")
	put("shard.skew", critical/meanShard, "ratio")
	put("shard.cancelled_per_q", cancelled/fanouts, "count")

	put("cluster.rpcs_per_q", rpcs/queries, "count")
	put("cluster.steps_per_q", steps/queries, "count")
	put("cluster.rpc_client_ms_per_q", clientNS/queries/1e6, "ms")
	put("cluster.rpc_server_ms_per_q", serverNS/queries/1e6, "ms")
	put("cluster.rpc_wire_ms_per_q", (clientNS-serverNS)/queries/1e6, "ms")
	put("cluster.req_kb_per_q", reqB/queries/1024, "KB")
	put("cluster.resp_kb_per_q", respB/queries/1024, "KB")
	put("cluster.decode_us_per_rpc", in.decodeUS, "us")
	put("cluster.retries_per_q", float64(in.retries)/float64(in.queries), "count")

	put("runtime.gc_cycles_per_kop", (in.rt1.gcCycles-in.rt0.gcCycles)/float64(in.ops)*1000, "count")
	put("runtime.gc_cpu_frac", (in.rt1.gcCPU-in.rt0.gcCPU)/(in.rt1.totalCPU-in.rt0.totalCPU), "frac")

	// Stage reconciliation: the share of each query op's wall time that
	// named work covers, and the ops whose unattributed core time exceeds
	// gapTolerance of their core time.
	var cover []float64
	flagged := 0
	for op, r := range rootOf {
		if !isQueryRoot(r.Name) || r.dur() <= 0 {
			continue
		}
		a := perOp[op]
		if a == nil {
			cover = append(cover, 0)
			continue
		}
		cover = append(cover, float64(unionLen(a.covered))/float64(r.dur()))
		flag := gapFlagged(a.gapNS, a.coreNS)
		flagged += b2i(flag)
		r.Attrs["stage_coverage"] = cover[len(cover)-1]
		r.Attrs["gap_flagged"] = float64(b2i(flag))
	}
	put("bench.stage_coverage", quantile(cover, 0.5), "frac")
	put("bench.stage_gap_flagged_frac", float64(flagged)/float64(len(cover)), "frac")
	put("bench.trace_overhead_frac", in.overhead, "frac")
	return out
}

// gapFlagged applies the stage-gap tolerance to one op.
func gapFlagged(gapNS, coreNS int64) bool {
	return gapNS > int64(gapFloor) && float64(gapNS) > gapTolerance*float64(coreNS)
}

// drcReplay is the DRC layer measured in isolation: the traced run's DRC
// probe inputs replayed through drc.Prepare(...).DocQuery/DocDoc on one
// goroutine.
type drcReplay struct {
	docQueryUS, docDocUS, msPerQuery float64
}

// replayDRC replays the probes of up to maxOps traced queries, through a
// Dewey address cache warmed by an untimed first pass, as the engine's
// own address cache is warm. A replayed distance that differs from the
// traced one is reported on stderr.
func replayDRC(o *ontology.Ontology, ops []*opTracer, lookup func(int, corpus.DocID) []ontology.ConceptID, maxOps int) drcReplay {
	addrs := drc.NewAddressCache(o, 0, 0)
	replayPass(o, ops, lookup, maxOps, addrs)
	return replayPass(o, ops, lookup, maxOps, addrs)
}

func replayPass(o *ontology.Ontology, ops []*opTracer, lookup func(int, corpus.DocID) []ontology.ConceptID, maxOps int, addrs *drc.AddressCache) drcReplay {
	var dq, dd, total time.Duration
	var ndq, ndd, nq, mismatches int
	for _, t := range ops {
		if nq == maxOps {
			break
		}
		if t.kind == opAppend || len(t.probes) == 0 {
			continue
		}
		docs := make([][]ontology.ConceptID, len(t.probes))
		for i, p := range t.probes {
			docs[i] = lookup(p.shard, p.doc)
		}
		if docs[0] == nil {
			continue // the workload cannot resolve probe documents
		}
		nq++
		start := time.Now()
		prep := drc.PrepareCached(o, t.query, 0, addrs)
		for i, p := range t.probes {
			t0 := time.Now()
			var d float64
			var err error
			if t.kind == opSDS {
				d, err = prep.DocDoc(docs[i])
				dd += time.Since(t0)
				ndd++
			} else {
				d, err = prep.DocQuery(docs[i])
				dq += time.Since(t0)
				ndq++
			}
			if err != nil || math.Float64bits(d) != math.Float64bits(p.value) {
				mismatches++
			}
		}
		total += time.Since(start)
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d replayed DRC probes differ from the traced distance\n", mismatches)
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / 1e3
	}
	return drcReplay{docQueryUS: per(dq, ndq), docDocUS: per(dd, ndd), msPerQuery: per(total, nq) / 1e3}
}
