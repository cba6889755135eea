package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
}

// system is one workload's system under test.
type system interface {
	// warm brings the system to the state the timed window measures and
	// returns the number of operations it ran.
	warm() (int, error)
	// stream is the pre-generated timed op stream.
	stream() []op
	// exec runs op i, filling r's answer and latencies; t is non-nil
	// when the op is traced.
	exec(ctx context.Context, i int, r *opRecord, t *opTracer) error
	// verify checks every completed op flagged for verification against
	// the workload's independent reference, setting opRecord.wrong.
	verify(recs []opRecord) error
	// caches lists the semantic-distance caches the system queries with.
	caches() []*cache.Cache
	// probeDoc resolves a traced DRC probe's document to its concepts;
	// valid after verify.
	probeDoc(shard int, doc corpus.DocID) []ontology.ConceptID
	onto() *ontology.Ontology
	// finishTrace adds spans that need post-run decoding and returns the
	// mean replayed response-decode time per RPC (µs) and the retry count
	// of the timed window.
	finishTrace(rec *recorder) (decodeUS float64, retries int64)
	close()
}

// workloadSpec says how to build a workload's system and drive it.
type workloadSpec struct {
	clients int
	// maxRate bounds the ops per second the stream is generated for; a
	// run that exhausts the stream ends early.
	maxRate int
	setup   func(seed int64, n int, rec *recorder) (system, error)
}

var workloads = map[string]workloadSpec{
	"patient-cold":      {clients: 1, maxRate: 1000, setup: setupPatient},
	"radio-zipf-append": {clients: 1, maxRate: 100, setup: setupZipfAppend},
	"radio-cluster":     {clients: 2, maxRate: 2000, setup: setupCluster},
}

const (
	// setupReps: each run sets the system up this many times and reports
	// the median set-up time; the last system built is measured.
	setupReps = 3
	// traceBlock: the traced run alternates blocks of this many untraced
	// and traced ops, so both see the same system state and their cost
	// ratio is the tracing overhead.
	traceBlock = 8
	// An op is flagged when its unattributed core time (TotalTime minus
	// the sum of its stages) exceeds both gapTolerance of its core time
	// and gapFloor.
	gapTolerance = 0.05
	gapFloor     = 50 * time.Microsecond
	// maxReplayOps bounds the traced queries whose DRC probes are
	// replayed.
	maxReplayOps = 60
)

// opRecord is one executed op. Each record is written by the client that
// took the op and read only after every client has stopped.
type opRecord struct {
	done    bool
	traced  bool
	err     error
	total   time.Duration // whole op, including cursor close
	lat     time.Duration // call or cursor open to top-k or first page
	pageLat time.Duration // GrowK follow-up page
	results []core.Result
	page    []core.Result
	doc     corpus.DocID // appended document's ID
	wrong   bool         // set by verify
}

// runtimeSample reads the process counters the metrics are deltas of.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

func cacheTotals(cs []*cache.Cache) cache.Stats {
	var t cache.Stats
	for _, c := range cs {
		s := c.Stats()
		t.SeedHits += s.SeedHits
		t.SeedMisses += s.SeedMisses
		t.SeedRefreshes += s.SeedRefreshes
		t.PairHits += s.PairHits
		t.PairMisses += s.PairMisses
		t.Evictions += s.Evictions
		t.Bytes += s.Bytes
	}
	return t
}

// execute sets the workload up, warms it, runs the timed window, checks
// every answer and computes the run's metrics.
func execute(spec workloadSpec, cfg runConfig) (*result, error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	n := spec.maxRate * cfg.seconds
	var sys system
	setups := make([]float64, setupReps)
	for i := range setups {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, err := spec.setup(cfg.seed, n, rec)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		setups[i] = time.Since(t0).Seconds()
		sys = s
	}
	defer sys.close()
	warmStart := time.Now()
	warmOps, err := sys.warm()
	if err != nil {
		return nil, fmt.Errorf("warm up %s: %w", cfg.workload, err)
	}
	warmS := time.Since(warmStart).Seconds()
	if rec != nil {
		rec.reset()
	}

	ops := sys.stream()
	recs := make([]opRecord, len(ops))
	c0, rt0 := cacheTotals(sys.caches()), readRuntime()
	ctx := context.Background()
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				r := &recs[i]
				r.traced = rec != nil && (i/traceBlock)%2 == 0
				var t *opTracer
				if r.traced {
					t = rec.startOp(i, &ops[i])
				}
				t0 := time.Now()
				r.err = sys.exec(ctx, i, r, t)
				end := time.Now()
				r.total = end.Sub(t0)
				r.done = true
				if t != nil {
					t.finish(end, r.err != nil)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rt1, c1 := readRuntime(), cacheTotals(sys.caches())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	done := 0
	for done < len(recs) && recs[done].done {
		done++
	}
	recs = recs[:done]
	if done == 0 {
		return nil, fmt.Errorf("%s completed no op in %ds", cfg.workload, cfg.seconds)
	}
	verifyStart := time.Now()
	if err := sys.verify(recs); err != nil {
		return nil, fmt.Errorf("verify %s: %w", cfg.workload, err)
	}
	failed, verified := countFailures(ops, recs)

	res := &result{
		Context:   newRunContext(cfg),
		Correct:   failed == 0,
		Attempted: done,
		Failed:    failed,
		Detail:    map[string]metric{},
	}
	lat := latencies(ops, recs)
	opsPerS := float64(done) / elapsed.Seconds()
	d := res.Detail
	d["failed_frac"] = metric{float64(failed) / float64(done), "frac"}
	d["verified_ops"] = metric{float64(verified), "count"}
	d["warmup_s"] = metric{warmS, "s"}
	d["warmup_ops"] = metric{float64(warmOps), "count"}
	d["verify_s"] = metric{time.Since(verifyStart).Seconds(), "s"}
	for _, k := range []string{"rds", "sds", "page", "append"} {
		if xs := lat[k]; len(xs) > 0 {
			d[k+"_ops"] = metric{float64(len(xs)), "count"}
			d[k+"_p50_ms"] = metric{quantile(xs, 0.50), "ms"}
			d[k+"_p90_ms"] = metric{quantile(xs, 0.90), "ms"}
			d[k+"_p95_ms"] = metric{quantile(xs, 0.95), "ms"}
		}
	}
	if len(lat["rds"]) == 0 {
		return nil, fmt.Errorf("%s completed no RDS op", cfg.workload)
	}
	for i, s := range setups {
		d[fmt.Sprintf("setup_%d_s", i)] = metric{s, "s"}
	}

	if !cfg.traced {
		res.Metrics = map[string]metric{
			"ops_per_s":       {opsPerS, "1/s"},
			"rds_p50_ms":      d["rds_p50_ms"],
			"rds_p90_ms":      d["rds_p90_ms"],
			"setup_s":         {quantile(setups, 0.5), "s"},
			"heap_mb":         {heapMB, "MB"},
			"alloc_kb_per_op": {(rt1.allocBytes - rt0.allocBytes) / float64(done) / 1024, "KB"},
		}
		return res, nil
	}

	decodeUS, retries := sys.finishTrace(rec)
	rec.mu.Lock()
	spans, tracers := rec.spans, rec.ops
	rec.mu.Unlock()
	queries := len(lat["rds"]) + len(lat["sds"])
	in := layerInput{
		spans:    spans,
		overhead: traceOverhead(ops, recs),
		replay:   replayDRC(sys.onto(), tracers, sys.probeDoc, maxReplayOps),
		hasCache: len(sys.caches()) > 0,
		cache0:   c0,
		cache1:   c1,
		queries:  queries,
		ops:      done,
		rt0:      rt0,
		rt1:      rt1,
		decodeUS: decodeUS,
		retries:  retries,
	}
	res.Metrics = layerMetrics(in)
	path := filepath.Join(outDir, cfg.workload, fmt.Sprintf("spans-seed%d.jsonl", cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans of %d traced ops written to %s\n", len(spans), len(tracers), path)
	return res, nil
}

// countFailures counts the ops that failed or answered wrongly, and the
// ops that were checked against the reference.
func countFailures(ops []op, recs []opRecord) (failed, verified int) {
	for i := range recs {
		if recs[i].err != nil || recs[i].wrong {
			failed++
		}
		if ops[i].verify {
			verified++
		}
	}
	return failed, verified
}

// latencies groups completed ops' latencies (ms) by op type; GrowK pages
// are their own type.
func latencies(ops []op, recs []opRecord) map[string][]float64 {
	out := map[string][]float64{}
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		k := ops[i].kind.String()
		out[k] = append(out[k], ms(r.lat))
		if ops[i].page {
			out["page"] = append(out["page"], ms(r.pageLat))
		}
	}
	return out
}

// traceOverhead compares traced with untraced op cost in the traced run:
// the per-kind mean op time ratio, weighted by each kind's share of ops.
// It equals the relative drop in ops_per_s that tracing every op causes.
func traceOverhead(ops []op, recs []opRecord) float64 {
	type acc struct {
		n  [2]int
		ns [2]float64
	}
	by := map[opKind]*acc{}
	total := 0
	for i := range recs {
		if recs[i].err != nil {
			continue
		}
		a := by[ops[i].kind]
		if a == nil {
			a = &acc{}
			by[ops[i].kind] = a
		}
		t := b2i(recs[i].traced)
		a.n[t]++
		a.ns[t] += float64(recs[i].total)
		total++
	}
	var traced, untraced float64
	for _, a := range by {
		if a.n[0] == 0 || a.n[1] == 0 {
			continue
		}
		w := float64(a.n[0]+a.n[1]) / float64(total)
		traced += w * a.ns[1] / float64(a.n[1])
		untraced += w * a.ns[0] / float64(a.n[0])
	}
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the q-quantile of xs with linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// sameResults reports whether two rankings are bitwise identical.
func sameResults(want, got []core.Result) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i].Doc != got[i].Doc || math.Float64bits(want[i].Distance) != math.Float64bits(got[i].Distance) {
			return false
		}
	}
	return true
}
