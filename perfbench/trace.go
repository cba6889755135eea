package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Span is one traced interval. Times are nanoseconds since the recorder
// started. Spans of one op share Op; Parent 0 marks the op's root span.
// Synthetic spans carry a measured duration but a placed start: stage
// times come from Metrics.Stages as per-query totals, so their spans are
// laid end to end from the start of the query they belong to.
type Span struct {
	ID        int64              `json:"id"`
	Parent    int64              `json:"parent"`
	Op        int64              `json:"op"`
	Name      string             `json:"name"`
	Start     int64              `json:"start_ns"`
	End       int64              `json:"end_ns"`
	Synthetic bool               `json:"synthetic,omitempty"`
	Attrs     map[string]float64 `json:"attrs,omitempty"`
}

func (s *Span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory. It is safe for
// concurrent use: clients and node handlers record at the same time.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span
	ops   []*opTracer
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) rel(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s Span) int64 {
	if s.ID == 0 {
		s.ID = r.nextID.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// reset drops everything recorded so far (warm-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans, r.ops = nil, nil
	r.mu.Unlock()
}

// probe is one exact-distance examination seen as a TraceDRCProbe event.
type probe struct {
	shard int
	doc   corpus.DocID
	value float64
}

// opTracer records the spans of one traced op. Trace hooks are invoked
// sequentially per query, so an opTracer needs no locking of its own.
type opTracer struct {
	rec    *recorder
	op     int64
	kind   opKind
	query  []ontology.ConceptID
	root   int64
	start  time.Time
	events []core.TraceEvent
	probes []probe
}

func (r *recorder) startOp(i int, o *op) *opTracer {
	t := &opTracer{rec: r, op: int64(i) + 1, kind: o.kind, query: o.concepts,
		root: r.nextID.Add(1), start: time.Now()}
	r.mu.Lock()
	r.ops = append(r.ops, t)
	r.mu.Unlock()
	return t
}

// finish records the op's root span.
func (t *opTracer) finish(end time.Time, failed bool) {
	attrs := map[string]float64{}
	if failed {
		attrs["error"] = 1
	}
	t.rec.add(Span{ID: t.root, Op: t.op, Name: "op." + t.kind.String(),
		Start: t.rec.rel(t.start), End: t.rec.rel(end), Attrs: attrs})
}

// hook is the Options.Trace function of the op's query.
func (t *opTracer) hook(ev core.TraceEvent) {
	switch ev.Kind {
	case core.TraceWaveStart, core.TraceWaveEnd:
		t.events = append(t.events, ev)
	case core.TraceDRCProbe:
		if ev.N == 1 { // DRC ran; N == 0 reused the covered partial sum
			t.probes = append(t.probes, probe{shard: ev.Shard, doc: ev.Doc, value: ev.Value})
		}
	}
}

func (t *opTracer) span(parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	return t.rec.add(Span{Parent: parent, Op: t.op, Name: name,
		Start: t.rec.rel(start), End: t.rec.rel(end), Attrs: attrs})
}

// Stages the core engine runs when a query is opened (newExecutor), and
// the ones it runs when the cursor is driven. The sharded engine opens its
// shards one after another and then runs them in parallel, so the two
// groups are placed separately.
var (
	openStages = []core.Stage{core.StagePlan, core.StageSeed}
	runStages  = []core.Stage{core.StageWave, core.StageBound, core.StageExam, core.StageCollect}
	allStages  = append(append([]core.Stage(nil), openStages...), runStages...)
)

// stageTime sums m's time over the given stages.
func stageTime(m *core.Metrics, stages []core.Stage) int64 {
	var d int64
	for _, st := range stages {
		d += int64(m.Stages[st].Time)
	}
	return d
}

// querySpans records a core.query span [start, start+dur] under parent
// and, laid end to end from start, one synthetic span per listed stage
// that recorded time in m. attrs (may be nil) are the span's counters.
func (r *recorder) querySpans(op, parent, start, dur int64, m *core.Metrics, stages []core.Stage, attrs map[string]float64) {
	id := r.add(Span{Parent: parent, Op: op, Name: "core.query", Start: start, End: start + dur, Attrs: attrs})
	at := start
	for _, st := range stages {
		d := int64(m.Stages[st].Time)
		if d == 0 {
			continue
		}
		r.add(Span{Parent: id, Op: op, Name: "stage." + st.String(), Start: at, End: at + d, Synthetic: true})
		at += d
	}
}

func queryAttrs(m *core.Metrics) map[string]float64 {
	return map[string]float64{
		"waves":           float64(m.Iterations),
		"nodes_visited":   float64(m.NodesVisited),
		"docs_discovered": float64(m.DocsDiscovered),
		"docs_examined":   float64(m.DocsExamined),
		"drc_calls":       float64(m.DRCCalls),
		"speculative_drc": float64(m.SpeculativeDRC),
		"forced_exams":    float64(m.ForcedExams),
		"results":         float64(m.ResultCount),
	}
}

// waveSpans records one span per BFS wave from the collected
// WaveStart/WaveEnd events; queryStart anchors the events' offsets. Wave
// spans hang off the op root: they fall inside the query's interval, so
// they change no self time, while the stage spans under core.query carry
// the stage attribution.
func (t *opTracer) waveSpans(queryStart time.Time) {
	type key struct{ shard, wave int }
	open := map[key]core.TraceEvent{}
	base := t.rec.rel(queryStart)
	for _, ev := range t.events {
		k := key{ev.Shard, ev.Wave}
		if ev.Kind == core.TraceWaveStart {
			open[k] = ev
			continue
		}
		st, ok := open[k]
		if !ok {
			continue
		}
		delete(open, k)
		t.rec.add(Span{Parent: t.root, Op: t.op, Name: "core.wave",
			Start: base + int64(st.At), End: base + int64(ev.At),
			Attrs: map[string]float64{"depth": float64(ev.Depth), "popped": float64(ev.N), "shard": float64(ev.Shard)}})
	}
}

// shardAttrs summarizes a fan-out's per-shard metrics onto span attrs.
func shardAttrs(attrs map[string]float64, wall time.Duration, perShard []core.Metrics, cancelled int) {
	var max, sum time.Duration
	n := 0
	for i := range perShard {
		d := perShard[i].TotalTime
		if d == 0 {
			continue
		}
		n++
		sum += d
		if d > max {
			max = d
		}
	}
	attrs["shard.wall_ns"] = float64(wall)
	attrs["shard.critical_ns"] = float64(max)
	if n > 0 {
		attrs["shard.mean_ns"] = float64(sum) / float64(n)
	}
	attrs["shard.cancelled"] = float64(cancelled)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, ci := range children[s.ID] {
			lo, hi := spans[ci].Start, spans[ci].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.ID] = s.dur() - unionLen(iv)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// isQueryRoot reports whether a root span is a query op (RDS or SDS).
func isQueryRoot(name string) bool { return name == "op.rds" || name == "op.sds" }

func opSuffix(root string) string { return strings.TrimPrefix(root, "op.") }
