package main

import (
	"math"
	"testing"
	"time"

	"conceptrank/internal/core"
)

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 6, Parent: 2, Name: "a2", Start: 18, End: 25}, // overlaps a1
		{ID: 7, Parent: 5, Name: "leaf", Start: 0, End: 1}, // outside its parent
	}
	want := map[int64]int64{
		1: 100 - (50 + 10), // [10,60] and the clipped [90,100]
		2: 30 - 10,         // [15,25]
		3: 30,
		4: 30,
		5: 5,
		6: 7,
		7: 1,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestLayerMetricsFromSpans(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Op: 1, Name: "op.rds", Start: 0, End: 10 * ms, Attrs: map[string]float64{}},
		{ID: 2, Op: 1, Parent: 1, Name: "core.query", Start: 0, End: 8 * ms,
			Attrs: map[string]float64{"docs_examined": 4, "results": 2, "drc_calls": 3, "waves": 5}},
		{ID: 3, Op: 1, Parent: 2, Name: "stage.exam", Start: 0, End: 6 * ms, Synthetic: true},
		{ID: 4, Op: 1, Parent: 2, Name: "stage.wave", Start: 6 * ms, End: 7 * ms, Synthetic: true},
		{ID: 5, Op: 2, Name: "op.append", Start: 20 * ms, End: 21 * ms, Attrs: map[string]float64{}},
	}
	m := layerMetrics(layerInput{spans: spans, queries: 1, ops: 2})
	check := func(name string, want float64) {
		t.Helper()
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("core.exam_ms.rds", 6)
	check("core.wave_ms.rds", 1)
	check("core.stage_gap_ms.rds", 1)
	check("core.drc_calls_per_q.rds", 3)
	check("core.waves_per_q.rds", 5)
	check("core.exam_precision.rds", 0.5)
	check("core.exam_ms.sds", 0)
	check("bench.stage_coverage", 0.7)
	// A 1 ms gap is over 5% of 8 ms core time and over the 50µs floor.
	check("bench.stage_gap_flagged_frac", 1)
	if spans[0].Attrs["gap_flagged"] != 1 {
		t.Error("the op's root span is not marked gap_flagged")
	}
}

func TestQuerySpansPackStages(t *testing.T) {
	rec := newRecorder()
	var m core.Metrics
	m.TotalTime = 10 * time.Millisecond
	m.Stages[core.StagePlan].Time = time.Millisecond
	m.Stages[core.StageExam].Time = 5 * time.Millisecond
	rec.querySpans(1, 0, 100, int64(m.TotalTime), &m, allStages, queryAttrs(&m))
	if len(rec.spans) != 3 {
		t.Fatalf("got %d spans, want core.query plus two stages", len(rec.spans))
	}
	plan, exam := rec.spans[1], rec.spans[2]
	if plan.Name != "stage.plan" || plan.Start != 100 || plan.End != 100+int64(time.Millisecond) {
		t.Errorf("plan span = %+v", plan)
	}
	if exam.Name != "stage.exam" || exam.Start != plan.End || exam.dur() != int64(5*time.Millisecond) {
		t.Errorf("exam span = %+v", exam)
	}
	if self := selfTimes(rec.spans)[rec.spans[0].ID]; self != int64(4*time.Millisecond) {
		t.Errorf("stage gap = %d, want 4ms", self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) ([]float64, [][2]float64) {
		var b []float64
		var pairs [][2]float64
		for _, x := range base {
			b = append(b, x*f)
			pairs = append(pairs, [2]float64{x, x * f})
		}
		return b, pairs
	}
	lower := metricSpec{Better: "lower", Bound: 0.1}
	for _, tc := range []struct {
		f    float64
		want string
	}{{0.8, "better"}, {1.2, "worse"}, {1.05, "unresolved"}, {1, "unresolved"}} {
		b, pairs := shift(tc.f)
		if got := (comparison{a: base, b: b, pairs: pairs, spec: lower}).verdict(); got != tc.want {
			t.Errorf("x%.2f: verdict %s, want %s", tc.f, got, tc.want)
		}
	}
}
