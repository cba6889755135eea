package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"conceptrank/internal/core"
	"conceptrank/internal/ontology"
)

// TestShardedTraceForwarding checks the sharded trace contract: every
// non-empty shard gets a ShardDispatch event, forwarded per-shard events
// carry that shard's index, the stream ends with a single ShardMerge whose
// N is the fan-out width, and each dispatched shard contributes a terminal
// event whose ε_d max-merges into Merged.TerminalEps.
func TestShardedTraceForwarding(t *testing.T) {
	r := rand.New(rand.NewSource(2014))
	o := randomDAGOntology(r, 80, 0.25)
	coll := randomCollection(r, o, 60, 6)
	se, err := New(o, coll, Config{Shards: 4, Placement: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}

	var events []core.TraceEvent
	opts := core.Options{
		K: 5, ErrorThreshold: 0.5, Workers: 2,
		// Appends need no lock: the sharded engine serializes delivery.
		Trace: func(ev core.TraceEvent) { events = append(events, ev) },
	}
	_, sm, err := se.RDS([]ontology.ConceptID{1, 7, 19}, opts)
	if err != nil {
		t.Fatal(err)
	}

	dispatched := map[int]bool{}
	terminalEps := map[int]float64{}
	merges := 0
	for i, ev := range events {
		switch ev.Kind {
		case core.TraceShardDispatch:
			if ev.Shard < 0 || ev.Shard >= se.NumShards() {
				t.Fatalf("event %d: dispatch for shard %d", i, ev.Shard)
			}
			dispatched[ev.Shard] = true
		case core.TraceShardMerge:
			merges++
			if i != len(events)-1 {
				t.Fatalf("ShardMerge at position %d of %d, want last", i, len(events))
			}
			if ev.Shard != -1 {
				t.Fatalf("ShardMerge carries Shard = %d, want -1", ev.Shard)
			}
			if ev.N != len(dispatched) {
				t.Fatalf("ShardMerge.N = %d, want fan-out width %d", ev.N, len(dispatched))
			}
			if int(ev.Value) != sm.CancelledShards {
				t.Fatalf("ShardMerge.Value = %v, CancelledShards = %d", ev.Value, sm.CancelledShards)
			}
		default:
			// A forwarded per-shard event: must carry a dispatched shard.
			if !dispatched[ev.Shard] {
				t.Fatalf("event %d (%v) from shard %d before its dispatch", i, ev.Kind, ev.Shard)
			}
			if ev.Kind == core.TraceTerminate {
				terminalEps[ev.Shard] = ev.Value
			}
		}
	}
	if merges != 1 {
		t.Fatalf("got %d ShardMerge events, want 1", merges)
	}
	if len(dispatched) == 0 {
		t.Fatal("no ShardDispatch events")
	}

	// Merged.TerminalEps is the max across shards, matching the per-shard
	// terminal events (shards cancelled by the cross-shard bound emit no
	// terminal event and contribute no slack).
	var wantEps float64
	for _, e := range terminalEps {
		if e > wantEps {
			wantEps = e
		}
	}
	if sm.Merged.TerminalEps != wantEps {
		t.Fatalf("Merged.TerminalEps = %v, max per-shard terminal ε_d = %v", sm.Merged.TerminalEps, wantEps)
	}
	for s, e := range terminalEps {
		if sm.PerShard[s].TerminalEps != e {
			t.Fatalf("shard %d: terminal event ε_d %v != PerShard TerminalEps %v", s, e, sm.PerShard[s].TerminalEps)
		}
	}
}

// TestShardedTraceNilHook: an untraced sharded query must not fabricate
// events (guards the nil fast path around the forwarding closure).
func TestShardedTraceNilHook(t *testing.T) {
	r := rand.New(rand.NewSource(2015))
	o := randomDAGOntology(r, 40, 0.2)
	coll := randomCollection(r, o, 20, 4)
	se, err := New(o, coll, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := se.RDS([]ontology.ConceptID{1, 2}, core.Options{K: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMetricsCoversAllFields fails when a field is added to
// core.Metrics without a merge rule in mergeMetrics: it sets every field
// of src to a non-zero value and requires the merge into a zero dst to
// move every field except the caller-owned ones.
func TestMergeMetricsCoversAllFields(t *testing.T) {
	callerOwned := map[string]bool{
		"TotalTime":   true, // wall-clock of the fan-out, not a shard sum
		"ResultCount": true, // merged result count, set after Merger.Sorted
		// Deprecated and never written by any engine: there is nothing
		// to merge.
		"SpeculativeDRC": true,
	}

	var src, dst core.Metrics
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i) + 1)
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Array:
			// Metrics.Stages: populate every stage's every field, so the
			// merge rule must carry the whole breakdown, not just one cell.
			for j := 0; j < f.Len(); j++ {
				el := f.Index(j)
				for k := 0; k < el.NumField(); k++ {
					el.Field(k).SetInt(int64(i+j+k) + 1)
				}
			}
		default:
			t.Fatalf("core.Metrics field %s has kind %v: teach this test how to populate it",
				sv.Type().Field(i).Name, f.Kind())
		}
	}

	mergeMetrics(&dst, &src)

	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		if callerOwned[name] {
			continue
		}
		if dv.Field(i).IsZero() {
			t.Errorf("core.Metrics.%s is not aggregated by mergeMetrics; add a merge rule "+
				"(or, if it is caller-owned like TotalTime, exempt it here with a justification)", name)
		}
	}

	// Second merge: additive fields keep summing; TerminalEps stays a max.
	lower := src
	lower.TerminalEps = 0.01
	mergeMetrics(&dst, &lower)
	if dst.DRCCalls != 2*src.DRCCalls {
		t.Errorf("DRCCalls after two merges = %d, want %d", dst.DRCCalls, 2*src.DRCCalls)
	}
	if dst.CacheHits != 2*src.CacheHits || dst.CacheMisses != 2*src.CacheMisses {
		t.Errorf("cache counters after two merges = %d/%d, want %d/%d",
			dst.CacheHits, dst.CacheMisses, 2*src.CacheHits, 2*src.CacheMisses)
	}
	if dst.TerminalEps != src.TerminalEps {
		t.Errorf("TerminalEps after merging a smaller value = %v, want max %v", dst.TerminalEps, src.TerminalEps)
	}
	for i := range dst.Stages {
		if dst.Stages[i].Time != 2*src.Stages[i].Time ||
			dst.Stages[i].AllocBytes != 2*src.Stages[i].AllocBytes ||
			dst.Stages[i].AllocObjects != 2*src.Stages[i].AllocObjects {
			t.Errorf("Stages[%v] after two merges = %+v, want double %+v",
				core.Stage(i), dst.Stages[i], src.Stages[i])
		}
	}
}
