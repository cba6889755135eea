package core

// Per-stage resource attribution. The staged pipeline (pipeline.go)
// already owns a wall clock at every stage boundary for the paper-level
// Metrics times (TraversalTime, DistanceTime); this file gives each stage
// its own bucket so a profile of *where* a query spends — and, opted in,
// *allocates* — falls out of every run. Attribution is observation-only:
// recording a stage is two time.Now calls the pipeline already pays plus
// one addition, and the allocation sampler stays disabled unless
// Options.StageAllocs asks for it (runtime/metrics reads are ~1µs each —
// cheap for an experiment, too hot for every production query).

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"
)

// Stage identifies one pipeline stage for resource attribution. The
// values index Metrics.Stages.
type Stage uint8

const (
	// StagePlan is query normalization, validation and DRC preparation.
	StagePlan Stage = iota
	// StageSeed is cached seed-vector resolution and bound-table
	// injection (zero without Options.Cache).
	StageSeed
	// StageWave is BFS frontier expansion: postings lookups, bound-table
	// observation, neighbor pushes.
	StageWave
	// StageBound is the per-wave candidate refresh: lower-bound
	// recomputation, compaction and commit-order sorting.
	StageBound
	// StageExam is the examination phase: the serial commit loop with its
	// exact-distance (DRC) calls.
	StageExam
	// StageCollect is the per-wave termination bookkeeping: the d⁻ floor
	// scan, progressive emission and final result materialization.
	StageCollect
	// StageMerge is the sharded engine's cross-shard merge (zero for
	// single-engine queries).
	StageMerge

	// NumStages bounds the Stage values; Metrics.Stages has this length.
	NumStages = int(StageMerge) + 1
)

var stageNames = [NumStages]string{
	"plan", "seed", "wave", "bound", "exam", "collect", "merge",
}

// String returns the stage's exposition label ("plan", "wave", ...).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// StageStat is the resource account of one pipeline stage within one
// query: wall time always, heap-allocation deltas only when the query ran
// with Options.StageAllocs (the deltas are process-wide allocation
// counters sampled at the stage boundaries, so concurrent queries bleed
// into each other's numbers — run the sampler on an otherwise idle
// process for exact attribution).
type StageStat struct {
	Time         time.Duration `json:"time_ns"`
	AllocBytes   int64         `json:"alloc_bytes,omitempty"`
	AllocObjects int64         `json:"alloc_objects,omitempty"`
}

// StageStats is the per-stage breakdown of a query, indexed by Stage.
// Stages a query never entered stay zero (e.g. StageSeed without a cache,
// StageMerge outside the sharded engine). The sum of stage times tracks
// TotalTime minus inter-stage glue; it is not an exact partition.
type StageStats [NumStages]StageStat

// MarshalJSON renders the breakdown as an object keyed by stage name,
// omitting stages with no recorded cost, so /debug/slowlog and /search
// metrics stay readable.
func (s StageStats) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := range s {
		st := &s[i]
		if st.Time == 0 && st.AllocBytes == 0 && st.AllocObjects == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:{\"time_ns\":%d", Stage(i).String(), st.Time.Nanoseconds())
		if st.AllocBytes != 0 {
			fmt.Fprintf(&b, ",\"alloc_bytes\":%d", st.AllocBytes)
		}
		if st.AllocObjects != 0 {
			fmt.Fprintf(&b, ",\"alloc_objects\":%d", st.AllocObjects)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON parses the object form MarshalJSON emits: keys are stage
// names, unknown keys are rejected (they indicate a reader/writer version
// skew worth surfacing), absent stages stay zero.
func (s *StageStats) UnmarshalJSON(data []byte) error {
	var raw map[string]StageStat
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*s = StageStats{}
	for name, st := range raw {
		idx := -1
		for i, n := range stageNames {
			if n == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("core: unknown stage %q", name)
		}
		s[idx] = st
	}
	return nil
}

// MergeStages accumulates src into dst stage by stage — the rule the
// sharded engine's metric merge applies (shards run the same stages, so
// their per-stage costs sum like the component times they refine).
func MergeStages(dst *StageStats, src *StageStats) {
	for i := range dst {
		dst[i].Time += src[i].Time
		dst[i].AllocBytes += src[i].AllocBytes
		dst[i].AllocObjects += src[i].AllocObjects
	}
}

// allocSamples returns a fresh sample slice for the cumulative heap
// allocation counters. The names are stable runtime/metrics identities;
// reading two samples costs about a microsecond.
func allocSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
}

// stageMark is one boundary snapshot: wall clock always, allocation
// counters only when sampling is enabled.
type stageMark struct {
	t     time.Time
	bytes uint64
	objs  uint64
}

// stageSampler attributes stage costs into a Metrics. The zero-cost
// disabled path (StageAllocs off) records wall time only, reusing the
// time.Now the pipeline's component-time accounting already takes.
type stageSampler struct {
	allocs  bool
	samples []metrics.Sample // reused across marks; nil when !allocs
}

func newStageSampler(allocs bool) stageSampler {
	s := stageSampler{allocs: allocs}
	if allocs {
		s.samples = allocSamples()
	}
	return s
}

// mark snapshots a stage entry boundary.
func (s *stageSampler) mark() stageMark {
	m := stageMark{t: time.Now()}
	if s.allocs {
		metrics.Read(s.samples)
		m.bytes = s.samples[0].Value.Uint64()
		m.objs = s.samples[1].Value.Uint64()
	}
	return m
}

// record attributes the cost since mark to stage, returning the elapsed
// wall time so callers can feed the legacy component times from the same
// clock reading.
func (s *stageSampler) record(m *Metrics, stage Stage, from stageMark) time.Duration {
	d := time.Since(from.t)
	st := &m.Stages[stage]
	st.Time += d
	if s.allocs {
		metrics.Read(s.samples)
		st.AllocBytes += int64(s.samples[0].Value.Uint64() - from.bytes)
		st.AllocObjects += int64(s.samples[1].Value.Uint64() - from.objs)
	}
	return d
}
