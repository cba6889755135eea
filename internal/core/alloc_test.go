package core

import (
	"math/rand"
	"runtime"
	"testing"

	"conceptrank/internal/ontology"
)

// Steady-state allocation guards: a warm serial engine recycles its query
// arena, DRC scratch and radix workspace, so repeated queries must carve
// (almost) all of their mutable state from retained memory. The bound is
// a regression tripwire for the per-query constant — plan-stage objects
// (executor, prepared query entries, metrics, collector) still allocate,
// but per-candidate and per-probe state must not.

func warmQueryAllocs(t *testing.T, sds bool) float64 {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	o := randomDAGOntology(r, 300, 0.3)
	coll := randomCollection(r, o, 400, 8)
	e := memEngine(o, coll)
	var q []ontology.ConceptID
	for _, d := range coll.Docs() {
		if len(d.Concepts) >= 3 {
			q = d.Concepts[:3]
			break
		}
	}
	if q == nil {
		t.Skip("no document with enough concepts")
	}
	opts := Options{K: 10, ErrorThreshold: 0.5, Workers: 1}
	run := func() {
		var res []Result
		var err error
		if sds {
			res, _, err = e.SDS(q, opts)
		} else {
			res, _, err = e.RDS(q, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatal("no results")
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the arena pool, address cache and DRC scratch
	}
	return testing.AllocsPerRun(20, run)
}

func TestWarmSerialRDSAllocBound(t *testing.T) {
	allocs := warmQueryAllocs(t, false)
	t.Logf("warm serial RDS query: %.1f objects", allocs)
	if allocs > 150 {
		t.Errorf("warm serial RDS query allocates %.0f objects, want <= 150", allocs)
	}
}

func TestWarmSerialSDSAllocBound(t *testing.T) {
	allocs := warmQueryAllocs(t, true)
	t.Logf("warm serial SDS query: %.1f objects", allocs)
	if allocs > 150 {
		t.Errorf("warm serial SDS query allocates %.0f objects, want <= 150", allocs)
	}
}

// TestWarmRDSAllocsIndependentOfWorkers is the allocation tripwire for the
// parallel setting. testing.AllocsPerRun pins GOMAXPROCS to 1, so the
// tests above never see what a multi-core Workers value costs; this one
// reads runtime.MemStats around each query of a warm stream of eager
// (ε = 1) RDS queries instead, at an explicit Workers: 2 so the result
// does not depend on the host's CPU count. kNDS examines candidates
// serially at every Workers value, so the per-query objects and bytes must
// match the Workers: 1 stream within a small slack.
func TestWarmRDSAllocsIndependentOfWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	o := randomDAGOntology(r, 150, 0.35)
	coll := randomCollection(r, o, 80, 8)
	e := memEngine(o, coll)
	queries := make([][]ontology.ConceptID, 20)
	for i := range queries {
		queries[i] = []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
	}
	workerGrid := []int{1, 2}
	run := func(q []ontology.ConceptID, workers int) {
		opts := Options{K: 10, ErrorThreshold: 1, Workers: workers, NoSkipWhenCovered: true}
		if _, _, err := e.RDS(q, opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workerGrid {
		for _, q := range queries {
			run(q, w) // warm the arena pool, address cache and DRC scratch
		}
	}
	// Each query's cost is the minimum over a few repetitions, alternating
	// the two settings: under the race detector sync.Pool drops a random
	// share of its items, and the minimum filters those refills out.
	const reps = 5
	objs := make([][]uint64, len(workerGrid))
	bytes := make([][]uint64, len(workerGrid))
	for wi := range workerGrid {
		objs[wi] = make([]uint64, len(queries))
		bytes[wi] = make([]uint64, len(queries))
	}
	var before, after runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		for qi, q := range queries {
			for wi, w := range workerGrid {
				runtime.ReadMemStats(&before)
				run(q, w)
				runtime.ReadMemStats(&after)
				o, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
				if rep == 0 || o < objs[wi][qi] {
					objs[wi][qi] = o
				}
				if rep == 0 || b < bytes[wi][qi] {
					bytes[wi][qi] = b
				}
			}
		}
	}
	mean := func(xs []uint64) float64 {
		var sum uint64
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	serialObjs, serialBytes := mean(objs[0]), mean(bytes[0])
	parObjs, parBytes := mean(objs[1]), mean(bytes[1])
	t.Logf("warm eager RDS per query: Workers 1 %.1f objects / %.0f B, Workers 2 %.1f objects / %.0f B",
		serialObjs, serialBytes, parObjs, parBytes)
	// Slack: 10% plus a few objects for allocations other goroutines of
	// the test process make between two MemStats reads.
	if parObjs > 1.1*serialObjs+4 {
		t.Errorf("Workers 2 allocates %.1f objects per query, Workers 1 %.1f", parObjs, serialObjs)
	}
	if parBytes > 1.1*serialBytes+512 {
		t.Errorf("Workers 2 allocates %.0f B per query, Workers 1 %.0f B", parBytes, serialBytes)
	}
}
