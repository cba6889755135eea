package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Tests of the parallel layers and of the contracts that hold at every
// Options.Workers value. kNDS examines candidates one at a time whatever
// Workers says, so tie-breaking, Progressive delivery and validation must
// not depend on it; the batch scheduler runs whole queries concurrently;
// and the partitioned full scan must equal the serial scan.

// TestParallelEquivalenceTieBreaking pins deterministic tie-breaking: a
// corpus where every document is exactly equidistant from the query must
// rank by ascending DocID — in the serial engine, at every worker count,
// and in the full-scan baselines.
func TestParallelEquivalenceTieBreaking(t *testing.T) {
	b := ontology.NewBuilder("root")
	var children []ontology.ConceptID
	for i := 0; i < 40; i++ {
		c := b.AddConcept(fmt.Sprintf("child%d", i))
		b.MustAddEdge(b.Root(), c)
		children = append(children, c)
	}
	o, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	coll := corpus.New()
	for i, c := range children {
		coll.Add(fmt.Sprintf("d%d", i), 0, []ontology.ConceptID{c}) // Ddq(root) = 1 for every doc
	}
	e := memEngine(o, coll)
	q := []ontology.ConceptID{0} // the root

	const k = 5
	check := func(results []Result, label string) {
		t.Helper()
		if len(results) != k {
			t.Fatalf("%s: %d results, want %d", label, len(results), k)
		}
		for i, r := range results {
			if r.Doc != corpus.DocID(i) || r.Distance != 1 {
				t.Fatalf("%s: rank %d = {doc %d, %v}, want {doc %d, 1} (ties must resolve by DocID)",
					label, i, r.Doc, r.Distance, i)
			}
		}
	}
	for _, w := range []int{1, 2, 8} {
		for _, eps := range []float64{0, 0.5, 1} {
			results, _, err := e.RDS(q, Options{K: k, ErrorThreshold: eps, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			check(results, fmt.Sprintf("kNDS workers=%d eps=%v", w, eps))
		}
	}
	scan, _, err := e.FullScanRDS(q, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	check(scan, "full scan")
	pscan, _, err := e.FullScanRDS(q, Options{K: k, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(pscan, "parallel full scan")
}

// TestProgressiveSerializedUnderWorkers pins the documented Progressive
// contract: callbacks fire sequentially on the query's goroutine even with
// Workers > 1, so an unsynchronized callback is safe (-race verifies), and
// the emitted stream matches the final results exactly once each.
func TestProgressiveSerializedUnderWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	o := randomDAGOntology(r, 120, 0.3)
	coll := randomCollection(r, o, 60, 8)
	e := memEngine(o, coll)
	for trial := 0; trial < 10; trial++ {
		q := []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
		var emitted []Result // no mutex: -race catches any worker-side call
		inCallback := false
		results, _, err := e.RDS(q, Options{
			K:              5,
			ErrorThreshold: 1,
			Workers:        8,
			Progressive: func(res Result) {
				if inCallback {
					t.Fatal("Progressive re-entered concurrently")
				}
				inCallback = true
				emitted = append(emitted, res)
				inCallback = false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(emitted) != len(results) {
			t.Fatalf("trial %d: emitted %d results progressively, final has %d", trial, len(emitted), len(results))
		}
		final := map[corpus.DocID]float64{}
		for _, res := range results {
			final[res.Doc] = res.Distance
		}
		seen := map[corpus.DocID]bool{}
		for _, res := range emitted {
			if seen[res.Doc] {
				t.Fatalf("trial %d: doc %d emitted twice", trial, res.Doc)
			}
			seen[res.Doc] = true
			if d, ok := final[res.Doc]; !ok || d != res.Distance {
				t.Fatalf("trial %d: emitted {doc %d, %v} not in final results", trial, res.Doc, res.Distance)
			}
		}
	}
}

// TestNegativeWorkersRejected pins the Options.Workers validation across
// every query entry point.
func TestNegativeWorkersRejected(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	bad := Options{K: 2, Workers: -1}
	if _, _, err := e.RDS(pf.Concepts("F"), bad); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("RDS: %v, want ErrNegativeWorkers", err)
	}
	if _, _, err := e.SDS(pf.Concepts("F", "I"), bad); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("SDS: %v, want ErrNegativeWorkers", err)
	}
	if _, _, err := e.BatchRDS([][]ontology.ConceptID{pf.Concepts("F")}, bad, 2); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("BatchRDS: %v, want ErrNegativeWorkers", err)
	}
}

// TestNormalizeWorkersDefault: 0 selects GOMAXPROCS, explicit values are
// kept, and negative values survive Normalize so queries can reject them.
func TestNormalizeWorkersDefault(t *testing.T) {
	if w := (Options{}).Normalize().Workers; w < 1 {
		t.Fatalf("Normalize defaulted Workers to %d", w)
	}
	if w := (Options{Workers: 3}).Normalize().Workers; w != 3 {
		t.Fatalf("Normalize changed explicit Workers to %d", w)
	}
	if w := (Options{Workers: -2}).Normalize().Workers; w != -2 {
		t.Fatalf("Normalize should leave negative Workers for query validation, got %d", w)
	}
}

// TestBatchContextCancellation: a context canceled before the batch
// starts aborts with the context's error; the returned partial slices are
// full length with every slot nil — nothing completed.
func TestBatchContextCancellation(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := [][]ontology.ConceptID{pf.Concepts("F"), pf.Concepts("I"), pf.Concepts("J")}
	res, mets, err := e.BatchRDSContext(ctx, queries, Options{K: 2}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != len(queries) || len(mets) != len(queries) {
		t.Fatalf("partial slices have lengths %d/%d, want %d", len(res), len(mets), len(queries))
	}
	for i := range queries {
		if res[i] != nil || mets[i] != nil {
			t.Fatalf("query %d has output despite pre-cancelled context: %v %v", i, res[i], mets[i])
		}
	}
}

// TestBatchCancellationPreservesCompletedMetrics: when the batch is
// cancelled mid-flight, queries that already finished keep their results
// and a consistent Metrics; aborted and unscheduled queries have both
// slots nil. The cancel fires from the second query's first trace event,
// so with one scheduler worker query 0 is complete and query 2 never runs.
func TestBatchCancellationPreservesCompletedMetrics(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	queries := [][]ontology.ConceptID{pf.Concepts("F", "I"), pf.Concepts("I"), pf.Concepts("J")}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	opts := Options{K: 2, ErrorThreshold: 1, Trace: func(ev TraceEvent) {
		if ev.Kind == TraceWaveStart && ev.Wave == 0 {
			started++
			if started == 2 {
				cancel() // observed at the second query's next wave boundary
			}
		}
	}}
	res, mets, err := e.BatchRDSContext(ctx, queries, opts, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != len(queries) || len(mets) != len(queries) {
		t.Fatalf("partial slices have lengths %d/%d, want %d", len(res), len(mets), len(queries))
	}

	// Query 0 completed before the cancel: results and metrics intact.
	if res[0] == nil || mets[0] == nil {
		t.Fatalf("completed query lost its output: res=%v mets=%v", res[0], mets[0])
	}
	if mets[0].TotalTime <= 0 || mets[0].ResultCount != len(res[0]) || mets[0].DocsExamined == 0 {
		t.Fatalf("completed query's metrics inconsistent: %+v", mets[0])
	}
	want, wm, err := e.RDS(queries[0], Options{K: 2, ErrorThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res[0][i] != want[i] {
			t.Fatalf("completed query's results drifted: %v vs %v", res[0], want)
		}
	}
	if mets[0].DocsExamined != wm.DocsExamined || mets[0].TerminalEps != wm.TerminalEps {
		t.Fatalf("completed query's metrics drifted: %+v vs %+v", mets[0], wm)
	}

	// Query 1 was aborted mid-flight, query 2 never scheduled: both nil.
	for _, i := range []int{1, 2} {
		if res[i] != nil || mets[i] != nil {
			t.Fatalf("query %d should have nil output after cancellation: %v %v", i, res[i], mets[i])
		}
	}
}

// TestBatchErrorAnnotatesQueryIndex: the failing query's index is part of
// the batch error, and ErrEmptyQuery stays matchable through the wrap.
func TestBatchErrorAnnotatesQueryIndex(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	queries := [][]ontology.ConceptID{pf.Concepts("F"), nil, pf.Concepts("I")}
	_, _, err := e.BatchRDS(queries, Options{K: 2}, 1)
	if !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("err = %v, want wrapped ErrEmptyQuery", err)
	}
}

// TestFullScanParallelMatchesSerial: the partitioned baseline returns
// exactly the serial baseline's output.
func TestFullScanParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 12; trial++ {
		o := randomDAGOntology(r, 20+r.Intn(100), 0.3)
		coll := randomCollection(r, o, 1+r.Intn(60), 6)
		e := memEngine(o, coll)
		sds := trial%2 == 1
		q := []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
		k := 1 + r.Intn(12)
		var ref, got []Result
		var err error
		if sds {
			ref, _, err = e.FullScanSDS(q, Options{K: k})
		} else {
			ref, _, err = e.FullScanRDS(q, Options{K: k})
		}
		if err != nil {
			t.Fatal(err)
		}
		workers := 2 + r.Intn(6)
		if sds {
			got, _, err = e.FullScanSDS(q, Options{K: k, Workers: workers})
		} else {
			got, _, err = e.FullScanRDS(q, Options{K: k, Workers: workers})
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d rank %d: parallel %v, serial %v", trial, i, got[i], ref[i])
			}
		}
	}
}
