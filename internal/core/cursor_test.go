package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Cursor-resume equivalence: the ISSUE's headline cursor acceptance check.
// Taking k results and then growing to k' = 2k must be bitwise identical —
// same documents, same float64 distances, same tie-breaks — to a fresh
// query opened at k', for RDS and SDS at every worker setting.

// TestCursorResumeEquivalenceGrid: serial and parallel, RDS and SDS,
// across randomized ontologies/corpora and an option grid: Next(k) then
// GrowK(2k) == fresh k'=2k.
func TestCursorResumeEquivalenceGrid(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	ctx := context.Background()
	cases := 0
	for c := 0; c < 10; c++ {
		o := randomDAGOntology(r, 10+r.Intn(110), 0.3)
		coll := randomCollection(r, o, 5+r.Intn(50), 8)
		e := memEngine(o, coll)
		for _, k := range []int{1, 5, 10} {
			for _, eps := range []float64{0, 0.5, 0.9, 1} {
				for _, workers := range []int{1, 4} {
					sds := cases%2 == 1
					var q []ontology.ConceptID
					if sds && coll.NumDocs() > 0 && r.Intn(2) == 0 {
						q = coll.Doc(corpus.DocID(r.Intn(coll.NumDocs()))).Concepts
					}
					if len(q) == 0 {
						q = make([]ontology.ConceptID, 1+r.Intn(5))
						for j := range q {
							q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
						}
					}
					opts := Options{
						K:              k,
						ErrorThreshold: eps,
						Workers:        workers,
						QueueLimit:     []int{0, 7, 50000}[cases%3],
						NoDedup:        cases%7 == 0,
					}
					label := fmt.Sprintf("case %d (corpus %d, k=%d, eps=%v, w=%d, sds=%v)",
						cases, c, k, eps, workers, sds)
					cursorResumeCase(t, ctx, e, sds, q, opts, label)
					cases++
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("grid covered only %d cases, acceptance floor is 200", cases)
	}
}

func cursorResumeCase(t *testing.T, ctx context.Context, e *Engine, sds bool, q []ontology.ConceptID, opts Options, label string) {
	t.Helper()
	k := opts.K
	open := e.OpenRDS
	runFresh := func(o Options) ([]Result, *Metrics, error) { return e.RDS(q, o) }
	if sds {
		open = e.OpenSDS
		runFresh = func(o Options) ([]Result, *Metrics, error) { return e.SDS(q, o) }
	}

	cur, err := open(q, opts)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	defer cur.Close()

	// Page one: the first k results must match a fresh K=k query.
	page, err := cur.Next(ctx, k)
	if err != nil {
		t.Fatalf("%s: Next(%d): %v", label, k, err)
	}
	fresh, freshM, err := runFresh(opts)
	if err != nil {
		t.Fatalf("%s: fresh k: %v", label, err)
	}
	assertSameResults(t, fresh, page, label+" first page")
	assertSameCounters(t, freshM, cur.Metrics(), label+" first page")

	// Grow: the full k'=2k ranking must match a fresh K=2k query bitwise.
	grown, err := cur.GrowK(ctx, 2*k)
	if err != nil {
		t.Fatalf("%s: GrowK(%d): %v", label, 2*k, err)
	}
	big := opts
	big.K = 2 * k
	want, wantM, err := runFresh(big)
	if err != nil {
		t.Fatalf("%s: fresh 2k: %v", label, err)
	}
	assertSameResults(t, want, grown, label+" grown")

	// The resumed query must never pay for an exact distance twice, so its
	// probe count cannot exceed the fresh larger-k query's.
	if cm := cur.Metrics(); cm.DRCCalls > wantM.DRCCalls {
		t.Fatalf("%s: resumed cursor made %d DRC calls, fresh 2k query made %d",
			label, cm.DRCCalls, wantM.DRCCalls)
	}

	// Paging after the grow continues from position k without re-serving
	// (request exactly the remainder: a larger n would auto-grow past 2k).
	rest, err := cur.Next(ctx, len(want)-len(page))
	if err != nil {
		t.Fatalf("%s: Next after grow: %v", label, err)
	}
	if got := len(page) + len(rest); got != len(want) {
		t.Fatalf("%s: pages cover %d results, fresh 2k has %d", label, got, len(want))
	}
	for i, r := range rest {
		if want[len(page)+i] != r {
			t.Fatalf("%s: page 2 rank %d: got %+v, want %+v", label, i, r, want[len(page)+i])
		}
	}
}

func assertSameResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: got {doc %d, %v}, want {doc %d, %v}",
				label, i, got[i].Doc, got[i].Distance, want[i].Doc, want[i].Distance)
		}
	}
}

// assertSameCounters compares the decision-sequence counters (everything
// except times) of a one-shot query and a cursor run
// that should have replayed the same decisions.
func assertSameCounters(t *testing.T, want, got *Metrics, label string) {
	t.Helper()
	type counters struct {
		disc, exam, drc, iter, forced, res int
		nodes                              int64
	}
	w := counters{want.DocsDiscovered, want.DocsExamined, want.DRCCalls, want.Iterations, want.ForcedExams, want.ResultCount, want.NodesVisited}
	g := counters{got.DocsDiscovered, got.DocsExamined, got.DRCCalls, got.Iterations, got.ForcedExams, got.ResultCount, got.NodesVisited}
	if w != g {
		t.Fatalf("%s: counters diverged: want %+v, got %+v", label, w, g)
	}
}

// TestCursorDrainAndSmallPages: paging in odd-sized chunks walks the whole
// ranking exactly once and then reports drained; the concatenation equals
// one full ranking of the union size.
func TestCursorDrainAndSmallPages(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	o := randomDAGOntology(r, 80, 0.3)
	coll := randomCollection(r, o, 30, 6)
	e := memEngine(o, coll)
	ctx := context.Background()
	q := []ontology.ConceptID{ontology.ConceptID(r.Intn(o.NumConcepts())), ontology.ConceptID(r.Intn(o.NumConcepts()))}

	cur, err := e.OpenRDS(q, Options{K: 3, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var all []Result
	for {
		page, err := cur.Next(ctx, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		all = append(all, page...)
	}
	// Drained stays drained.
	if page, err := cur.Next(ctx, 7); err != nil || len(page) != 0 {
		t.Fatalf("drained cursor returned %v, %v", page, err)
	}

	want, _, err := e.RDS(q, Options{K: coll.NumDocs() + 5, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, want, all, "drained concatenation")
}

// TestCursorContextErrorResumable: a cancelled Next leaves the cursor
// usable — retrying with a live context finishes the query with results
// identical to an uninterrupted run.
func TestCursorContextErrorResumable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 150, 0.35)
	coll := randomCollection(r, o, 80, 8)
	e := memEngine(o, coll)
	q := []ontology.ConceptID{
		ontology.ConceptID(r.Intn(o.NumConcepts())),
		ontology.ConceptID(r.Intn(o.NumConcepts())),
	}
	opts := Options{K: 10, ErrorThreshold: 0} // eps 0 examines late: many waves

	cur, err := e.OpenRDS(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cur.Next(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next under cancelled ctx: %v, want context.Canceled", err)
	}

	page, err := cur.Next(context.Background(), 5)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	want, _, err := e.RDS(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, want[:len(page)], page, "resumed page")
}

// TestCursorClosed: every operation on a closed cursor fails with
// ErrCursorClosed, and double Close is a no-op.
func TestCursorClosed(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	cur, err := e.OpenRDS(pf.Concepts("F"), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	cur.Close()
	if _, err := cur.Next(context.Background(), 1); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Next: %v, want ErrCursorClosed", err)
	}
	if _, err := cur.GrowK(context.Background(), 5); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("GrowK: %v, want ErrCursorClosed", err)
	}
	if _, _, err := cur.Run(context.Background()); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Run: %v, want ErrCursorClosed", err)
	}
}

// TestCursorOpenValidation: plan-stage errors surface at Open, before any
// traversal state is allocated.
func TestCursorOpenValidation(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	if _, err := e.OpenRDS(nil, Options{K: 2}); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("empty query: %v, want ErrEmptyQuery", err)
	}
	if _, err := e.OpenRDS(pf.Concepts("F"), Options{K: 2, Workers: -1}); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("negative workers: %v, want ErrNegativeWorkers", err)
	}
}

// TestBatchResumeAfterCancellation: a batch cancelled mid-flight keeps the
// aborted queries' cursor state; a second Run completes them with results
// identical to uninterrupted queries, without restarting completed ones.
func TestBatchResumeAfterCancellation(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	queries := [][]ontology.ConceptID{pf.Concepts("F", "I"), pf.Concepts("I"), pf.Concepts("J")}
	opts := Options{K: 2, ErrorThreshold: 1}

	b, err := e.NewBatchRDS(queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := 0
	resumeOpts := opts
	resumeOpts.Trace = func(ev TraceEvent) {
		if ev.Kind == TraceWaveStart && ev.Wave == 0 {
			started++
			if started == 2 {
				cancel() // the second query aborts at its next wave boundary
			}
		}
	}
	b2, err := e.NewBatchRDS(queries, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := b2.Run(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Run: %v, want context.Canceled", err)
	}
	if b2.Metrics()[0] == nil {
		t.Fatal("query 0 should have completed before the cancel")
	}
	exam0 := b2.Metrics()[0].DocsExamined

	if err := b2.Run(context.Background(), 1); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if got := b2.Metrics()[0].DocsExamined; got != exam0 {
		t.Fatalf("completed query was re-run: DocsExamined %d -> %d", exam0, got)
	}
	for i := range queries {
		want, _, err := e.RDS(queries[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, want, b2.Results()[i], fmt.Sprintf("batch query %d", i))
		if b2.Cursor(i) == nil {
			t.Fatalf("query %d has no cursor after completion", i)
		}
	}

	// The untouched batch b still runs from scratch.
	if err := b.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		assertSameResults(t, b.Results()[i], b2.Results()[i], fmt.Sprintf("batch-vs-batch query %d", i))
	}
}

// TestBatchPermanentFailureSticks: a non-context error (empty query) marks
// its slot permanently failed; re-running reports it again and completes
// the healthy queries.
func TestBatchPermanentFailureSticks(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	queries := [][]ontology.ConceptID{pf.Concepts("F"), nil, pf.Concepts("I")}
	b, err := e.NewBatchRDS(queries, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Run(context.Background(), 1); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("first Run: %v, want wrapped ErrEmptyQuery", err)
	}
	if err := b.Run(context.Background(), 1); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("second Run: %v, want the failure reported again", err)
	}
	if b.Results()[0] == nil || b.Results()[2] == nil {
		t.Fatal("healthy queries should have completed despite the failed slot")
	}
	if b.Results()[1] != nil || b.Cursor(1) != nil {
		t.Fatal("failed slot should have no results and no cursor")
	}
}

// FuzzCollectorTieBreak holds the collector stage to the canonical total
// order: for any offered set with unique doc IDs, the retained top-k must
// equal the reference "sort by (distance, then doc ID), take k" — the
// invariant both the sharded merge and GrowK resume are built on.
func FuzzCollectorTieBreak(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(30), uint8(4))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(10), uint8(100), uint8(2))
	f.Add(int64(4), uint8(0), uint8(10), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, k, n, distLevels uint8) {
		r := rand.New(rand.NewSource(seed))
		if distLevels == 0 {
			distLevels = 1
		}
		// Unique doc IDs, heavily colliding distances so ties dominate.
		docs := r.Perm(int(n) + 1)
		coll := newCollector(int(k))
		var offered []Result
		for _, d := range docs {
			res := Result{
				Doc:      corpus.DocID(d),
				Distance: float64(r.Intn(int(distLevels))) / float64(distLevels),
			}
			offered = append(offered, res)
			coll.offer(res)
		}
		got := coll.hk.sorted()

		ref := append([]Result(nil), offered...)
		for i := 1; i < len(ref); i++ { // insertion sort: no sort import games
			for j := i; j > 0 && worse(ref[j-1], ref[j]); j-- {
				ref[j-1], ref[j] = ref[j], ref[j-1]
			}
		}
		if len(ref) > int(k) {
			ref = ref[:k]
		}
		if len(got) != len(ref) {
			t.Fatalf("kept %d results, want %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("rank %d: got {doc %d, %v}, want {doc %d, %v} (lowest DocID must win ties)",
					i, got[i].Doc, got[i].Distance, ref[i].Doc, ref[i].Distance)
			}
		}

		// Growing the collector must re-rank the archive under the same
		// canonical order.
		coll.grow(int(k) * 2)
		grown := coll.hk.sorted()
		ref2 := append([]Result(nil), offered...)
		for i := 1; i < len(ref2); i++ {
			for j := i; j > 0 && worse(ref2[j-1], ref2[j]); j-- {
				ref2[j-1], ref2[j] = ref2[j], ref2[j-1]
			}
		}
		if len(ref2) > int(k)*2 {
			ref2 = ref2[:int(k)*2]
		}
		if len(grown) != len(ref2) {
			t.Fatalf("grown collector kept %d, want %d", len(grown), len(ref2))
		}
		for i := range ref2 {
			if grown[i] != ref2[i] {
				t.Fatalf("grown rank %d: got %+v, want %+v", i, grown[i], ref2[i])
			}
		}
	})
}

// TestTerminalEpsFinite guards the executor's termination bookkeeping: a
// drained traversal reports TerminalEps in [0, 1], never NaN/Inf, through
// cursor growth as well.
func TestTerminalEpsFinite(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	cur, err := e.OpenRDS(pf.Concepts("F"), Options{K: 2, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for _, k := range []int{2, 4, 50} {
		if _, err := cur.GrowK(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		eps := cur.Metrics().TerminalEps
		if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 || eps > 1 {
			t.Fatalf("k=%d: TerminalEps = %v, want a value in [0,1]", k, eps)
		}
	}
}
