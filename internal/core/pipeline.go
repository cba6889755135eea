package core

// The staged kNDS query pipeline. What used to be one monolithic search
// function is decomposed into explicit stages so the executor can pause,
// resume and grow a query without re-running it (see DESIGN.md, "Query
// pipeline"):
//
//	plan        query normalization, dedup, validation, DRC preparation,
//	            frontier seeding — everything immutable for the query's
//	            lifetime (queryPlan).
//	stepper     the valid-path BFS frontier; expands exactly one depth
//	            level per step, with the queue-limit pause for forced
//	            examinations (waveStepper).
//	bounds      the paper's Ld table: per-document partial distances and
//	            lower bounds, Eqs. 5-8 (boundTable).
//	policy      the examine-now-or-defer decision, ε_d ≤ ε_θ by default,
//	            pluggable via Options.ExamPolicy (ExamPolicy).
//	collector   the canonical tie-broken top-k plus the exact-distance
//	            archive that makes GrowK possible (collector).
//
// The executor wires the stages into the paper's wave loop. One stepWave
// call is one wave: traverse a BFS level, refresh candidate bounds, run
// the serial commit loop, then recompute the termination floor d⁻.
// Because every piece of mutable query state lives on the executor, a
// query is resumable: a context cancellation observed at a wave boundary
// leaves the state intact, and growK widens the collector and revives
// pruned candidates so the same traversal continues toward a larger k
// (the Cursor API in cursor.go).
//
// Resumability imposes two deliberate deviations from the monolith, both
// invisible to a fixed-k query:
//
//  1. the bound table keeps accumulating coverage for *pruned* documents
//     (only examined ones stop). A pruned document is out of the live
//     list, so fixed-k decisions never see the extra coverage — but after
//     growK revives it, its lower bound is exactly what an un-pruned run
//     would have accumulated, which is what makes GrowK bitwise-identical
//     to a fresh larger-k query.
//  2. the collector archives every examined result, not just the current
//     top-k, so a grown heap can be rebuilt from exact distances without
//     re-probing DRC.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/drc"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// queryPlan is the immutable output of the plan stage.
type queryPlan struct {
	sds       bool
	q         []ontology.ConceptID // deduplicated query concepts
	nq        int32
	opts      Options
	totalDocs int // collection size snapshot: concurrent adds wait for the next query
	prep      *drc.Prepared
	bl        *distance.BL
	policy    ExamPolicy
	// Generic measure mode (opts.Measure != nil). meas replaces DRC as the
	// exact-distance source: examinations evaluate the measure over the
	// per-origin valid-path distance vectors mvecs (mvecs[i][c] is the
	// shortest valid-path length from q[i] to concept c, infDist when
	// unreachable). When every origin was served from a measure seed vector
	// instead (mseeded), mvecs stays nil — the injected coverage already
	// holds the exact per-origin minima.
	meas    measure.Measure
	mvecs   [][]int32
	mseeded bool
}

// floorOf translates the wave stepper's traversal floor (a BFS depth) into
// the distance floor the bound table prunes with: the depth itself for the
// default Rada path, the measure's monotone LevelBound otherwise.
func (p *queryPlan) floorOf(bound float64) float64 {
	if p.meas == nil {
		return bound
	}
	return p.meas.LevelBound(bound)
}

// plan validates and normalizes the query and prepares the exact-distance
// calculator: DRC with a prepared query side, or the pairwise BL baseline
// for the ablation.
func (e *Engine) plan(sds bool, rawQuery []ontology.ConceptID, opts Options, m *Metrics) (*queryPlan, error) {
	if opts.Workers < 0 {
		return nil, ErrNegativeWorkers
	}
	q := dedupConcepts(rawQuery)
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	totalDocs := e.numDocs()
	for _, c := range q {
		if int(c) >= e.o.NumConcepts() {
			return nil, fmt.Errorf("core: query concept %d outside ontology", c)
		}
	}
	p := &queryPlan{sds: sds, q: q, nq: int32(len(q)), opts: opts, totalDocs: totalDocs}
	distStart := time.Now()
	switch {
	case opts.Measure != nil:
		if opts.UseBL {
			return nil, ErrMeasureBL
		}
		p.meas = opts.Measure // exact distances come from valid-path vectors, not DRC
	case opts.UseBL:
		p.bl = distance.NewBL(e.o, 0)
	default:
		cache := e.addrCache
		if opts.MaxPaths > 0 {
			cache = nil // capped enumeration differs from the cached one
		}
		p.prep = drc.PrepareCached(e.o, q, opts.MaxPaths, cache)
	}
	m.DistanceTime += time.Since(distStart)
	p.policy = opts.ExamPolicy
	if p.policy == nil {
		p.policy = ThresholdPolicy(opts.ErrorThreshold)
	}
	return p, nil
}

// bfsState is one queued traversal step: node reached from origin q[origin]
// at the given distance; down records whether the path has started
// descending (valid paths are up* down*, Section 3.1).
type bfsState struct {
	node   ontology.ConceptID
	origin int32
	depth  int32
	down   bool
}

// visitPageNodes is the number of concepts one visited-bit page covers.
// At 2 bits per concept a page is 512 bytes: small enough that a sparse
// traversal touching a handful of ontology regions allocates little, big
// enough that the page-table indirection stays cheap.
const visitPageNodes = 2048

// waveStepper owns the valid-path BFS frontier. Each executor wave pops
// exactly one depth level (or a queue-limit-bounded prefix of it) and
// pushes the next level's states.
type waveStepper struct {
	o     *ontology.Ontology
	queue []bfsState
	head  int
	// visited: per (origin, node) phase bits, held in lazily allocated
	// 2-bit pages (visited[origin][node/visitPageNodes]). Bit 1: reached
	// while still allowed to ascend (up phase); bit 2: reached in descent.
	// An up-phase visit dominates any later down-phase visit at equal or
	// larger depth. Pages and page tables are arena-carved; a nil outer
	// slice means dedup is off.
	visited  [][][]byte
	numPages int
	ar       *queryArena
}

// newWaveStepper seeds the frontier with every query origin except those
// marked in seeded (may be nil): a seeded origin's complete coverage was
// injected into the bound table from a cached Ddc vector, so running its
// BFS would only rediscover distances the table already holds.
func newWaveStepper(o *ontology.Ontology, q []ontology.ConceptID, dedup bool, seeded []bool, ar *queryArena) *waveStepper {
	w := &waveStepper{o: o, ar: ar, queue: ar.queueBuf[:0]}
	if dedup {
		w.visited = make([][][]byte, len(q))
		w.numPages = (o.NumConcepts() + visitPageNodes - 1) / visitPageNodes
	}
	for i, qi := range q {
		if seeded != nil && seeded[i] {
			continue
		}
		w.push(bfsState{node: qi, origin: int32(i), depth: 0, down: false})
	}
	return w
}

func (w *waveStepper) push(s bfsState) {
	if w.visited != nil {
		pt := w.visited[s.origin]
		if pt == nil {
			pt = w.ar.tables.AllocN(w.numPages)
			w.visited[s.origin] = pt
		}
		pg := pt[int(s.node)/visitPageNodes]
		if pg == nil {
			pg = w.ar.pages.AllocN(visitPageNodes / 4)
			pt[int(s.node)/visitPageNodes] = pg
		}
		bi := (int(s.node) % visitPageNodes) >> 2
		shift := uint(s.node&3) * 2
		bits := (pg[bi] >> shift) & 3
		if s.down {
			if bits != 0 { // up or down already seen
				return
			}
			pg[bi] |= 2 << shift
		} else {
			if bits&1 != 0 {
				return
			}
			pg[bi] |= 3 << shift // up dominates future down visits
		}
	}
	w.queue = append(w.queue, s)
}

func (w *waveStepper) exhausted() bool { return w.head >= len(w.queue) }

func (w *waveStepper) pending() int { return len(w.queue) - w.head }

// nextDepth is the depth of the next pending state; only valid while not
// exhausted.
func (w *waveStepper) nextDepth() int32 { return w.queue[w.head].depth }

// bound is the smallest depth still pending — the traversal floor every
// uncovered term contributes at least (+Inf once exhausted).
func (w *waveStepper) bound() float64 {
	if w.exhausted() {
		return math.Inf(1)
	}
	return float64(w.nextDepth())
}

func (w *waveStepper) pop() bfsState {
	s := w.queue[w.head]
	w.head++
	return s
}

// expand pushes s's valid-path neighbors: ascending is only allowed before
// the first descent (Example 4: {G,F} is never pushed because J was
// reached from F by descending).
func (w *waveStepper) expand(s bfsState) {
	if !s.down {
		for _, p := range w.o.Parents(s.node) {
			w.push(bfsState{node: p, origin: s.origin, depth: s.depth + 1, down: false})
		}
	}
	for _, c := range w.o.Children(s.node) {
		w.push(bfsState{node: c, origin: s.origin, depth: s.depth + 1, down: true})
	}
}

// reclaim drops the consumed queue prefix once it dominates the slice.
func (w *waveStepper) reclaim() {
	if w.head > 4096 && w.head > len(w.queue)/2 {
		w.queue = append(w.queue[:0], w.queue[w.head:]...)
		w.head = 0
	}
}

// docState is the paper's Ld entry: per-candidate accumulated distances.
// The default Rada path uses the integer fields (first contact is final:
// BFS depth order makes the first contacted concept the per-origin
// minimum). The generic measure path uses the float fields instead — a
// running minimum per origin, because a measure value is not monotone in
// contact order even though path lengths are.
// Every slice field is carved from the query's arena: coveredA/minA at
// discovery (length nq), the direction-B sets at capacity sizeB — a
// contacted concept is by construction one of the document's concepts, so
// the sorted insert below can never outgrow that capacity.
type docState struct {
	coveredA  []int32 // per query-origin min distance; -1 = not covered (Md)
	nCoveredA int32
	sumA      int64
	// SDS direction B (M'd): covered candidate-document concepts, sorted
	// ascending. Only membership and the running sum matter — the
	// first-contact depth folds into sumB and is never read back.
	coveredB []ontology.ConceptID
	sumB     int64
	sizeB    int32 // |d|
	// Generic measure mode: per-origin running minimum of the measure over
	// contacted concepts (+Inf = origin not covered), its sum over covered
	// origins, and the direction-B equivalents (minBNodes sorted ascending,
	// minBVals parallel to it).
	minA      []float64
	sumAF     float64
	minBNodes []ontology.ConceptID
	minBVals  []float64
	sumBF     float64

	examined bool
	pruned   bool
}

const unset = int32(-1)

// boundTable accumulates partial distances and lower bounds (Eqs. 5-8)
// for every discovered document. With a non-nil measure it runs the
// generalized forms: per-origin running minima of the measure instead of
// first-contact path lengths, and every uncovered term floored by the
// measure's LevelBound at the traversal depth (the floor the executor
// passes in).
type boundTable struct {
	sds  bool
	nq   int32
	meas measure.Measure      // nil on the default Rada path
	q    []ontology.ConceptID // deduplicated query, for measure evaluation
	ar   *queryArena
	// states is dense, indexed by DocID over the plan's snapshot (and grown
	// past it if a concurrently appended document surfaces in postings);
	// nil = not discovered. all lists discovered documents in discovery
	// order — the deterministic iteration surface the old map lacked.
	states  []*docState
	all     []corpus.DocID
	live    []corpus.DocID // discovered, not yet examined or pruned
	candBuf []cand         // wave-local candidate buffer, reused across waves
}

func newBoundTable(sds bool, nq int32, meas measure.Measure, q []ontology.ConceptID, ar *queryArena, totalDocs int) *boundTable {
	return &boundTable{sds: sds, nq: nq, meas: meas, q: q, ar: ar, states: ar.ptrs.AllocN(totalDocs)}
}

// state returns doc's entry, nil if undiscovered.
func (b *boundTable) state(doc corpus.DocID) *docState {
	if int(doc) >= len(b.states) {
		return nil
	}
	return b.states[doc]
}

// discover registers a fresh docState for doc, growing the dense table if
// the document was appended after the plan snapshot.
func (b *boundTable) discover(doc corpus.DocID, st *docState, m *Metrics) {
	if n := int(doc) + 1; n > len(b.states) {
		grown := make([]*docState, n+n/4)
		copy(grown, b.states)
		b.states = grown[:n]
	}
	b.states[doc] = st
	b.all = append(b.all, doc)
	b.live = append(b.live, doc)
	m.DocsDiscovered++
}

// newDocState carves a docState with its direction-A coverage array from
// the arena (direction B is carved by observe, which knows sizeB).
func (b *boundTable) newDocState() *docState {
	st := b.ar.docs.Alloc()
	if b.meas != nil {
		st.minA = b.ar.f64.AllocN(int(b.nq))
		for i := range st.minA {
			st.minA[i] = math.Inf(1)
		}
	} else {
		st.coveredA = b.ar.i32.AllocN(int(b.nq))
		for i := range st.coveredA {
			st.coveredA[i] = unset
		}
	}
	return st
}

// findConcept binary-searches a sorted concept slice, returning the
// insertion index for c and whether c is already present.
func findConcept(a []ontology.ConceptID, c ontology.ConceptID) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == c
}

// insertAt inserts v at index i of a sorted slice. The direction-B sets
// are carved at capacity sizeB, so the append stays in arena storage.
func insertAt[T any](a []T, i int, v T) []T {
	var zero T
	a = append(a, zero)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

// observe records one BFS contact with doc. Coverage keeps accumulating
// for pruned documents — they are out of the live list, so fixed-k
// decisions are unaffected, but growK can revive them with bounds as
// tight as an un-pruned run's (examined documents are final and stop).
func (b *boundTable) observe(e *Engine, doc corpus.DocID, s bfsState, m *Metrics) error {
	st := b.state(doc)
	if st == nil {
		var sizeB int
		if b.sds {
			n, err := e.fwd.NumConcepts(doc)
			if err != nil {
				return fmt.Errorf("core: forward(%d): %w", doc, err)
			}
			sizeB = n
		}
		st = b.newDocState()
		if b.sds {
			st.sizeB = int32(sizeB)
			if b.meas != nil {
				st.minBNodes = b.ar.cids.AllocN(sizeB)[:0]
				st.minBVals = b.ar.f64.AllocN(sizeB)[:0]
			} else {
				st.coveredB = b.ar.cids.AllocN(sizeB)[:0]
			}
		}
		b.discover(doc, st, m)
	}
	if st.examined {
		return nil
	}
	if b.meas != nil {
		b.observeMeasure(st, s)
		return nil
	}
	if st.coveredA[s.origin] == unset {
		st.coveredA[s.origin] = s.depth
		st.nCoveredA++
		st.sumA += int64(s.depth)
	}
	if b.sds {
		if i, ok := findConcept(st.coveredB, s.node); !ok {
			st.coveredB = insertAt(st.coveredB, i, s.node)
			st.sumB += int64(s.depth)
		}
	}
	return nil
}

// observeMeasure folds one contact into the generic running minima. Unlike
// the Rada path, later contacts can improve a covered term: the traversal
// reveals pairs in path-length order, but the measure value of a longer
// path through different endpoints may be smaller.
func (b *boundTable) observeMeasure(st *docState, s bfsState) {
	v := b.meas.Pair(b.q[s.origin], s.node, s.depth)
	if old := st.minA[s.origin]; v < old {
		if math.IsInf(old, 1) {
			st.nCoveredA++
			st.sumAF += v
		} else {
			st.sumAF += v - old
		}
		st.minA[s.origin] = v
	}
	if b.sds {
		// The measure is symmetric, so the same value covers direction B.
		if i, ok := findConcept(st.minBNodes, s.node); !ok {
			st.minBNodes = insertAt(st.minBNodes, i, s.node)
			st.minBVals = insertAt(st.minBVals, i, v)
			st.sumBF += v
		} else if v < st.minBVals[i] {
			st.sumBF += v - st.minBVals[i]
			st.minBVals[i] = v
		}
	}
}

// partialOf is the accumulated partial distance (Eqs. 5, 7).
func (b *boundTable) partialOf(st *docState) float64 {
	if b.meas != nil {
		return b.partialOfMeasure(st)
	}
	if !b.sds {
		return float64(st.sumA)
	}
	p := float64(st.sumA) / float64(b.nq)
	if st.sizeB > 0 {
		p += float64(st.sumB) / float64(st.sizeB)
	}
	return p
}

func (b *boundTable) partialOfMeasure(st *docState) float64 {
	if !b.sds {
		return st.sumAF
	}
	p := st.sumAF / float64(b.nq)
	if st.sizeB > 0 {
		p += st.sumBF / float64(st.sizeB)
	}
	return p
}

// lowerOf is the lower bound (Eqs. 6, 8): every uncovered term contributes
// at least floor — the traversal depth on the Rada path, the measure's
// LevelBound at that depth in generic mode.
func (b *boundTable) lowerOf(st *docState, floor float64) float64 {
	if b.meas != nil {
		return b.lowerOfMeasure(st, floor)
	}
	// Guard the uncovered terms: at traversal exhaustion floor is +Inf
	// and a fully covered term must contribute exactly its sum
	// (0 * Inf would be NaN).
	uncoveredA := float64(int64(b.nq) - int64(st.nCoveredA))
	termA := float64(st.sumA)
	if uncoveredA > 0 {
		termA += uncoveredA * floor
	}
	if !b.sds {
		return termA
	}
	lb := termA / float64(b.nq)
	if st.sizeB > 0 {
		termB := float64(st.sumB)
		if uncoveredB := float64(int(st.sizeB) - len(st.coveredB)); uncoveredB > 0 {
			termB += uncoveredB * floor
		}
		lb += termB / float64(st.sizeB)
	}
	return lb
}

// lowerOfMeasure is the generic Eq. 6/8 form. A covered term's running
// minimum is only an upper bound of its true contribution (a longer path
// may still yield a smaller measure value), so each covered term
// contributes min(running, floor) — every unseen pair is at least floor —
// and each uncovered term contributes floor. O(nq) per candidate, versus
// the Rada path's O(1) sums.
func (b *boundTable) lowerOfMeasure(st *docState, floor float64) float64 {
	termA := 0.0
	for _, v := range st.minA {
		// min(running, floor) covers every case, exhaustion included: an
		// uncovered origin (v = +Inf) contributes floor; at floor = +Inf a
		// covered origin contributes its running minimum; both +Inf makes
		// the whole bound +Inf — same as the Rada path's uncovered term at
		// exhaustion, and examination replaces it with the exact distance.
		termA += math.Min(v, floor)
	}
	if !b.sds {
		return termA
	}
	lb := termA / float64(b.nq)
	if st.sizeB > 0 {
		termB := 0.0
		for _, v := range st.minBVals {
			termB += math.Min(v, floor)
		}
		if uncoveredB := float64(int(st.sizeB) - len(st.minBVals)); uncoveredB > 0 {
			termB += uncoveredB * floor
		}
		lb += termB / float64(st.sizeB)
	}
	return lb
}

// undiscoveredLB bounds any document the traversal has not touched yet;
// floor has the same meaning as in lowerOf.
func (b *boundTable) undiscoveredLB(floor float64, totalDocs int) float64 {
	if len(b.all) >= totalDocs {
		return math.Inf(1)
	}
	if !b.sds {
		return float64(b.nq) * floor
	}
	return 2 * floor
}

// cand is one unexamined candidate in a wave's examination order.
type cand struct {
	doc     corpus.DocID
	st      *docState
	lb      float64
	partial float64
}

// candidates compacts the live list and returns the unexamined, unpruned
// candidates in commit order (lower bound, then doc ID).
func (b *boundTable) candidates(floor float64) []cand {
	cands := b.candBuf[:0]
	compacted := b.live[:0]
	for _, doc := range b.live {
		st := b.states[doc]
		if st.examined || st.pruned {
			continue
		}
		compacted = append(compacted, doc)
		cands = append(cands, cand{doc: doc, st: st, lb: b.lowerOf(st, floor), partial: b.partialOf(st)})
	}
	b.live = compacted
	b.candBuf = cands[:0]
	sort.Sort(candSorter(cands))
	return cands
}

// candSorter orders candidates by (lower bound, doc ID) without the
// per-wave closure allocation of sort.Slice.
type candSorter []cand

func (c candSorter) Len() int      { return len(c) }
func (c candSorter) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c candSorter) Less(i, j int) bool {
	if c[i].lb != c[j].lb {
		return c[i].lb < c[j].lb
	}
	return c[i].doc < c[j].doc
}

// revivePruned clears every prune mark and rebuilds the live list from
// scratch (growK widened the heap, so the old kth-distance prunes no
// longer hold). Rebuilding rather than appending keeps live duplicate-free
// even for documents pruned after the final compaction of the previous
// epoch.
func (b *boundTable) revivePruned() {
	b.live = b.live[:0]
	for _, doc := range b.all {
		st := b.states[doc]
		st.pruned = false
		if !st.examined {
			b.live = append(b.live, doc)
		}
	}
}

// executor drives the staged pipeline. All mutable query state lives here,
// which is what makes a query steppable (Cursor) and growable (GrowK).
type executor struct {
	e    *Engine
	p    *queryPlan
	m    *Metrics
	tr   tracer
	smp  stageSampler
	step *waveStepper
	bt   *boundTable
	coll *collector
	// ar backs all per-query state above; acquired from the engine's pool
	// at plan time, released on close (a cursor's arena survives GrowK and
	// Next — its lifetime is the cursor's).
	ar *queryArena

	wave       int // global wave index for trace events
	epochWaves int // waves in the current termination epoch (growK resets)
	maxWaves   int
	lastPause  int32   // last depth level paused by the queue limit
	lastDMinus float64 // d⁻ of the latest wave, for TerminalEps
	results    []Result
	done       bool
	failed     error // sticky non-context error: the state is mid-wave
}

// newExecutor runs the plan stage and seeds the frontier. The returned
// Metrics is non-nil even on error, matching the monolith's contract.
func (e *Engine) newExecutor(sds bool, rawQuery []ontology.ConceptID, opts Options) (*executor, *Metrics, error) {
	m := &Metrics{}
	defer e.beginQuery(m)()
	tr := newTracer(opts.Trace)
	smp := newStageSampler(opts.StageAllocs)
	mk := smp.mark()
	p, err := e.plan(sds, rawQuery, opts, m)
	smp.record(m, StagePlan, mk)
	if err != nil {
		return nil, m, err
	}
	// Resolve cached seed vectors (nil without Options.Cache): Ddc vectors
	// on the default path, measure seed vectors in generic mode. Seeded
	// origins are excluded from the BFS frontier; their exact coverage is
	// injected into the bound table below, before the first wave. Either
	// loader resolves every origin or none, so a non-nil slice means the
	// whole frontier is replaced by injection (an empty vector is a valid
	// seed: no document contains a concept reachable from that origin,
	// which is exactly what its BFS would have found).
	var seeds [][]cache.DocDist
	var mseeds [][]cache.DocFDist
	mk = smp.mark()
	if p.meas == nil {
		seeds, err = e.loadSeeds(p, &tr, m)
	} else {
		mseeds, err = e.loadMeasureSeeds(p, &tr, m)
	}
	smp.record(m, StageSeed, mk)
	if err != nil {
		return nil, m, err
	}
	if p.meas != nil && mseeds == nil {
		// No cache (or SDS): examinations need the per-origin valid-path
		// vectors to evaluate the measure exactly.
		mk = smp.mark()
		p.mvecs = make([][]int32, len(p.q))
		for i, c := range p.q {
			p.mvecs[i] = validPathDistances(e.o, c)
		}
		m.DistanceTime += smp.record(m, StagePlan, mk)
	}
	var seeded []bool
	if seeds != nil || mseeds != nil {
		seeded = make([]bool, len(p.q))
		for i := range seeded {
			seeded[i] = true
		}
	}
	ar := e.acquireArena()
	x := &executor{
		e:    e,
		p:    p,
		m:    m,
		tr:   tr,
		smp:  smp,
		ar:   ar,
		step: newWaveStepper(e.o, p.q, !opts.NoDedup, seeded, ar),
		bt:   newBoundTable(sds, p.nq, p.meas, p.q, ar, p.totalDocs),
		coll: newCollector(opts.K),
		// Each BFS depth level yields at most two waves (one if the queue
		// limit pauses it for a forced examination); the guard is a safety
		// net against implementation bugs, not a tuning knob.
		maxWaves:   2*(2*e.o.MaxDepth()+4) + 8,
		lastPause:  -1,
		lastDMinus: math.Inf(1),
	}
	if seeds != nil {
		mk = smp.mark()
		for i, docs := range seeds {
			x.bt.injectSeed(int32(i), docs, p.totalDocs, m)
		}
		m.TraversalTime += x.smp.record(m, StageSeed, mk)
	}
	if mseeds != nil {
		mk = smp.mark()
		for i, docs := range mseeds {
			x.bt.injectMeasureSeed(int32(i), docs, p.totalDocs, m)
		}
		p.mseeded = true
		m.TraversalTime += x.smp.record(m, StageSeed, mk)
	}
	return x, m, nil
}

// run steps waves until the termination condition holds. A context error
// leaves the state intact for a later resume; any other error poisons the
// executor (the wave aborted midway, so its state is not consistent).
func (x *executor) run(ctx context.Context) error {
	if x.failed != nil {
		return x.failed
	}
	if x.done {
		return nil
	}
	defer x.e.beginQuery(x.m)()
	for {
		done, err := x.stepWave(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				x.failed = err
			}
			return err
		}
		if done {
			x.finish()
			return nil
		}
	}
}

// stepWave executes one wave of the pipeline and reports whether the
// query terminated.
func (x *executor) stepWave(ctx context.Context) (bool, error) {
	if x.epochWaves > x.maxWaves {
		return false, fmt.Errorf("core: kNDS failed to terminate after %d waves", x.epochWaves)
	}
	x.epochWaves++
	// Cancellation is checked once per wave: waves are short relative to
	// query latency, and at a wave boundary no wave is half applied — so a
	// cancelled query's state is consistent and the wave can be retried
	// under a fresh context.
	if err := ctx.Err(); err != nil {
		return false, err
	}
	forced := x.step.exhausted()

	// --- Traversal stage: expand one BFS depth level.
	if !x.step.exhausted() {
		if err := x.traverse(&forced); err != nil {
			return false, err
		}
	}
	bound := x.step.bound()
	// The distance floor every unseen pair is subject to: the BFS depth
	// itself on the Rada path, the measure's LevelBound at that depth in
	// generic mode (identical for measure.Rada()).
	floor := x.p.floorOf(bound)

	// --- Bound stage: refresh candidate bounds in commit order.
	mk := x.smp.mark()
	cands := x.bt.candidates(floor)
	x.m.TraversalTime += x.smp.record(x.m, StageBound, mk)

	// --- Examination stage: the serial commit loop. Whether to examine
	// the next candidate depends on the top-k heap as it stands after the
	// previous one (Eq. 9, Section 4), so candidates are examined one at a
	// time, each exact distance computed inline.
	mk = x.smp.mark()
	exhausted := math.IsInf(bound, 1)
	for i := range cands {
		c := &cands[i]
		kth := x.coll.hk.kth()
		if x.coll.hk.full() && c.lb > kth {
			// Optimization 1: this candidate can never enter the top-k —
			// its distance is at least lb, strictly above the k-th.
			c.st.pruned = true
			continue
		}
		if x.coll.hk.full() && c.lb == kth && c.doc > x.coll.hk.worst().Doc {
			// Even at dist == lb == kth this candidate loses the
			// canonical (distance, doc) tie-break against the current
			// k-th result, and the heap only ever improves — prune it so
			// d⁻ can rise strictly above kth and terminate the query.
			c.st.pruned = true
			continue
		}
		eps := 0.0
		if c.lb > 0 {
			eps = 1 - c.partial/c.lb
		}
		if !x.p.policy.ShouldExamine(ExamDecision{
			Eps: eps, Lower: c.lb, Partial: c.partial, Forced: forced, Exhausted: exhausted,
		}) {
			break
		}
		if err := x.examine(c.doc, c.st); err != nil {
			return false, err
		}
	}
	x.smp.record(x.m, StageExam, mk)

	// --- Collect stage: termination floor, early output (optimization 4).
	mk = x.smp.mark()
	dMinus := x.bt.undiscoveredLB(floor, x.p.totalDocs)
	for _, doc := range x.bt.live {
		st := x.bt.states[doc]
		if st.examined || st.pruned {
			continue
		}
		if lb := x.bt.lowerOf(st, floor); lb < dMinus {
			dMinus = lb
		}
	}
	if x.p.opts.Progressive != nil {
		x.coll.emitProvable(dMinus, x.p.opts.Progressive)
	}
	x.lastDMinus = dMinus
	x.tr.emit(TraceEvent{Kind: TraceBound, Wave: x.wave, Value: dMinus})
	if x.p.opts.OnBound != nil {
		x.p.opts.OnBound(dMinus)
	}
	x.smp.record(x.m, StageCollect, mk)
	x.wave++
	// Strict comparison: at dMinus == kth an outstanding candidate (or
	// an undiscovered document) could still reach exactly the k-th
	// distance with a smaller doc ID and win the canonical tie-break.
	if x.coll.hk.full() && dMinus > x.coll.hk.kth() {
		return true, nil
	}
	if x.step.exhausted() {
		// Traversal exhausted; the forced examination above drained
		// every candidate that could still matter.
		return true, nil
	}
	return false, nil
}

// traverse pops one BFS depth level (pausing once per level when the
// queue limit forces an examination), feeding document contacts to the
// bound table and neighbor states back to the stepper.
func (x *executor) traverse(forced *bool) error {
	mk := x.smp.mark()
	waveDepth := x.step.nextDepth()
	var waveVisited []VisitedNode
	popBase := x.m.NodesVisited
	x.tr.emit(TraceEvent{Kind: TraceWaveStart, Wave: x.wave, Depth: int(waveDepth), N: x.step.pending()})
	for !x.step.exhausted() && x.step.nextDepth() == waveDepth {
		if ql := x.p.opts.QueueLimit; ql > 0 && x.step.pending() > ql && x.lastPause != waveDepth {
			x.lastPause = waveDepth
			*forced = true
			x.m.ForcedExams++
			x.tr.emit(TraceEvent{Kind: TraceForcedExam, Wave: x.wave, Depth: int(waveDepth), N: x.step.pending()})
			break
		}
		s := x.step.pop()
		x.m.NodesVisited++
		if x.p.opts.OnWave != nil {
			waveVisited = append(waveVisited, VisitedNode{Node: s.node, Origin: int(s.origin)})
		}
		postings, err := x.e.inv.Postings(s.node)
		if err != nil {
			return fmt.Errorf("core: postings(%d): %w", s.node, err)
		}
		for _, doc := range postings {
			if err := x.bt.observe(x.e, doc, s, x.m); err != nil {
				return err
			}
		}
		x.step.expand(s)
	}
	x.m.Iterations++
	x.tr.emit(TraceEvent{Kind: TraceWaveEnd, Wave: x.wave, Depth: int(waveDepth), N: int(x.m.NodesVisited - popBase)})
	if x.p.opts.OnWave != nil {
		info := WaveInfo{Depth: int(waveDepth), Visited: waveVisited,
			CoveredDist: make(map[corpus.DocID][]int32, len(x.bt.all))}
		for _, doc := range x.bt.all {
			if st := x.bt.states[doc]; !st.examined && !st.pruned {
				info.CoveredDist[doc] = st.coveredA
			}
		}
		x.p.opts.OnWave(info)
	}
	x.step.reclaim()
	x.m.TraversalTime += x.smp.record(x.m, StageWave, mk)
	return nil
}

// examine computes the exact distance of a candidate and offers it to the
// collector (the paper's lines 17-27).
func (x *executor) examine(doc corpus.DocID, st *docState) error {
	st.examined = true
	x.m.DocsExamined++
	if x.p.meas != nil {
		// Generic measure mode: optimization 3 is unsound here (running
		// minima over contacted concepts are upper bounds, not exact), so
		// the exact distance is always recomputed — from the injected seed
		// minima when every origin was seeded, from the valid-path vectors
		// otherwise.
		t0 := time.Now()
		dist, err := x.exactMeasure(doc, st)
		x.m.DistanceTime += time.Since(t0)
		if err != nil {
			return err
		}
		x.m.DRCCalls++
		x.tr.emit(TraceEvent{Kind: TraceDRCProbe, Doc: doc, Value: dist, N: 1})
		x.coll.offer(Result{Doc: doc, Distance: dist})
		return nil
	}
	fullyCovered := st.nCoveredA == x.p.nq && (!x.p.sds || len(st.coveredB) == int(st.sizeB))
	var dist float64
	drcRan := 1
	if fullyCovered && !x.p.opts.NoSkipWhenCovered {
		// Optimization 3: BFS first-contact distances are exact, so the
		// accumulated partial distance is the true distance.
		dist = x.bt.partialOf(st)
		drcRan = 0
	} else {
		concepts, err := x.e.fwd.Concepts(doc)
		if err != nil {
			return fmt.Errorf("core: forward(%d): %w", doc, err)
		}
		t0 := time.Now()
		switch {
		case x.p.opts.UseBL && x.p.sds:
			dist = x.p.bl.DocDoc(concepts, x.p.q)
		case x.p.opts.UseBL:
			dist = x.p.bl.DocQuery(concepts, x.p.q)
		case x.p.sds:
			dist, err = x.p.prep.DocDocScratch(concepts, &x.ar.scr)
		default:
			dist, err = x.p.prep.DocQueryScratch(concepts, &x.ar.scr)
		}
		x.m.DistanceTime += time.Since(t0)
		if err != nil {
			return err
		}
		x.m.DRCCalls++
	}
	x.tr.emit(TraceEvent{Kind: TraceDRCProbe, Doc: doc, Value: dist, N: drcRan})
	x.coll.offer(Result{Doc: doc, Distance: dist})
	return nil
}

// finish materializes the results of the current epoch: canonical order,
// terminal metrics, the Terminate trace event and the final progressive
// flush.
func (x *executor) finish() {
	mk := x.smp.mark()
	x.results = x.coll.hk.sorted()
	x.m.ResultCount = len(x.results)
	x.m.TerminalEps = terminalEps(x.coll.hk.kth(), x.lastDMinus)
	x.tr.emit(TraceEvent{Kind: TraceTerminate, Value: x.m.TerminalEps, N: len(x.results)})
	if x.p.opts.Progressive != nil {
		x.coll.flushFinal(x.results, x.p.opts.Progressive)
	}
	x.smp.record(x.m, StageCollect, mk)
	x.done = true
}

// growK widens the collector to k and revives pruned candidates so the
// next run continues the saved traversal toward the larger k. A no-op for
// k within the current capacity.
func (x *executor) growK(k int) {
	if k <= x.coll.capacity() || x.failed != nil {
		return
	}
	x.coll.grow(k)
	x.bt.revivePruned()
	x.epochWaves = 0 // fresh termination epoch for the maxWaves guard
	x.results = nil
	x.done = false
}

// close returns the query's arena to the engine for reuse. The executor
// must not run again: every docState, coverage array and visited page it
// held is recycled storage now.
func (x *executor) close() {
	if x.ar != nil {
		x.ar.queueBuf = x.step.queue[:0]
		x.e.releaseArena(x.ar, x.p.opts.ArenaRetainBytes)
		x.ar = nil
	}
}
