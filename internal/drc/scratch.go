package drc

import (
	"sort"
	"unsafe"

	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
	"conceptrank/internal/radix"
)

// Scratch recycles all per-probe DRC state: the radix workspace (nodes,
// edges, labels, topo scratch), the document-side entry buffer, the
// distance annotation arrays and the DRadix header itself. kNDS examines
// hundreds of candidates per query against the same prepared query side;
// with a scratch each probe after the first few performs no heap
// allocation.
//
// A Scratch is not safe for concurrent use, and the DRadix produced by a
// scratch probe is valid only until the scratch's next use: kNDS keeps one
// per query arena, the partitioned full scan one per worker.
type Scratch struct {
	ws      radix.Workspace
	entries []preparedEntry
	ddoc    []int32
	dquery  []int32
	dr      DRadix
}

// Bytes estimates the scratch's retained footprint; the radix workspace
// dominates it.
func (s *Scratch) Bytes() int64 {
	return s.ws.Bytes() + int64(cap(s.entries))*int64(unsafe.Sizeof(preparedEntry{})) +
		int64(cap(s.ddoc)+cap(s.dquery))*int64(unsafe.Sizeof(int32(0)))
}

// Release drops all retained memory; the scratch remains usable.
func (s *Scratch) Release() {
	s.ws.Release()
	*s = Scratch{}
}

// entrySorter sorts preparedEntry slices by address without the closure
// allocation of sort.Slice.
type entrySorter []preparedEntry

func (e entrySorter) Len() int      { return len(e) }
func (e entrySorter) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e entrySorter) Less(i, j int) bool {
	return dewey.Compare(e[i].addr, e[j].addr) < 0
}

// BuildScratch is Prepared.Build with all per-probe state drawn from s. The
// returned DRadix aliases scratch memory and is invalidated by the next
// probe through the same scratch.
func (p *Prepared) BuildScratch(doc []ontology.ConceptID, s *Scratch) (*DRadix, error) {
	docEntries := s.entries[:0]
	for _, c := range doc {
		for _, a := range p.addresses(c) {
			docEntries = append(docEntries, preparedEntry{addr: a, mark: radix.MarkDoc})
		}
	}
	sort.Sort(entrySorter(docEntries))
	s.entries = docEntries

	dag := s.ws.NewDAG(p.o)
	// Sorted merge of the two entry streams, mirroring Algorithm 1's
	// parallel consumption of Pd and Pq.
	i, j := 0, 0
	for i < len(docEntries) || j < len(p.entries) {
		var e preparedEntry
		switch {
		case i >= len(docEntries):
			e = p.entries[j]
			j++
		case j >= len(p.entries):
			e = docEntries[i]
			i++
		case dewey.Compare(docEntries[i].addr, p.entries[j].addr) <= 0:
			e = docEntries[i]
			i++
		default:
			e = p.entries[j]
			j++
		}
		if _, err := dag.Insert(e.addr, e.mark); err != nil {
			return nil, err
		}
	}

	n := dag.NumNodes()
	if cap(s.ddoc) < n {
		s.ddoc = make([]int32, n)
		s.dquery = make([]int32, n)
	}
	s.dr = DRadix{
		DAG:    dag,
		DDoc:   s.ddoc[:n],
		DQuery: s.dquery[:n],
		topo:   dag.TopoOrder(),
	}
	dr := &s.dr
	for i, nd := range dag.Nodes() {
		dr.DDoc[i] = Inf
		dr.DQuery[i] = Inf
		if nd.Marks&radix.MarkDoc != 0 {
			dr.DDoc[i] = 0
		}
		if nd.Marks&radix.MarkQuery != 0 {
			dr.DQuery[i] = 0
		}
	}
	dr.tune()
	return dr, nil
}

// DocQueryScratch computes Ddq(doc, query) against the prepared query,
// reusing s for all per-probe state.
func (p *Prepared) DocQueryScratch(doc []ontology.ConceptID, s *Scratch) (float64, error) {
	dr, err := p.BuildScratch(doc, s)
	if err != nil {
		return 0, err
	}
	return dr.DocQueryDistance(p.query), nil
}

// DocDocScratch computes Ddd(doc, query doc) against the prepared query
// document, reusing s for all per-probe state.
func (p *Prepared) DocDocScratch(doc []ontology.ConceptID, s *Scratch) (float64, error) {
	dr, err := p.BuildScratch(doc, s)
	if err != nil {
		return 0, err
	}
	return dr.DocDocDistance(doc, p.query), nil
}
