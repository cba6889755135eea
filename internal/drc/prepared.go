package drc

import (
	"sort"

	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
	"conceptrank/internal/radix"
)

// Prepared caches the query-side Dewey address list so that kNDS, which
// probes DRC once per candidate document against the same query, does not
// re-enumerate and re-sort the query addresses on every probe. For SDS over
// the PATIENT collection a query document has ~700 concepts and ~7000
// addresses, so this is a significant constant-factor saving (an
// engineering optimization on top of the paper's algorithm; it does not
// change any result).
//
// A Prepared is immutable after construction and safe for concurrent use:
// Build, DocQuery and DocDoc only read the sorted query entries and
// allocate fresh per-call state, and the optional AddressCache is itself
// concurrency-safe. The partitioned full scan relies on this to probe one
// Prepared from every worker.
type Prepared struct {
	o       *ontology.Ontology
	query   []ontology.ConceptID
	entries []preparedEntry // sorted by address
	maxPath int
	cache   *AddressCache // optional
}

type preparedEntry struct {
	addr dewey.Path
	mark radix.Mark
}

// Prepare enumerates and sorts the addresses of the query concepts.
func Prepare(o *ontology.Ontology, query []ontology.ConceptID, maxPaths int) *Prepared {
	return PrepareCached(o, query, maxPaths, nil)
}

// PrepareCached is Prepare with a shared AddressCache for the per-document
// enumerations done by Build (nil disables caching).
func PrepareCached(o *ontology.Ontology, query []ontology.ConceptID, maxPaths int, cache *AddressCache) *Prepared {
	p := &Prepared{o: o, query: append([]ontology.ConceptID(nil), query...), maxPath: maxPaths, cache: cache}
	for _, c := range query {
		for _, a := range p.addresses(c) {
			p.entries = append(p.entries, preparedEntry{addr: a, mark: radix.MarkQuery})
		}
	}
	sort.Slice(p.entries, func(i, j int) bool {
		return dewey.Compare(p.entries[i].addr, p.entries[j].addr) < 0
	})
	return p
}

func (p *Prepared) addresses(c ontology.ConceptID) []dewey.Path {
	if p.cache != nil {
		return p.cache.Addresses(c)
	}
	return p.o.PathAddressesLimit(c, p.maxPath)
}

// Query returns the prepared query concepts (read-only).
func (p *Prepared) Query() []ontology.ConceptID { return p.query }

// Build constructs the tuned D-Radix of (doc, prepared query).
func (p *Prepared) Build(doc []ontology.ConceptID) (*DRadix, error) {
	docEntries := make([]preparedEntry, 0, len(doc)*2)
	for _, c := range doc {
		for _, a := range p.addresses(c) {
			docEntries = append(docEntries, preparedEntry{addr: a, mark: radix.MarkDoc})
		}
	}
	sort.Slice(docEntries, func(i, j int) bool {
		return dewey.Compare(docEntries[i].addr, docEntries[j].addr) < 0
	})

	dag := radix.New(p.o)
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

	dr := &DRadix{
		DAG:    dag,
		DDoc:   make([]int32, dag.NumNodes()),
		DQuery: make([]int32, dag.NumNodes()),
		topo:   dag.TopoOrder(),
	}
	for i, n := range dag.Nodes() {
		dr.DDoc[i] = Inf
		dr.DQuery[i] = Inf
		if n.Marks&radix.MarkDoc != 0 {
			dr.DDoc[i] = 0
		}
		if n.Marks&radix.MarkQuery != 0 {
			dr.DQuery[i] = 0
		}
	}
	dr.tune()
	return dr, nil
}

// DocQuery computes Ddq(doc, query) against the prepared query.
func (p *Prepared) DocQuery(doc []ontology.ConceptID) (float64, error) {
	dr, err := p.Build(doc)
	if err != nil {
		return 0, err
	}
	return dr.DocQueryDistance(p.query), nil
}

// DocDoc computes Ddd(doc, query doc) against the prepared query document.
func (p *Prepared) DocDoc(doc []ontology.ConceptID) (float64, error) {
	dr, err := p.Build(doc)
	if err != nil {
		return 0, err
	}
	return dr.DocDocDistance(doc, p.query), nil
}
