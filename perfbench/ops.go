package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"conceptrank/internal/bench"
	"conceptrank/internal/corpus"
	"conceptrank/internal/emrgen"
	"conceptrank/internal/index"
	"conceptrank/internal/ontogen"
	"conceptrank/internal/ontology"
)

// Paper Table 4 defaults used by every workload.
const (
	defaultK  = 10
	defaultNq = 5
	epsRadio  = 0.9 // ε_θ for RADIO; PATIENT uses bench.DefaultEpsPatient
	pageK     = 30  // GrowK target of a radio-cluster page op
	zipfS     = 1.3 // query-concept popularity skew of radio-zipf-append
	// ontologySeed fixes the generated ontology: the workload seed varies
	// the op stream, never the data the ops run against.
	ontologySeed = 1
)

type opKind uint8

const (
	opRDS opKind = iota
	opSDS
	opAppend
)

func (k opKind) String() string {
	switch k {
	case opRDS:
		return "rds"
	case opSDS:
		return "sds"
	}
	return "append"
}

// op is one pre-generated operation of a workload's stream.
type op struct {
	kind     opKind
	concepts []ontology.ConceptID // query concepts, query document, or appended document
	page     bool                 // radio-cluster RDS: follow the first page with GrowK(pageK)
	verify   bool                 // checked against the reference after the run
}

// dataset is one generated, filtered collection over its ontology.
type dataset struct {
	o        *ontology.Ontology
	coll     *corpus.Collection
	filter   index.FilterConfig
	eligible []ontology.ConceptID // filter-passing query vocabulary
}

// loadDataset generates the ontology and one collection and applies the
// paper's Section 6.1 filters, exactly as bench.NewEnv does for each of
// its two datasets.
func loadDataset(concepts int, p emrgen.Profile) (*dataset, error) {
	o, err := ontogen.Generate(ontogen.Config{NumConcepts: concepts, Seed: ontologySeed})
	if err != nil {
		return nil, fmt.Errorf("generate ontology: %w", err)
	}
	coll, err := emrgen.GenerateConceptSets(o, p)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", p.Name, err)
	}
	cfg := index.FilterConfig{MinDepth: 4, CFThreshold: index.MuSigmaCF(coll)}
	filtered, _ := index.ApplyFilter(coll, o, cfg)
	eligible := index.EligibleConcepts(filtered, o, index.FilterConfig{MinDepth: 4})
	if len(eligible) < defaultNq {
		return nil, fmt.Errorf("%s has %d eligible query concepts", p.Name, len(eligible))
	}
	return &dataset{o: o, coll: filtered, filter: cfg, eligible: eligible}, nil
}

// The draws below are stratified, so that one run's inputs cover the
// distribution they sample as evenly as its length allows and runs with
// different seeds see inputs of the same mix: uniform draws go through
// shuffled passes over the population, Zipf draws through systematic
// sampling in blocks.

// passDraw draws indexes of [0, n) in shuffled passes: every index once
// per pass.
type passDraw struct {
	r    *rand.Rand
	n    int
	perm []int
}

func (p *passDraw) next() int {
	if len(p.perm) == 0 {
		p.perm = p.r.Perm(p.n)
	}
	v := p.perm[0]
	p.perm = p.perm[1:]
	return v
}

// zipfBlock is the number of draws one systematic Zipf sample spans.
const zipfBlock = 250

// zipfDraw draws ranks of [0, n) with P(k) ∝ (1+k)^-s, the law of
// rand.NewZipf(r, s, 1, n-1), by systematic sampling: each block of
// zipfBlock draws takes the ranks at the CDF points (i+U)/zipfBlock for
// one random offset U, shuffled. Any range of ranks then receives its
// expected share of every block's draws, to within one draw.
type zipfDraw struct {
	r     *rand.Rand
	cdf   []float64
	block []int
}

func newZipfDraw(r *rand.Rand, s float64, n int) *zipfDraw {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(1+float64(k), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipfDraw{r: r, cdf: cdf}
}

func (z *zipfDraw) next() int {
	if len(z.block) == 0 {
		u := z.r.Float64()
		z.block = make([]int, zipfBlock)
		for i := range z.block {
			k := sort.SearchFloat64s(z.cdf, (float64(i)+u)/zipfBlock)
			z.block[i] = min(k, len(z.cdf)-1)
		}
		z.r.Shuffle(len(z.block), func(i, j int) { z.block[i], z.block[j] = z.block[j], z.block[i] })
	}
	v := z.block[0]
	z.block = z.block[1:]
	return v
}

// query takes draws until it holds nq distinct concepts of vocab.
func query(next func() int, vocab []ontology.ConceptID, nq int) []ontology.ConceptID {
	q := make([]ontology.ConceptID, 0, nq)
	seen := make(map[ontology.ConceptID]bool, nq)
	for len(q) < nq {
		c := vocab[next()]
		if !seen[c] {
			seen[c] = true
			q = append(q, c)
		}
	}
	return q
}

// docDraw returns the concept sets of a collection's non-empty documents
// in shuffled passes.
func docDraw(r *rand.Rand, coll *corpus.Collection) func() []ontology.ConceptID {
	p := &passDraw{r: r, n: coll.NumDocs()}
	return func() []ontology.ConceptID {
		for {
			if d := coll.Doc(corpus.DocID(p.next())); len(d.Concepts) > 0 {
				return d.Concepts
			}
		}
	}
}

// mixedOps generates n ops in blocks of rds RDS and sds SDS ops, shuffled
// within each block, so the op-mix shares hold exactly at every block
// boundary and do not depend on how many ops a run completes. Every
// verifyEvery-th op is flagged for verification.
func mixedOps(r *rand.Rand, n, rds, sds, verifyEvery int, draw func(opKind) op) []op {
	block := make([]opKind, 0, rds+sds)
	for i := 0; i < rds; i++ {
		block = append(block, opRDS)
	}
	for i := 0; i < sds; i++ {
		block = append(block, opSDS)
	}
	out := make([]op, 0, n)
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			if len(out) == n {
				break
			}
			o := draw(k)
			o.verify = len(out)%verifyEvery == 0
			out = append(out, o)
		}
	}
	return out
}

// patientOps is the patient-cold stream: 3 RDS to 1 SDS; RDS queries are
// uniform draws of nq eligible concepts, SDS queries a random document's
// concept set.
func patientOps(seed int64, ds *dataset, n int) []op {
	r := rand.New(rand.NewSource(seed))
	concepts, docs := &passDraw{r: r, n: len(ds.eligible)}, docDraw(r, ds.coll)
	return mixedOps(r, n, 3, 1, patientVerifyEvery, func(k opKind) op {
		o := op{kind: k}
		if k == opSDS {
			o.concepts = docs()
		} else {
			o.concepts = query(concepts.next, ds.eligible, defaultNq)
		}
		return o
	})
}

// clusterVerifyEvery: one radio-cluster op in this many is checked against
// the single engine.
const clusterVerifyEvery = 10

// clusterOps is the radio-cluster stream: 4 RDS to 1 SDS; every third
// RDS op also pages to GrowK(pageK).
func clusterOps(seed int64, ds *dataset, n int) []op {
	r := rand.New(rand.NewSource(seed))
	concepts, docs := &passDraw{r: r, n: len(ds.eligible)}, docDraw(r, ds.coll)
	rds := 0
	return mixedOps(r, n, 4, 1, clusterVerifyEvery, func(k opKind) op {
		o := op{kind: k}
		if k == opSDS {
			o.concepts = docs()
			return o
		}
		o.concepts = query(concepts.next, ds.eligible, defaultNq)
		o.page = rds%3 == 2
		rds++
		return o
	})
}

// zipfVerifyEvery places the radio-zipf-append checkpoints: the RDS op
// right after each append and the one halfway to the next are checked
// against a cold static engine (a cold query at paper scale costs several
// warm ones); every append is checked.
const zipfVerifyEvery = appendEvery / 2

// appendEvery places one AddDocument at every appendEvery-th op of the
// radio-zipf-append stream, so the write share does not depend on speed.
const appendEvery = 50

// zipfAppendOps is the radio-zipf-append stream of n ops: Zipf(zipfS) RDS
// queries with every appendEvery-th op appending the next document of
// docs.
func zipfAppendOps(r *rand.Rand, ds *dataset, n int, docs [][]ontology.ConceptID) []op {
	z := newZipfDraw(r, zipfS, len(ds.eligible))
	out := make([]op, n)
	used := 0
	for i := range out {
		if i%appendEvery == appendEvery-1 {
			out[i] = op{kind: opAppend, concepts: docs[used], verify: true}
			used++
			continue
		}
		out[i] = op{kind: opRDS, concepts: query(z.next, ds.eligible, defaultNq), verify: i%zipfVerifyEvery == 0}
	}
	return out
}

// appendDocs pre-generates n RADIO-profile documents for appending: a
// fresh draw of the profile's generator under a seed-derived generator
// seed, passed through the base collection's filters. Documents the
// filter empties are skipped.
func appendDocs(ds *dataset, p emrgen.Profile, seed int64, n int) ([][]ontology.ConceptID, error) {
	p.NumDocs = 2*n + 10
	p.Seed = 1_000_003 + seed
	coll, err := emrgen.GenerateConceptSets(ds.o, p)
	if err != nil {
		return nil, fmt.Errorf("generate appended documents: %w", err)
	}
	filtered, _ := index.ApplyFilter(coll, ds.o, ds.filter)
	var out [][]ontology.ConceptID
	for _, d := range filtered.Docs() {
		if len(out) == n {
			break
		}
		if len(d.Concepts) > 0 {
			out = append(out, d.Concepts)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d of %d appended documents survive the filter", len(out), n)
	}
	return out, nil
}

// Scales: the small scale is bench.SmallScale, the paper scale
// bench.PaperScale (Table 3 sizes, the 296,433-concept ontology).
var (
	smallScale = bench.SmallScale()
	paperScale = bench.PaperScale()
)
