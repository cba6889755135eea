package main

import (
	"context"
	"time"

	"conceptrank/internal/bench"
	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

// patientVerifyEvery: one patient-cold op in this many is checked against
// the full scan, which costs 3-12x a kNDS query at this scale.
const patientVerifyEvery = 20

// patientWarmOps: untimed ops, drawn from a stream of their own, that
// warm the engine's Dewey address cache and query arenas before timing.
// They do not warm a distance cache: patient-cold has none.
const patientWarmOps = 40

// patientSys is patient-cold: one uncached Engine over small-scale
// PATIENT, driven by one client.
type patientSys struct {
	ds    *dataset
	eng   *core.Engine
	warmS []op
	ops   []op
}

func setupPatient(seed int64, n int, _ *recorder) (system, error) {
	ds, err := loadDataset(smallScale.OntologyConcepts, smallScale.Patient)
	if err != nil {
		return nil, err
	}
	return &patientSys{
		ds:    ds,
		eng:   core.NewEngine(ds.o, index.BuildMemInverted(ds.coll), index.BuildMemForward(ds.coll), ds.coll.NumDocs(), nil),
		warmS: patientOps(^seed, ds, patientWarmOps),
		ops:   patientOps(seed, ds, n),
	}, nil
}

func (s *patientSys) stream() []op                           { return s.ops }
func (s *patientSys) caches() []*cache.Cache                 { return nil }
func (s *patientSys) onto() *ontology.Ontology               { return s.ds.o }
func (s *patientSys) finishTrace(*recorder) (float64, int64) { return 0, 0 }
func (s *patientSys) close()                                 {}

func (s *patientSys) probeDoc(_ int, doc corpus.DocID) []ontology.ConceptID {
	return s.ds.coll.Doc(doc).Concepts
}

func (s *patientSys) warm() (int, error) {
	var r opRecord
	for i := range s.warmS {
		if err := s.run(context.Background(), &s.warmS[i], &r, nil); err != nil {
			return i, err
		}
	}
	return len(s.warmS), nil
}

func (s *patientSys) exec(ctx context.Context, i int, r *opRecord, t *opTracer) error {
	return s.run(ctx, &s.ops[i], r, t)
}

func (s *patientSys) run(ctx context.Context, o *op, r *opRecord, t *opTracer) error {
	opts := core.Options{K: defaultK, ErrorThreshold: bench.DefaultEpsPatient}
	if t != nil {
		opts.Trace = t.hook
	}
	t0 := time.Now()
	var m *core.Metrics
	var err error
	if o.kind == opSDS {
		r.results, m, err = s.eng.SDSContext(ctx, o.concepts, opts)
	} else {
		r.results, m, err = s.eng.RDSContext(ctx, o.concepts, opts)
	}
	r.lat = time.Since(t0)
	if t != nil && m != nil {
		t.rec.querySpans(t.op, t.root, t.rec.rel(t0), int64(m.TotalTime), m, allStages, queryAttrs(m))
		t.waveSpans(t0)
	}
	return err
}

// verify checks the sampled ops against a full scan on a separately
// built engine over the same collection.
func (s *patientSys) verify(recs []opRecord) error {
	ref := core.NewEngine(s.ds.o, index.BuildMemInverted(s.ds.coll), index.BuildMemForward(s.ds.coll), s.ds.coll.NumDocs(), nil)
	opts := core.Options{K: defaultK}
	for i := range recs {
		o := &s.ops[i]
		if !o.verify || recs[i].err != nil {
			continue
		}
		var want []core.Result
		var err error
		if o.kind == opSDS {
			want, _, err = ref.FullScanSDS(o.concepts, opts)
		} else {
			want, _, err = ref.FullScanRDS(o.concepts, opts)
		}
		if err != nil {
			return err
		}
		recs[i].wrong = !sameResults(want, recs[i].results)
	}
	return nil
}
