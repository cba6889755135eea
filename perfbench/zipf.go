package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
	"conceptrank/internal/shard"
)

const (
	zipfShards = 2
)

// zipfSys is radio-zipf-append: a 2-shard DynamicEngine bulk-loaded with
// paper-scale RADIO and a default-budget shared cache, driven by one
// client issuing Zipf RDS queries with periodic appends.
type zipfSys struct {
	ds  *dataset
	eng *shard.DynamicEngine
	cc  *cache.Cache
	ops []op

	// Filled by verify: local→global doc maps of the grown collection,
	// for resolving traced DRC probes.
	maps [][]corpus.DocID
	all  []corpus.Document
}

func setupZipfAppend(seed int64, n int, _ *recorder) (system, error) {
	ds, err := loadDataset(paperScale.OntologyConcepts, paperScale.Radio)
	if err != nil {
		return nil, err
	}
	eng, err := shard.NewDynamic(ds.o, zipfShards)
	if err != nil {
		return nil, err
	}
	for _, d := range ds.coll.Docs() {
		eng.AddDocument(d.Name, d.Concepts)
	}
	docs, err := appendDocs(ds, paperScale.Radio, seed, n/appendEvery+1)
	if err != nil {
		return nil, err
	}
	ops := zipfAppendOps(rand.New(rand.NewSource(seed)), ds, n, docs)
	return &zipfSys{ds: ds, eng: eng, cc: cache.New(cache.Config{}), ops: ops}, nil
}

func (s *zipfSys) stream() []op                           { return s.ops }
func (s *zipfSys) caches() []*cache.Cache                 { return []*cache.Cache{s.cc} }
func (s *zipfSys) onto() *ontology.Ontology               { return s.ds.o }
func (s *zipfSys) finishTrace(*recorder) (float64, int64) { return 0, 0 }
func (s *zipfSys) close()                                 { _ = s.eng.Close() }

// warm brings the cache to its steady state: it queries the eligible
// concepts one at a time in Zipf rank order, on GOMAXPROCS goroutines,
// until the cache's working set reaches its byte budget and it starts to
// evict. A long Zipf stream leaves the cache holding the most popular
// concepts; filling it in rank order reaches that state in a fraction of
// the time, and in the same state for every seed.
func (s *zipfSys) warm() (int, error) {
	opts := core.Options{K: defaultK, ErrorThreshold: epsRadio, Cache: s.cc}
	var next, done atomic.Int64
	var g pool.Group
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		g.Go(func() error {
			for s.cc.Stats().Evictions == 0 {
				i := int(next.Add(1) - 1)
				if i >= len(s.ds.eligible) {
					return nil
				}
				if _, _, err := s.eng.RDS(s.ds.eligible[i:i+1], opts); err != nil {
					return err
				}
				done.Add(1)
			}
			return nil
		})
	}
	err := g.Wait()
	return int(done.Load()), err
}

func (s *zipfSys) exec(_ context.Context, i int, r *opRecord, t *opTracer) error {
	return s.run(&s.ops[i], r, t)
}

func (s *zipfSys) run(o *op, r *opRecord, t *opTracer) error {
	t0 := time.Now()
	if o.kind == opAppend {
		r.doc = s.eng.AddDocument("appended", o.concepts)
		r.lat = time.Since(t0)
		return nil
	}
	opts := core.Options{K: defaultK, ErrorThreshold: epsRadio, Cache: s.cc}
	if t != nil {
		opts.Trace = t.hook
	}
	res, m, err := s.eng.RDS(o.concepts, opts)
	r.lat = time.Since(t0)
	r.results = res
	if t != nil && m != nil {
		s.traceRDS(t, t0, r.lat, m)
	}
	return err
}

// traceRDS records a sharded query's spans: the shards' open-time stages
// one shard after another (the sharded engine opens its shards in turn),
// then every shard's run-time stages side by side from the end of the
// last open, and the cross-shard merge at the end.
func (s *zipfSys) traceRDS(t *opTracer, t0 time.Time, lat time.Duration, m *shard.Metrics) {
	attrs := map[string]float64{}
	shardAttrs(attrs, lat, m.PerShard, m.CancelledShards)
	start := t.rec.rel(t0)
	end := start + int64(lat)
	fan := t.rec.add(Span{Parent: t.root, Op: t.op, Name: "shard.fanout", Start: start, End: end, Attrs: attrs})
	at := start
	for i := range m.PerShard {
		pm := &m.PerShard[i]
		open := stageTime(pm, openStages)
		t.rec.querySpans(t.op, fan, at, open, pm, openStages, nil)
		at += open
	}
	for i := range m.PerShard {
		pm := &m.PerShard[i]
		if pm.TotalTime > 0 {
			t.rec.querySpans(t.op, fan, at, int64(pm.TotalTime)-stageTime(pm, openStages), pm, runStages, queryAttrs(pm))
		}
	}
	if d := int64(m.Merged.Stages[core.StageMerge].Time); d > 0 {
		t.rec.add(Span{Parent: fan, Op: t.op, Name: "stage.merge", Start: end - d, End: end, Synthetic: true})
	}
	t.waveSpans(t0)
}

// verify checks the timed window at checkpoints: the collection only
// changes at appends, so the RDS ops between two appends are all checked
// against one cold static single engine over the collection as grown at
// that point. Each append must receive the next global DocID.
func (s *zipfSys) verify(recs []opRecord) error {
	base := s.ds.coll.NumDocs()
	appended := 0
	mirror := corpus.New()
	for _, d := range s.ds.coll.Docs() {
		mirror.Add(d.Name, d.TokenCount, d.Concepts)
	}
	opts := core.Options{K: defaultK, ErrorThreshold: epsRadio}
	for lo := 0; lo < len(recs); {
		hi := lo
		for hi < len(recs) && s.ops[hi].kind != opAppend {
			hi++
		}
		if hi > lo {
			ref := core.NewEngine(s.ds.o, index.BuildMemInverted(mirror), index.BuildMemForward(mirror), mirror.NumDocs(), nil)
			if err := checkParallel(s.ops[lo:hi], recs[lo:hi], func(j int) ([]core.Result, error) {
				want, _, err := ref.RDS(s.ops[lo+j].concepts, opts)
				return want, err
			}); err != nil {
				return err
			}
		}
		if hi < len(recs) {
			if recs[hi].err == nil {
				recs[hi].wrong = recs[hi].doc != corpus.DocID(base+appended)
			}
			mirror.Add("appended", 0, s.ops[hi].concepts)
			appended++
		}
		lo = hi + 1
	}
	s.all = mirror.Docs()
	_, s.maps, _ = shard.Partition(mirror, shard.Config{Shards: zipfShards, Placement: shard.SizeBalanced})
	return nil
}

// probeDoc resolves a shard-local doc ID: DynamicEngine routes documents
// exactly as SizeBalanced partitioning of the same insertion sequence.
func (s *zipfSys) probeDoc(sh int, doc corpus.DocID) []ontology.ConceptID {
	if sh < 0 || sh >= len(s.maps) || int(doc) >= len(s.maps[sh]) {
		return nil
	}
	return s.all[s.maps[sh][doc]].Concepts
}

// checkParallel computes, on GOMAXPROCS goroutines, the reference answer
// of each op flagged for verification that completed without error, and
// marks mismatches.
func checkParallel(ops []op, recs []opRecord, want func(j int) ([]core.Result, error)) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(recs); j += workers {
				if !ops[j].verify || recs[j].err != nil {
					continue
				}
				res, err := want(j)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("reference query: %w", err)
					}
					mu.Unlock()
					return
				}
				recs[j].wrong = !sameResults(res, recs[j].results)
			}
		}(w)
	}
	wg.Wait()
	return first
}
