// Command crsearch runs RDS and SDS queries against a data directory
// written by crgen, using the disk-backed indexes.
//
// Usage:
//
//	crsearch -data data -corpus RADIO -type rds -query "term one,term two" -k 10
//	crsearch -data data -corpus PATIENT -type sds -doc 17 -k 5
//	crsearch -data data -corpus RADIO -type rds -ids 120,4711 -eps 0.9
//	crsearch -data data -corpus RADIO -type rds -ids 120 -k 50 -page 10
//	crsearch -data data -corpus PATIENT -pairs -k 10 -shards 4
//	crsearch -data data -corpus RADIO -type rds -ids 120 -measure density
//
// -page N streams the top -k through a resumable cursor, N results at a
// time: each page resumes the saved traversal rather than re-running the
// query, and the concatenated pages equal the one-shot ranking exactly.
//
// -pairs ignores the query flags and instead reports the k most similar
// document pairs in the whole collection (the bounded all-pairs SDS
// join); with -shards N the join is block-partitioned and the result is
// identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strconv"
	"strings"

	"conceptrank"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crsearch: ")
	var (
		data      = flag.String("data", "data", "data directory written by crgen")
		corpusArg = flag.String("corpus", "RADIO", "collection: PATIENT or RADIO")
		queryType = flag.String("type", "rds", "query type: rds or sds")
		query     = flag.String("query", "", "comma-separated concept terms (rds)")
		ids       = flag.String("ids", "", "comma-separated concept IDs (rds)")
		docID     = flag.Int("doc", -1, "query document ID (sds)")
		k         = flag.Int("k", 10, "number of results")
		eps       = flag.Float64("eps", 0.5, "kNDS error threshold")
		workers   = flag.Int("workers", 0, "goroutines of the -baseline full scan (0, 1 = serial) and the -pairs join (0 = GOMAXPROCS); results identical")
		baseline  = flag.Bool("baseline", false, "also run the full-scan baseline and compare")
		page      = flag.Int("page", 0, "page size: stream the top -k through a resumable cursor, -page results at a time (0 = one-shot)")
		shards    = flag.Int("shards", 1, "partition the collection across N parallel engines (results identical)")
		placement = flag.String("placement", "round-robin", "shard placement policy: round-robin or size-balanced")
		listen    = flag.String("listen", "", "serve /metrics, /debug/slowlog and /debug/pprof on this address; keeps running after the query")
		cacheMB   = flag.Int("cache-mb", 0, "semantic-distance cache budget in MiB (0 = caching off)")
		pairs     = flag.Bool("pairs", false, "top-k most similar document pairs over the whole collection (ignores -type/-query/-ids/-doc)")
		measName  = flag.String("measure", "rada", "semantic distance measure: rada, density or enhanced")
	)
	flag.Parse()

	var cc *conceptrank.Cache
	if *cacheMB > 0 {
		cc = conceptrank.NewCache(conceptrank.CacheConfig{MaxBytes: int64(*cacheMB) << 20})
	}
	var tel *conceptrank.Telemetry
	if *listen != "" {
		tel = conceptrank.NewTelemetry(conceptrank.TelemetryConfig{})
		if cc != nil {
			tel.AttachCache(cc)
		}
		srv, err := tel.Serve(*listen)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("introspection server on http://%s/metrics\n", srv.Addr)
	}

	o, err := conceptrank.LoadOntology(filepath.Join(*data, "ontology.cro"))
	if err != nil {
		log.Fatal(err)
	}
	coll, err := conceptrank.LoadCollection(filepath.Join(*data, strings.ToUpper(*corpusArg)+".crc"))
	if err != nil {
		log.Fatal(err)
	}
	eng := conceptrank.NewEngine(o, coll)
	eng.EnableTelemetry(tel)
	eng.EnableCache(cc)

	if *pairs {
		runPairs(o, coll, eng, cc, *k, *eps, *workers, *shards, *placement)
		if *listen != "" {
			fmt.Println("query done; introspection server still running (ctrl-c to exit)")
			select {}
		}
		return
	}

	var concepts []conceptrank.ConceptID
	switch strings.ToLower(*queryType) {
	case "rds":
		for _, term := range splitNonEmpty(*query) {
			c, ok := conceptrank.FindConcept(o, term)
			if !ok {
				log.Fatalf("unknown concept term %q", term)
			}
			concepts = append(concepts, c)
		}
		for _, s := range splitNonEmpty(*ids) {
			n, err := strconv.ParseUint(s, 10, 32)
			if err != nil || int(n) >= o.NumConcepts() {
				log.Fatalf("bad concept ID %q", s)
			}
			concepts = append(concepts, conceptrank.ConceptID(n))
		}
		if len(concepts) == 0 {
			log.Fatal("rds query needs -query terms or -ids")
		}
	case "sds":
		if *docID < 0 || *docID >= coll.NumDocs() {
			log.Fatalf("sds query needs -doc in [0,%d)", coll.NumDocs())
		}
		concepts = coll.Doc(conceptrank.DocID(*docID)).Concepts
	default:
		log.Fatalf("unknown query type %q", *queryType)
	}

	fmt.Printf("query (%s, %d concepts):", strings.ToUpper(*queryType), len(concepts))
	for i, c := range concepts {
		if i >= 5 {
			fmt.Printf(" ... (+%d more)", len(concepts)-5)
			break
		}
		fmt.Printf(" %q", o.Name(c))
	}
	fmt.Println()

	opts := conceptrank.Options{K: *k, ErrorThreshold: *eps, Workers: *workers}
	switch strings.ToLower(*measName) {
	case "", "rada": // the default: nil Measure keeps the DRC fast path
	case "density":
		opts.Measure = conceptrank.NewDensityMeasure(o)
	case "enhanced":
		opts.Measure = conceptrank.NewEnhancedMeasure(o)
	default:
		log.Fatalf("unknown measure %q (want rada, density or enhanced)", *measName)
	}
	sds := strings.ToLower(*queryType) == "sds"
	var results []conceptrank.Result
	var m *conceptrank.Metrics
	if *page > 0 {
		results, m = runPaged(o, coll, eng, tel, sds, concepts, opts, *page, *shards, *placement)
	} else if *shards > 1 {
		pl, perr := conceptrank.ParseShardPlacement(*placement)
		if perr != nil {
			log.Fatal(perr)
		}
		seng, serr := conceptrank.NewShardedEngine(o, coll, conceptrank.ShardConfig{Shards: *shards, Placement: pl})
		if serr != nil {
			log.Fatal(serr)
		}
		seng.EnableTelemetry(tel)
		var sm *conceptrank.ShardedMetrics
		if sds {
			results, sm, err = seng.SDS(concepts, opts)
		} else {
			results, sm, err = seng.RDS(concepts, opts)
		}
		if err != nil {
			log.Fatal(err)
		}
		m = &sm.Merged
		fmt.Printf("sharded: %d shards (%s), %d cancelled early by the cross-shard bound\n",
			seng.NumShards(), pl, sm.CancelledShards)
		for s, pm := range sm.PerShard {
			fmt.Printf("  shard %d: %v total, examined %d of %d discovered\n",
				s, pm.TotalTime.Round(1000), pm.DocsExamined, pm.DocsDiscovered)
		}
	} else if sds {
		results, m, err = eng.SDS(concepts, opts)
	} else {
		results, m, err = eng.RDS(concepts, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *page == 0 { // paged mode already printed page-delimited results
		for i, r := range results {
			fmt.Printf("%2d. doc %-6d %-24s distance %.4f\n", i+1, r.Doc, coll.Doc(r.Doc).Name, r.Distance)
		}
	}
	fmt.Printf("\nkNDS: %v total (%v distance calc, %v traversal, %v io); examined %d of %d discovered; %d DRC calls",
		m.TotalTime.Round(1000), m.DistanceTime.Round(1000), m.TraversalTime.Round(1000), m.IOTime.Round(1000),
		m.DocsExamined, m.DocsDiscovered, m.DRCCalls)
	fmt.Println()

	if *baseline {
		var scan []conceptrank.Result
		var bm *conceptrank.Metrics
		if sds {
			scan, bm, err = eng.FullScanSDS(concepts, conceptrank.WithK(*k), conceptrank.WithWorkers(*workers), conceptrank.WithMeasure(opts.Measure))
		} else {
			scan, bm, err = eng.FullScanRDS(concepts, conceptrank.WithK(*k), conceptrank.WithWorkers(*workers), conceptrank.WithMeasure(opts.Measure))
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline full scan: %v total, %d docs examined\n", bm.TotalTime.Round(1000), bm.DocsExamined)
		for i := range results {
			if results[i].Distance != scan[i].Distance {
				log.Fatalf("MISMATCH at rank %d: kNDS %v vs baseline %v", i, results[i], scan[i])
			}
		}
		fmt.Println("baseline agrees with kNDS.")
	}

	if *listen != "" {
		fmt.Println("query done; introspection server still running (ctrl-c to exit)")
		select {}
	}
}

// runPairs answers "which k documents in the collection are most similar
// to each other?" with the bounded all-pairs join: single-engine when
// shards == 1, block-partitioned otherwise. Either path returns the same
// pairs, the same distances, the same order.
func runPairs(o *conceptrank.Ontology, coll *conceptrank.Collection, eng *conceptrank.Engine, cc *conceptrank.Cache, k int, eps float64, workers, shards int, placement string) {
	opts := conceptrank.PairOptions{K: k, ErrorThreshold: eps, Workers: workers, Cache: cc}
	ctx := context.Background()
	var (
		res []conceptrank.PairResult
		m   *conceptrank.PairMetrics
		err error
	)
	if shards > 1 {
		pl, perr := conceptrank.ParseShardPlacement(placement)
		if perr != nil {
			log.Fatal(perr)
		}
		seng, serr := conceptrank.NewShardedEngine(o, coll, conceptrank.ShardConfig{Shards: shards, Placement: pl})
		if serr != nil {
			log.Fatal(serr)
		}
		fmt.Printf("pair join (%d docs, %d shards, %s placement):\n", coll.NumDocs(), shards, pl)
		res, m, err = seng.TopKPairs(ctx, opts)
	} else {
		fmt.Printf("pair join (%d docs):\n", coll.NumDocs())
		res, m, err = eng.TopKPairs(ctx, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range res {
		fmt.Printf("%2d. %-24s ~ %-24s distance %.4f\n",
			i+1, coll.Doc(p.A).Name, coll.Doc(p.B).Name, p.Distance)
	}
	fmt.Printf("\npair join: %v total (%v seeds, %v join); examined %d of %d pairs (%.2f%%), pruned %d; %d levels, %d of %d block tasks cancelled\n",
		m.TotalTime.Round(1000), m.SeedTime.Round(1000), m.JoinTime.Round(1000),
		m.PairsExamined, m.TotalPairs, 100*m.EvaluatedFraction(), m.PairsPruned,
		m.Levels, m.CancelledBlocks, m.Blocks)
	if m.CacheHits+m.CacheMisses > 0 {
		fmt.Printf("cache: %d hits, %d misses\n", m.CacheHits, m.CacheMisses)
	}
}

// runPaged streams the top k through a resumable cursor, page results at a
// time: each Next resumes the saved traversal state and grows the ranking
// in place, so the concatenated pages are exactly the one-shot top-k. The
// cursor is opened with K = page; later pages extend it via the cursor's
// auto-grow rather than re-running the query.
func runPaged(o *conceptrank.Ontology, coll *conceptrank.Collection, eng *conceptrank.Engine, tel *conceptrank.Telemetry, sds bool, concepts []conceptrank.ConceptID, opts conceptrank.Options, page, shards int, placement string) ([]conceptrank.Result, *conceptrank.Metrics) {
	k := opts.K
	opts.K = page
	var (
		next    func(context.Context, int) ([]conceptrank.Result, error)
		metrics func() *conceptrank.Metrics
		closeFn func()
	)
	if shards > 1 {
		pl, err := conceptrank.ParseShardPlacement(placement)
		if err != nil {
			log.Fatal(err)
		}
		seng, err := conceptrank.NewShardedEngine(o, coll, conceptrank.ShardConfig{Shards: shards, Placement: pl})
		if err != nil {
			log.Fatal(err)
		}
		seng.EnableTelemetry(tel)
		open := seng.OpenRDS
		if sds {
			open = seng.OpenSDS
		}
		cur, err := open(concepts, opts)
		if err != nil {
			log.Fatal(err)
		}
		next, closeFn = cur.Next, func() { cur.Close() }
		metrics = func() *conceptrank.Metrics { return &cur.Metrics().Merged }
		fmt.Printf("sharded: %d shards (%s), paged by %d\n", seng.NumShards(), pl, page)
	} else {
		open := eng.OpenRDS
		if sds {
			open = eng.OpenSDS
		}
		cur, err := open(concepts, opts)
		if err != nil {
			log.Fatal(err)
		}
		next, closeFn = cur.Next, func() { cur.Close() }
		metrics = cur.Metrics
	}
	defer closeFn()

	ctx := context.Background()
	var results []conceptrank.Result
	for pageNo := 1; len(results) < k; pageNo++ {
		n := page
		if rem := k - len(results); rem < n {
			n = rem
		}
		res, err := next(ctx, n)
		if err != nil {
			log.Fatal(err)
		}
		if len(res) == 0 {
			fmt.Printf("-- ranking drained after %d results --\n", len(results))
			break
		}
		fmt.Printf("-- page %d --\n", pageNo)
		for i, r := range res {
			fmt.Printf("%2d. doc %-6d %-24s distance %.4f\n",
				len(results)+i+1, r.Doc, coll.Doc(r.Doc).Name, r.Distance)
		}
		results = append(results, res...)
	}
	return results, metrics()
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
