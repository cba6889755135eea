// Command crbench regenerates the tables and figures of the paper's
// experimental evaluation (Section 6) on synthetic data, printing each as a
// markdown table. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured comparisons.
//
// Usage:
//
//	crbench -scale small -exp all
//	crbench -scale medium -exp fig7 -out results.md
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"conceptrank/internal/bench"
	"conceptrank/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crbench: ")
	var (
		scaleName = flag.String("scale", "small", "environment scale: small, medium or paper")
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(bench.Names(), ", "))
		seed      = flag.Int64("seed", 1, "generator seed")
		outPath   = flag.String("out", "", "also write the markdown to this file")
		csvPath   = flag.String("csv", "", "also write every table as CSV (stable column order, table-ID-prefixed rows) to this file — the diffable form CI archives for before/after comparisons")
		listen    = flag.String("listen", "", "serve /debug/pprof and /metrics on this address for the duration of the run")
	)
	flag.Parse()

	if *listen != "" {
		srv, err := telemetry.New(telemetry.Config{}).Serve(*listen)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "introspection server on http://%s/debug/pprof/\n", srv.Addr)
	}

	scale, err := bench.ScaleByName(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "building %s environment (ontology %d concepts)...\n", scale.Name, scale.OntologyConcepts)
	env, err := bench.NewEnv(scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v\n", time.Since(start).Round(time.Millisecond))

	tables, err := bench.Run(env, *exp)
	if err != nil {
		log.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# conceptrank experiments — scale %s, seed %d, %s\n\n", scale.Name, *seed, time.Now().Format("2006-01-02"))
	for _, t := range tables {
		sb.WriteString(t.Markdown())
	}
	fmt.Print(sb.String())
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(sb.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
	}
	if *csvPath != "" {
		var cb strings.Builder
		for _, t := range tables {
			cb.WriteString(t.CSV())
		}
		if err := os.WriteFile(*csvPath, []byte(cb.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}
