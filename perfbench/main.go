// Command perfbench is the repository benchmark: three closed-loop
// workloads over the kNDS engine tiers, each reporting end-to-end metrics
// with tracing off and per-layer metrics from a separate traced run. See
// README.md for why each workload exists and which layer metric should
// move which end-to-end metric.
//
// Run one measurement (from the repository root):
//
//	bash perfbench/run.sh --workload patient-cold --seed 1 --seconds 20 --trace 0
//
// Compare two sets of result files written by earlier runs:
//
//	bash perfbench/run.sh --compare .bench_out/a .bench_out/b
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The full result, stamped
// with the run's context, is also written under .bench_out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// outDir holds result files and span dumps, relative to the working
// directory (the repository root when started through run.sh).
const outDir = ".bench_out"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the op stream and appended documents are generated from it")
	seconds := fs.Int("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	compare := fs.Bool("compare", false, "compare two result directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two result directories")
			return 2
		}
		if err := compareDirs(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	spec, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}
	res, err := execute(spec, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctxLine, _ := json.Marshal(res.Context)
	fmt.Printf("context %s\n", ctxLine)
	detail, _ := json.Marshal(res.Detail)
	fmt.Printf("detail %s\n", detail)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports. Metrics holds exactly the
// metrics BENCHMARK.json lists for the run's mode; Detail holds the
// op-type latencies that exist only on some workloads.
type result struct {
	Context   runContext        `json:"context"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"detail"`
}

func writeResult(res *result) error {
	dir := filepath.Join(outDir, res.Context.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create result directory: %w", err)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("seed%d-trace%d.json", res.Context.Seed, b2i(res.Context.Traced)))
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
