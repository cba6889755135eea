package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunsReportBenchmarkMetrics runs short untraced and traced runs and
// checks that each reports exactly the metrics BENCHMARK.json lists for
// its mode, with every answer verified correct.
func TestRunsReportBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // span files land here
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, tc := range []struct {
		workload string
		traced   bool
		want     []metricSpec
	}{
		{"patient-cold", false, spec.EndToEnd},
		{"radio-cluster", true, spec.PerLayer},
	} {
		res, err := execute(workloads[tc.workload], runConfig{workload: tc.workload, seed: 1, seconds: 1, traced: tc.traced})
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", tc.workload, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", tc.workload, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit == "" {
				t.Errorf("%s: metric %s missing", tc.workload, m.Name)
			}
		}
		if tc.traced && res.Metrics["cluster.rpcs_per_q"].Value == 0 {
			t.Errorf("%s: traced run recorded no RPC spans", tc.workload)
		}
	}
}
