package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare mode needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareDirs reads two sets of result files (A: baseline, B: candidate)
// and prints, per workload and metric, each side's median and quartiles,
// the fraction of seed-matched pairs B wins, and a verdict.
func compareDirs(w io.Writer, dirA, dirB string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("compare: BENCHMARK.json: %w", err)
	}
	specs := map[string]metricSpec{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[m.Name] = m
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1..q3\tB median\tB q1..q3\tB pair-win\tverdict")
	for _, group := range sortedKeys(a) {
		ra, rb := a[group], b[group]
		if len(rb) == 0 {
			continue
		}
		for _, name := range metricNames(ra) {
			ms, ok := specs[name]
			if !ok {
				ms = detailSpec(name)
				if ms.Better == "" {
					continue
				}
			}
			xa, xb, pairs := values(ra, rb, name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			qa, qb := quartiles(xa), quartiles(xb)
			c := comparison{a: xa, b: xb, pairs: pairs, spec: ms}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%.2f\t%s\n",
				group, name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], c.pairWin(), c.verdict())
		}
	}
	return tw.Flush()
}

// detailSpec gives the op-type latencies and failure share of the detail
// section a direction; they have no bound in BENCHMARK.json because not
// every workload has every op type.
func detailSpec(name string) metricSpec {
	if strings.HasSuffix(name, "_ms") || name == "failed_frac" {
		return metricSpec{Name: name, Better: "lower"}
	}
	return metricSpec{}
}

// loadResults reads every result file under dir, grouped by workload and
// trace mode.
func loadResults(dir string) (map[string][]result, error) {
	out := map[string][]result{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".json" {
			return err
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("compare: %s: %w", p, err)
		}
		key := r.Context.Workload
		if r.Context.Traced {
			key += " (traced)"
		}
		out[key] = append(out[key], r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("compare: no result files under %s", dir)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func metricNames(rs []result) []string {
	set := map[string]bool{}
	for _, r := range rs {
		for n := range r.Metrics {
			set[n] = true
		}
		for n := range r.Detail {
			set[n] = true
		}
	}
	return sortedKeys(set)
}

func lookup(r *result, name string) (float64, bool) {
	if m, ok := r.Metrics[name]; ok {
		return m.Value, true
	}
	m, ok := r.Detail[name]
	return m.Value, ok
}

// values returns both sides' values of a metric and the pairs of runs
// with the same seed.
func values(ra, rb []result, name string) (xa, xb []float64, pairs [][2]float64) {
	bySeed := map[int64]float64{}
	for i := range ra {
		if v, ok := lookup(&ra[i], name); ok {
			xa = append(xa, v)
			bySeed[ra[i].Context.Seed] = v
		}
	}
	for i := range rb {
		v, ok := lookup(&rb[i], name)
		if !ok {
			continue
		}
		xb = append(xb, v)
		if av, ok := bySeed[rb[i].Context.Seed]; ok {
			pairs = append(pairs, [2]float64{av, v})
		}
	}
	return xa, xb, pairs
}

// quartiles returns the three quartile cut points the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads read the same as in the acceptance check.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		q[i-1] = (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q
}

// comparison judges candidate values b against baseline values a.
type comparison struct {
	a, b  []float64
	pairs [][2]float64 // (a, b) runs with the same seed
	spec  metricSpec
}

// improves reports whether y is better than x in the metric's direction.
func (c comparison) improves(x, y float64) bool {
	if c.spec.Better == "higher" {
		return y > x
	}
	return y < x
}

// pairWin is the fraction of seed-matched pairs B wins; ties count for
// neither side.
func (c comparison) pairWin() float64 {
	if len(c.pairs) == 0 {
		return math.NaN()
	}
	wins := 0
	for _, p := range c.pairs {
		if c.improves(p[0], p[1]) {
			wins++
		}
	}
	return float64(wins) / float64(len(c.pairs))
}

// verdict is "better" when B wins at least nine tenths of the pairs and
// the medians differ by more than A's quartile spread; "worse" when B's
// median is worse than A's by more than the metric's bound (or, for a
// metric without a bound, when A wins by the same rule as "better");
// "unresolved" otherwise.
func (c comparison) verdict() string {
	qa, qb := quartiles(c.a), quartiles(c.b)
	spread := qa[2] - qa[0]
	diff := math.Abs(qb[1] - qa[1])
	lost := 0
	for _, p := range c.pairs {
		if c.improves(p[1], p[0]) {
			lost++
		}
	}
	n := float64(len(c.pairs))
	switch {
	case n > 0 && c.pairWin() >= 0.9 && diff > spread && c.improves(qa[1], qb[1]):
		return "better"
	case c.spec.Bound > 0 && c.improves(qb[1], qa[1]) && diff > c.spec.Bound*math.Abs(qa[1]):
		return "worse"
	case c.spec.Bound == 0 && n > 0 && float64(lost)/n >= 0.9 && diff > spread && c.improves(qb[1], qa[1]):
		return "worse"
	}
	return "unresolved"
}
