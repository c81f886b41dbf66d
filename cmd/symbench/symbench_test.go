package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"symmerge/internal/coreutils"
	"symmerge/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianQuartilesGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// The values Python's statistics.quantiles(data, n=4) gives.
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.data)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestHistP99(t *testing.T) {
	h := hist{}
	// 99 observations at ≤2µs, one at ≤1024µs: p99 stays in the low bucket.
	h.add(obs.HistSnap{Count: 100, Buckets: []obs.HistBucket{{LeUS: 2, N: 99}, {LeUS: 1024, N: 100}}})
	if got := h.p99(); got != 2 {
		t.Errorf("p99 = %v, want 2", got)
	}
	h.add(obs.HistSnap{Count: 100, Buckets: []obs.HistBucket{{LeUS: 1024, N: 100}}})
	if got := h.p99(); got != 1024 {
		t.Errorf("merged p99 = %v, want 1024", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{6, 14, 9, 12, 7, 13, 10, 8, 11, 15}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"faster", base, scale(base, 0.8), true, 0.1, "improved"},
		{"slower", base, scale(base, 1.2), true, 0.1, "regressed"},
		{"same", base, scale(base, 1.01), true, 0.1, "within"},
		{"noisy", base, noisy, true, 0.1, "unresolved"},
		{"higher is better", base, scale(base, 0.8), false, 0.1, "regressed"},
		{"exact count, moved", []float64{5, 5, 5}, []float64{6, 6, 6}, true, 0, "regressed"},
		{"exact count, kept", []float64{5, 5, 5}, []float64{5, 5, 5}, true, 0, "within"},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmoke runs every workload on three tools at step -2 with one timed
// rep and a traced rep. It checks that every metric BENCHMARK.json names is
// reported and that a corrupted oracle entry lowers ok_frac.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc benchDesc
	if err := json.Unmarshal(data, &desc); err != nil {
		t.Fatal(err)
	}
	var tools []*coreutils.Tool
	for _, name := range []string{"echo", "cut", "wc"} {
		tool, err := coreutils.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tools = append(tools, tool)
	}
	start := time.Now()
	for _, w := range workloads {
		pl := plan{W: w, Tools: tools, Seed: 1, MinReps: 1, SetupPasses: 1, Trace: true, Workdir: t.TempDir(),
			Steps: map[string]int{}, Limits: map[string]time.Duration{}, Expect: map[string]fingerprint{}}
		for _, tool := range tools {
			pl.Steps[tool.Name] = -2
			pl.Limits[tool.Name] = 5 * time.Second
		}
		// The first run, against an empty oracle, supplies the fingerprints.
		first, err := measure(pl)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range first.Tools {
			pl.Expect[row.Tool] = row.FP
		}
		rep, err := measure(pl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Metrics["ok_frac"].Value != 1 {
			t.Fatalf("%s: clean run reported correct=%v failed=%d ok_frac=%v: %+v", w.Name, rep.Correct, rep.Failed, rep.Metrics["ok_frac"].Value, rep.Tools)
		}
		for _, d := range append(desc.EndToEnd, desc.PerLayer...) {
			m, ok := rep.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: metric %s missing", w.Name, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.Name, d.Name, m.Unit, d.Unit)
			}
		}
		for _, d := range desc.EndToEnd {
			if v := rep.Metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v)
			}
		}

		bad := pl.Expect["cut"]
		bad.Coverage++
		pl.Expect["cut"] = bad
		rep, err = measure(pl)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Metrics["ok_frac"].Value >= 1 {
			t.Errorf("%s: corrupted oracle entry left correct=%v ok_frac=%v", w.Name, rep.Correct, rep.Metrics["ok_frac"].Value)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Logf("smoke run took %v, longer than its 5s budget", d)
	}
}
