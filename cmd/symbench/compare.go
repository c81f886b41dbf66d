package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDesc is the part of BENCHMARK.json -compare reads: each metric's
// direction and regression bound.
type benchDesc struct {
	EndToEnd []metricDesc `json:"end_to_end"`
	PerLayer []metricDesc `json:"per_layer"`
}

type metricDesc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // absent (0) for per-layer metrics
}

func loadBenchDesc(path string) (*benchDesc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDesc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// verdict classifies B against A by the rule of the choosing-metrics guide
// (§6–8): B improved when it wins at least nine tenths of the pairs (ties
// count for neither) and the medians differ by more than A's quartile
// spread; otherwise, when either side's spread exceeds the bound the result
// is unresolved, unless every B run beats every A run; otherwise B
// regressed when its median is worse than A's by more than the bound.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	gain := func(from, to float64) float64 { // how much better to is than from
		if lowerBetter {
			return from - to
		}
		return to - from
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := range pairs {
		if gain(a[i], b[i]) > 0 {
			wins++
		}
	}
	medA, medB := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	if 10*wins >= 9*pairs && gain(medA, medB) > q3a-q1a {
		return "improved"
	}
	limit := bound * math.Abs(medA)
	if max(q3a-q1a, q3b-q1b) > limit {
		worstB, bestA := b[0], a[0]
		for _, x := range b {
			if gain(x, worstB) > 0 {
				worstB = x
			}
		}
		for _, x := range a {
			if gain(bestA, x) > 0 {
				bestA = x
			}
		}
		if gain(bestA, worstB) > 0 {
			return "within"
		}
		return "unresolved"
	}
	if -gain(medA, medB) > limit {
		return "regressed"
	}
	return "within"
}

// compare prints, for each workload and metric found in the report files,
// both sides' median and quartiles, the relative delta, and the verdict.
// args are the A files, "--", then the B files.
func compare(w io.Writer, desc *benchDesc, args []string) error {
	var filesA, filesB []string
	side := &filesA
	for _, a := range args {
		if a == "--" {
			side = &filesB
			continue
		}
		*side = append(*side, a)
	}
	if len(filesA) == 0 || len(filesB) == 0 {
		return fmt.Errorf("-compare wants report files of both sides: A.json... -- B.json...")
	}
	valsA, err := loadValues(filesA)
	if err != nil {
		return err
	}
	valsB, err := loadValues(filesB)
	if err != nil {
		return err
	}
	descs := map[string]metricDesc{}
	var order []string
	for _, d := range append(append([]metricDesc(nil), desc.EndToEnd...), desc.PerLayer...) {
		descs[d.Name] = d
		order = append(order, d.Name)
	}
	var wls []string
	for wl := range valsA {
		if _, ok := valsB[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-8s %-26s %14s %14s %14s %14s %14s %14s %9s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "delta", "verdict")
	for _, wl := range wls {
		for _, name := range order {
			a, b := valsA[wl][name], valsB[wl][name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			d := descs[name]
			medA, medB := median(a), median(b)
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(b)
			delta := "n/a"
			if medA != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(medB-medA)/math.Abs(medA))
			}
			fmt.Fprintf(w, "%-8s %-26s %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g %9s  %s\n",
				wl, name, medA, q1a, q3a, medB, q1b, q3b, delta, verdict(a, b, d.Better == "lower", d.Bound))
		}
	}
	return nil
}

// loadValues reads report files into workload -> metric -> values, one
// value per file, in file order.
func loadValues(files []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf reportFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rf.Schema != reportSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", f, rf.Schema, reportSchema)
		}
		for _, r := range rf.Reports {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}
