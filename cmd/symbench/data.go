package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"symmerge/internal/coreutils"
)

// sizes is testdata/sizes.json: the frozen size step of every tool in each
// table, and each workload's calibrated per-tool wall, which sets the
// tool's time limit.
type sizes struct {
	Schema  string                        `json:"schema"`
	CapMS   float64                       `json:"cap_ms"`   // calibration cap on a tool's wall
	MinReps int                           `json:"min_reps"` // fewest timed reps per run
	Steps   map[string]map[string]int     `json:"steps"`    // table -> tool -> step
	WallMS  map[string]map[string]float64 `json:"wall_ms"`  // workload -> tool -> median wall
}

// expected is testdata/expected.json: the oracle's fingerprint of every
// workload and tool.
type expected struct {
	Schema  string                            `json:"schema"`
	Entries map[string]map[string]fingerprint `json:"entries"` // workload -> tool
}

const (
	sizesSchema    = "symbench-sizes/v1"
	expectedSchema = "symbench-expected/v1"
)

// tableRanges are the step ranges calibration searches: table A serves the
// merging workloads, table B plain exploration and test generation.
var tableRanges = map[string][2]int{"A": {0, 4}, "B": {-2, 2}}

var (
	//go:embed testdata/sizes.json
	sizesJSON []byte
	//go:embed testdata/expected.json
	expectedJSON []byte
)

// loadData decodes the embedded tables.
func loadData() (*sizes, *expected, error) {
	var sz sizes
	if err := json.Unmarshal(sizesJSON, &sz); err != nil || sz.Schema != sizesSchema {
		return nil, nil, fmt.Errorf("testdata/sizes.json: not a %s document (%v); run -calibrate", sizesSchema, err)
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil || exp.Schema != expectedSchema {
		return nil, nil, fmt.Errorf("testdata/expected.json: not a %s document (%v); run -calibrate", expectedSchema, err)
	}
	return &sz, &exp, nil
}

// planFor assembles the plan of one workload from the tables, refusing a
// table that lacks a tool.
func planFor(w *workload, tools []*coreutils.Tool, sz *sizes, exp *expected) (plan, error) {
	pl := plan{
		W:       w,
		Tools:   tools,
		Steps:   map[string]int{},
		Limits:  map[string]time.Duration{},
		Repeats: map[string]int{},
		Expect:  map[string]fingerprint{},
		MinReps: sz.MinReps,
	}
	for _, t := range tools {
		step, ok1 := sz.Steps[w.Table][t.Name]
		wall, ok2 := sz.WallMS[w.Name][t.Name]
		fp, ok3 := exp.Entries[w.Name][t.Name]
		if !ok1 || !ok2 || !ok3 {
			return pl, fmt.Errorf("%s: no calibrated entry for tool %s; run -calibrate", w.Name, t.Name)
		}
		pl.Steps[t.Name] = step
		pl.Limits[t.Name] = limitFor(wall)
		pl.Repeats[t.Name] = repeatsFor(wall)
		pl.Expect[t.Name] = fp
	}
	return pl, nil
}
