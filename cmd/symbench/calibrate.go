package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"symmerge/internal/coreutils"
)

// calibrateCap is the largest wall a tool may take at its chosen step. It
// keeps one rep of each merging workload near 5 s, so that a 20 s run holds
// several reps.
const calibrateCap = 500 * time.Millisecond

// calibrateLimit bounds one calibration run at its chosen step. The step
// search itself stops a probe at 4x the cap.
const calibrateLimit = 60 * time.Second

// calibrate regenerates testdata/sizes.json and testdata/expected.json in
// dir. For each table it picks, per tool, the largest step of the table's
// range at which every workload of the table finishes within calibrateCap
// (the range's lowest step when none does). At those steps it runs each
// workload and tool three times: the median wall becomes the tool's
// calibrated wall, and the fingerprints, which must all agree, become the
// oracle. It writes nothing unless the cross-checks hold: ssm-qce and
// dsm-qce agree on coverage and errors, the testgen exact-path census equals
// plain's path count (and their coverage and errors agree), and every
// corpus replays cleanly (a replay failure fails the run that made it).
func calibrate(dir, workdir string, log io.Writer) error {
	tools := coreutils.All()
	sz := &sizes{Schema: sizesSchema, CapMS: ms(calibrateCap), MinReps: 2,
		Steps: map[string]map[string]int{}, WallMS: map[string]map[string]float64{}}
	exp := &expected{Schema: expectedSchema, Entries: map[string]map[string]fingerprint{}}

	for _, table := range []string{"A", "B"} {
		rng := tableRanges[table]
		sz.Steps[table] = map[string]int{}
		for _, t := range tools {
			p, err := t.Compile()
			if err != nil {
				return err
			}
			best := rng[0]
		search:
			for step := rng[0]; step <= rng[1]; step++ {
				for _, w := range workloads {
					if w.Table != table {
						continue
					}
					dir := filepath.Join(workdir, fmt.Sprintf("probe.%s.%s.%d", w.Name, t.Name, step))
					tr := w.runTool(p, t, step, 4*calibrateCap, false, dir)
					fmt.Fprintf(log, "probe %-8s %-8s step %+d: %.3fs %s\n", w.Name, t.Name, step, tr.Wall().Seconds(), tr.Err)
					if tr.Err != "" || tr.Wall() > calibrateCap {
						break search
					}
				}
				best = step
			}
			sz.Steps[table][t.Name] = best
		}
	}

	for _, w := range workloads {
		sz.WallMS[w.Name] = map[string]float64{}
		exp.Entries[w.Name] = map[string]fingerprint{}
		for _, t := range tools {
			p, err := t.Compile()
			if err != nil {
				return err
			}
			step := sz.Steps[w.Table][t.Name]
			var walls []float64
			var want *fingerprint
			for i := range 3 {
				dir := filepath.Join(workdir, fmt.Sprintf("oracle.%s.%s.%d", w.Name, t.Name, i))
				tr := w.runTool(p, t, step, calibrateLimit, false, dir)
				if tr.Err != "" {
					return fmt.Errorf("%s %s step %+d: %s", w.Name, t.Name, step, tr.Err)
				}
				if want == nil {
					want = &tr.FP
				} else if d := tr.FP.diff(*want); d != "" {
					return fmt.Errorf("%s %s step %+d: a rerun departs from the first run: %s", w.Name, t.Name, step, d)
				}
				walls = append(walls, ms(tr.Wall()))
			}
			sz.WallMS[w.Name][t.Name] = median(walls)
			exp.Entries[w.Name][t.Name] = *want
			fmt.Fprintf(log, "oracle %-8s %-8s step %+d: %.1fms coverage %d\n", w.Name, t.Name, step, median(walls), want.Coverage)
		}
	}

	if err := crossCheck(exp); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(dir, "sizes.json"), sz); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, "expected.json"), exp)
}

// crossCheck compares the oracle's entries across workloads that must
// agree on the same tool and size.
func crossCheck(exp *expected) error {
	e := exp.Entries
	for tool, ssm := range e["ssm-qce"] {
		dsm := e["dsm-qce"][tool]
		if ssm.Coverage != dsm.Coverage || ssm.Mask != dsm.Mask || ssm.Errors != dsm.Errors {
			return fmt.Errorf("cross-check: %s: ssm-qce and dsm-qce disagree on coverage or errors", tool)
		}
	}
	for tool, gen := range e["testgen"] {
		plain := e["plain"][tool]
		if gen.Paths != plain.Paths {
			return fmt.Errorf("cross-check: %s: testgen census %s != plain paths %s", tool, gen.Paths, plain.Paths)
		}
		if gen.Coverage != plain.Coverage || gen.Mask != plain.Mask || gen.Errors != plain.Errors {
			return fmt.Errorf("cross-check: %s: testgen and plain disagree on coverage or errors", tool)
		}
	}
	return nil
}
