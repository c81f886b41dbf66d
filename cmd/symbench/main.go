// Command symbench is the repository's benchmark: every COREUTILS model
// explored exhaustively under four regimes, with each run checked against a
// frozen oracle. Run it from the repository root:
//
//	bash cmd/symbench/run.sh --workload ssm-qce --seed 1 --seconds 20 --trace 0
//	bash cmd/symbench/run.sh --workload all --seed 1 --json out.json
//
// It prints every metric as "name value unit" and, as the last line, one
// JSON object with the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1). It exits 1 when a run departs from the oracle and 2
// when a run reaches three times its time limit.
//
//	symbench -calibrate                  regenerate testdata/sizes.json and expected.json
//	symbench -compare A*.json -- B*.json compare two sets of -json reports
//
// See README.md for the workloads, the metrics and the calibration rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"symmerge/internal/coreutils"
)

// endToEnd names the metrics a user of the engine sees; every other metric
// is per-layer.
var endToEnd = map[string]bool{"total_s": true, "geomean_ms": true, "cpu_s": true, "ok_frac": true, "setup_s": true}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: ssm-qce, dsm-qce, plain, testgen or all")
		seed         = flag.Int64("seed", 1, "seed of the tool order and of Config.Seed")
		seconds      = flag.Int("seconds", 20, "how long the timed reps of each workload run")
		trace        = flag.Int("trace", 1, "1 adds a traced rep and reports the per-layer metrics last; 0 reports the end-to-end metrics last")
		jsonPath     = flag.String("json", "", "write per-tool rows and all metrics to this file")
		spansPath    = flag.String("spans", "", "write the benchmark's spans to this file as Chrome trace events")
		doCalibrate  = flag.Bool("calibrate", false, "regenerate the size and oracle tables in -testdata")
		testdata     = flag.String("testdata", filepath.Join("cmd", "symbench", "testdata"), "calibration: where to write sizes.json and expected.json")
		doCompare    = flag.Bool("compare", false, "compare report files: A.json... -- B.json...")
		benchPath    = flag.String("bench", "BENCHMARK.json", "compare: the benchmark description holding the bounds")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "symbench:", err)
		return 2
	}

	if *doCompare {
		desc, err := loadBenchDesc(*benchPath)
		if err != nil {
			return fail(err)
		}
		if err := compare(os.Stdout, desc, flag.Args()); err != nil {
			return fail(err)
		}
		return 0
	}

	// Explorations run one at a time on one engine, so one P is what they
	// use. A second lets the garbage collector's workers run beside the
	// engine; on a 2-vCPU VM that widened the quartile spread of total_s
	// over six runs from 5% to 25% of its median.
	runtime.GOMAXPROCS(1)

	// The corpora testgen writes live under the checkout's build directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fail(err)
	}
	workdir, err := os.MkdirTemp(".bench_build", "symbench-")
	if err != nil {
		return fail(err)
	}
	defer func() {
		// The corpora go only now, and the disk is synced, so that the
		// deletes (discards on the VM's disk) are over before the next run
		// on this machine starts measuring.
		os.RemoveAll(workdir)
		syscall.Sync()
	}()

	if *doCalibrate {
		if err := calibrate(*testdata, workdir, os.Stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	ws := workloads
	if *workloadName != "all" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		ws = []*workload{w}
	}
	sz, exp, err := loadData()
	if err != nil {
		return fail(err)
	}
	tools := coreutils.All()
	var reports []*report
	for _, w := range ws {
		pl, err := planFor(w, tools, sz, exp)
		if err != nil {
			return fail(err)
		}
		pl.Seed = *seed
		pl.Seconds = time.Duration(*seconds) * time.Second
		pl.SetupPasses = 20
		pl.Trace = *trace != 0
		pl.Workdir = workdir
		pl.JSONPath = *jsonPath
		rep, err := measure(pl)
		if err != nil {
			return fail(err)
		}
		printMetrics(os.Stdout, rep)
		reports = append(reports, rep)
	}
	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, reportFile{Schema: reportSchema, Reports: reports}); err != nil {
			return fail(err)
		}
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, reports); err != nil {
			return fail(err)
		}
	}

	var names []string
	for name := range reports[0].Metrics {
		if endToEnd[name] == (*trace == 0) {
			names = append(names, name)
		}
	}
	line, err := json.Marshal(newResultLine(reports, names))
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	for _, r := range reports {
		if !r.Correct {
			return 1
		}
	}
	return 0
}
