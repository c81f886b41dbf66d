package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"symmerge/internal/coreutils"
	"symmerge/internal/corpus"
	"symmerge/symx"
)

// workload is one exploration regime run over every tool of the suite.
type workload struct {
	Name  string
	Table string // step table in sizes.json: "A" or "B"
	Merge symx.MergeMode
	QCE   bool
	// Corpus makes every run emit a canonical on-disk corpus, which the
	// benchmark then replays through the IR interpreter.
	Corpus bool
}

// workloads are the benchmark's regimes; README.md says why each was
// chosen. The search strategy is left to the engine's default for the merge
// mode: topo for SSM, random(seed) for DSM, DFS for none.
var workloads = []*workload{
	{Name: "ssm-qce", Table: "A", Merge: symx.MergeSSM, QCE: true},
	{Name: "dsm-qce", Table: "A", Merge: symx.MergeDSM, QCE: true},
	{Name: "plain", Table: "B"},
	{Name: "testgen", Table: "B", Merge: symx.MergeSSM, QCE: true, Corpus: true},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// searchSeed is the Config.Seed of every run. Only DSM's random search reads
// it, and under DSM one search order can take four times as long as another
// on the same tool: with the search seed drawn from the benchmark seed,
// dsm-qce's total_s had a quartile spread of 22% of its median over ten
// seeds. The benchmark seed therefore shuffles the tool order only.
const searchSeed = 1

// config is the exploration config of one tool run at a size step.
func (w *workload) config(t *coreutils.Tool, step int) symx.Config {
	cfg := t.BaseConfig()
	grow(t, &cfg, step)
	cfg.Merge, cfg.UseQCE = w.Merge, w.QCE
	cfg.Seed = searchSeed
	return cfg
}

// grow scales a tool's symbolic input by a size step the way the paper
// harness does (argument-driven tools grow ArgLen, stdin-driven tools grow
// StdinLen), keeping at least one symbolic byte.
func grow(t *coreutils.Tool, cfg *symx.Config, step int) {
	if t.UsesStdin {
		cfg.StdinLen = max(t.DefaultStdin+step, 1)
	} else {
		cfg.ArgLen = max(t.DefaultLen+step, 1)
	}
}

// fingerprint is what the oracle checks of one exhaustive exploration. It
// depends only on the explored path set, never on timing or search order.
type fingerprint struct {
	Coverage int    `json:"coverage"`         // covered locations
	Mask     string `json:"mask"`             // digest of the covered-location set
	Errors   string `json:"errors"`           // digest of the distinct location|message errors
	Paths    string `json:"paths,omitempty"`  // exact single-path count (plain, testgen)
	Corpus   string `json:"corpus,omitempty"` // corpus DirDigest (testgen)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// observe reduces a result to its fingerprint.
func (w *workload) observe(res *symx.Result) fingerprint {
	fp := fingerprint{
		Coverage: res.Stats.CoveredInstrs,
		Mask:     digest(corpus.MaskToRanges(res.CoverageMask)),
	}
	seen := map[string]bool{}
	var errs []string
	for _, e := range res.Errors {
		k := fmt.Sprintf("%v|%s", e.Loc, e.Msg)
		if !seen[k] {
			seen[k] = true
			errs = append(errs, k)
		}
	}
	sort.Strings(errs)
	fp.Errors = digest(strings.Join(errs, "\n"))
	switch {
	case w.Corpus:
		fp.Paths = fmt.Sprint(res.Stats.ExactPaths)
	case w.Merge == symx.MergeNone:
		// Without merging every completed state is one path.
		fp.Paths = res.Stats.PathsMult.String()
	}
	return fp
}

// diff names the fields in which got departs from want ("" when equal).
func (fp fingerprint) diff(want fingerprint) string {
	var bad []string
	check := func(name, g, w string) {
		if g != w {
			bad = append(bad, fmt.Sprintf("%s %s, want %s", name, g, w))
		}
	}
	check("coverage", fmt.Sprint(fp.Coverage), fmt.Sprint(want.Coverage))
	check("mask", fp.Mask, want.Mask)
	check("errors", fp.Errors, want.Errors)
	check("paths", fp.Paths, want.Paths)
	check("corpus", fp.Corpus, want.Corpus)
	return strings.Join(bad, "; ")
}

// toolRun is the outcome of one tool exploration (plus, for testgen, the
// replay of its corpus).
type toolRun struct {
	Tool   string
	Start  time.Time     // when symx.Run was called
	Run    time.Duration // symx.Run
	Replay time.Duration // corpus.Replay (testgen)
	CPU    time.Duration // user+system CPU over Run and Replay
	Mem    memDelta      // heap allocation over Run and Replay
	Res    *symx.Result
	Snap   *symx.MetricsSnap // metrics of a traced run, else nil
	FP     fingerprint
	Tests  int    // corpus tests (testgen)
	Err    string // why the run cannot be checked: limit, engine or corpus error
}

// Wall is the time the run counts toward the end-to-end metrics.
func (r *toolRun) Wall() time.Duration { return r.Run + r.Replay }

// runTool explores one tool under the workload with a time limit, applied
// through both MaxTime and the context. A traced run feeds a fresh
// symx.Metrics registry and keeps its snapshot.
//
// A testgen run writes its corpus to dir, a path that must not exist yet.
// It syncs the disk before it starts the clock: the pending writes of
// earlier corpora made the runs of small tools up to three times slower
// and far noisier. It leaves the corpus in place, and the caller removes
// the corpora once the measuring is over: on the development VM's disk,
// removing them in between made the following corpus writes slower still.
func (w *workload) runTool(p *symx.Program, t *coreutils.Tool, step int, limit time.Duration, traced bool, dir string) *toolRun {
	cfg := w.config(t, step)
	if w.Corpus {
		cfg.CorpusDir = dir
		cfg.CorpusLabel = t.Name
		syscall.Sync()
	}
	cfg.MaxTime = limit
	if traced {
		cfg.Metrics = symx.NewMetrics()
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cfg.Context = ctx

	out := &toolRun{Tool: t.Name}
	mem0 := readMem()
	cpu0 := cpuTime()
	out.Start = time.Now()
	out.Res = symx.Run(p, cfg)
	out.Run = time.Since(out.Start)
	var rep *corpus.Report
	var replayErr error
	if w.Corpus && out.Res.Completed && out.Res.CorpusErr == nil {
		t1 := time.Now()
		rep, replayErr = corpus.Replay(dir, p.Internal())
		out.Replay = time.Since(t1)
	}
	out.CPU = cpuTime() - cpu0
	out.Mem = readMem().sub(mem0)
	out.Snap = cfg.Metrics.Snapshot()

	res := out.Res
	switch {
	case res.ConfigErr != nil:
		out.Err = "config: " + res.ConfigErr.Error()
	case !res.Completed:
		out.Err = fmt.Sprintf("interrupted (%s) after %.3fs", res.Interrupted, out.Run.Seconds())
	case res.CorpusErr != nil:
		out.Err = res.CorpusErr.Error()
	case replayErr != nil:
		out.Err = replayErr.Error()
	case rep != nil && !rep.OK():
		out.Err = "replay: " + rep.Summary()
	}
	out.FP = w.observe(res)
	if rep != nil {
		out.Tests = rep.Tests
		d, err := corpus.DirDigest(dir)
		if err != nil && out.Err == "" {
			out.Err = err.Error()
		}
		out.FP.Corpus = d
	}
	if out.Err == "" && out.Wall() > limit {
		out.Err = fmt.Sprintf("over its limit: %.3fs > %.3fs", out.Wall().Seconds(), limit.Seconds())
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far, GC workers
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta counts heap allocation and the collections it triggered.
type memDelta struct{ bytes, objects, gcs uint64 }

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/automatic:gc-cycles"},
}

// readMem reads the cumulative allocation counters of the Go runtime.
func readMem() memDelta {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	return memDelta{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{m.bytes - o.bytes, m.objects - o.objects, m.gcs - o.gcs}
}

func (m *memDelta) add(o memDelta) {
	m.bytes += o.bytes
	m.objects += o.objects
	m.gcs += o.gcs
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
