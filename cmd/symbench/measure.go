package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"symmerge/internal/analysis"
	"symmerge/internal/coreutils"
	"symmerge/internal/lang"
	"symmerge/internal/obs"
	"symmerge/internal/qce"
	"symmerge/symx"
)

// plan is one measured run of a workload: the tools and their size steps,
// the oracle, and how long to measure.
type plan struct {
	W      *workload
	Tools  []*coreutils.Tool
	Steps  map[string]int
	Limits map[string]time.Duration
	// Repeats is how many times a timed rep runs each tool (1 when
	// absent); the run with the median wall stands for the tool.
	Repeats map[string]int
	Expect  map[string]fingerprint
	Seed    int64
	// Timed reps continue until Seconds have elapsed and at least MinReps
	// reps have run.
	Seconds     time.Duration
	MinReps     int
	SetupPasses int
	// Trace adds one traced rep after the timed ones, for the per-layer
	// metrics.
	Trace bool
	// Workdir receives the corpora of testgen runs.
	Workdir string
	// JSONPath, when set, receives the partial report the watchdog writes
	// before exiting.
	JSONPath string
}

// repeatsFor is how many times a timed rep runs a tool whose calibrated
// wall is wallMS: an odd count, as many as fit in 50 ms, at most 15. On the
// shared VM a run of a few milliseconds varies by a factor of two or more
// from one run to the next, and these tools weigh as much as any other in
// geomean_ms.
func repeatsFor(wallMS float64) int {
	n := int(min(max(50/wallMS, 1), 15))
	return n - (1 - n%2)
}

// medianRun calls run(0..n-1) and returns the run with the median wall.
func medianRun(n int, run func(i int) *toolRun) *toolRun {
	runs := make([]*toolRun, max(n, 1))
	for i := range runs {
		runs[i] = run(i)
	}
	slices.SortFunc(runs, func(a, b *toolRun) int { return cmp.Compare(a.Wall(), b.Wall()) })
	return runs[len(runs)/2]
}

// limitFor is a tool's time limit: the larger of 10x its calibrated wall
// and 5 s.
func limitFor(wallMS float64) time.Duration {
	return max(time.Duration(10*wallMS*float64(time.Millisecond)), 5*time.Second)
}

// report is the outcome of one plan.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Reps      int               `json:"reps"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Metrics   map[string]metric `json:"metrics"`
	Tools     []*toolRow        `json:"tools"`

	spans *spanLog
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// toolRow is one tool's line of the report.
type toolRow struct {
	Tool     string      `json:"tool"`
	Step     int         `json:"step"`
	LimitS   float64     `json:"limit_s"`
	WallS    []float64   `json:"wall_s"` // timed reps, in run order
	CPUS     []float64   `json:"cpu_s"`
	MedianS  float64     `json:"median_s"`
	Failures []string    `json:"failures,omitempty"`
	FP       fingerprint `json:"fingerprint"`
	Traced   *layerStats `json:"traced,omitempty"`
}

// layerStats are the per-layer numbers of traced runs: one tool's, or the
// sum over the suite.
type layerStats struct {
	RunS          float64 `json:"run_s"` // traced symx.Run wall
	Steps         uint64  `json:"steps"`
	Forks         uint64  `json:"forks"`
	StepS         float64 `json:"step_s"`
	QueryS        float64 `json:"query_s"`
	GateS         float64 `json:"gate_s"`
	SATS          float64 `json:"sat_s"`
	MergeAttempts uint64  `json:"merge_attempts"`
	Merges        uint64  `json:"merges"`
	FFSelected    uint64  `json:"ff_selected"`
	FFMerged      uint64  `json:"ff_merged"`
	RuleHits      uint64  `json:"rule_hits"`
	PrunedStatic  uint64  `json:"pruned_static"`
	Queries       uint64  `json:"queries"`
	CacheHits     uint64  `json:"cache_hits"`
	SATCalls      uint64  `json:"sat_calls"`
	SATVars       uint64  `json:"sat_vars"`
	SATClauses    uint64  `json:"sat_clauses"`
	SessionReuse  uint64  `json:"session_reuse"`
	Timeouts      uint64  `json:"timeouts"`
	Tests         int     `json:"tests"`
	ExactPaths    uint64  `json:"exact_paths"`
	ReplayS       float64 `json:"replay_s"`

	stepH, gateH, queryH hist
}

func newLayerStats() *layerStats {
	return &layerStats{stepH: hist{}, gateH: hist{}, queryH: hist{}}
}

// layersOf reads one traced run: the engine's Result.Stats and the metrics
// registry the run fed.
func layersOf(tr *toolRun) *layerStats {
	st, snap := &tr.Res.Stats, tr.Snap
	l := newLayerStats()
	l.RunS = tr.Run.Seconds()
	l.ReplayS = tr.Replay.Seconds()
	l.Steps, l.Forks = st.Steps, st.Forks
	l.MergeAttempts, l.Merges = st.MergeAttempts, st.Merges
	l.FFSelected, l.FFMerged = st.FFSelected, st.FFMerged
	for _, r := range st.Rules {
		l.RuleHits += r.Hits
	}
	l.PrunedStatic = st.PrunedStatic
	sv := &st.Solver
	l.Queries, l.CacheHits = sv.Queries, sv.CacheHits+sv.ModelReuseHits
	l.SATCalls, l.SATVars, l.SATClauses = sv.SATCalls, sv.SATVars, sv.SATClauses
	l.SessionReuse, l.Timeouts = sv.SessionBlastReuse, sv.Timeouts
	l.SATS = sv.SATTime.Seconds()
	l.Tests, l.ExactPaths = tr.Tests, st.ExactPaths

	us := func(n uint64) float64 { return float64(n) / 1e6 }
	l.StepS = us(snap.StepLat.SumUS)
	l.GateS = us(snap.MergeGate.SumUS)
	l.stepH.add(snap.StepLat)
	l.gateH.add(snap.MergeGate)
	for _, q := range []obs.HistSnap{snap.QueryLatSession, snap.QueryLatOneShot, snap.QueryLatCached, snap.QueryLatSummary} {
		l.QueryS += us(q.SumUS)
		l.queryH.add(q)
	}
	return l
}

func (l *layerStats) add(o *layerStats) {
	l.RunS += o.RunS
	l.Steps += o.Steps
	l.Forks += o.Forks
	l.StepS += o.StepS
	l.QueryS += o.QueryS
	l.GateS += o.GateS
	l.SATS += o.SATS
	l.MergeAttempts += o.MergeAttempts
	l.Merges += o.Merges
	l.FFSelected += o.FFSelected
	l.FFMerged += o.FFMerged
	l.RuleHits += o.RuleHits
	l.PrunedStatic += o.PrunedStatic
	l.Queries += o.Queries
	l.CacheHits += o.CacheHits
	l.SATCalls += o.SATCalls
	l.SATVars += o.SATVars
	l.SATClauses += o.SATClauses
	l.SessionReuse += o.SessionReuse
	l.Timeouts += o.Timeouts
	l.Tests += o.Tests
	l.ExactPaths += o.ExactPaths
	l.ReplayS += o.ReplayS
	for _, p := range []struct{ dst, src hist }{{l.stepH, o.stepH}, {l.gateH, o.gateH}, {l.queryH, o.queryH}} {
		for le, n := range p.src {
			p.dst[le] += n
		}
	}
}

// setupTimes is one pass of static set-up over the whole suite, made during
// timed rep rep.
type setupTimes struct {
	compile, analyze, qce time.Duration
	rep                   int
}

func (s setupTimes) total() time.Duration { return s.compile + s.analyze + s.qce }

// setupPass times each layer's set-up entry point once per tool: the MiniC
// compiler, the dataflow analyses and QCE.
func setupPass(tools []*coreutils.Tool, spans *spanLog) (setupTimes, error) {
	var st setupTimes
	for _, t := range tools {
		sp := spans.begin("setup "+t.Name, "setup", 0)
		t0 := time.Now()
		p, err := lang.Compile(t.Source)
		if err != nil {
			return st, fmt.Errorf("compiling %s: %w", t.Name, err)
		}
		t1 := time.Now()
		analysis.Analyze(p)
		t2 := time.Now()
		qce.Analyze(p, qce.DefaultParams())
		t3 := time.Now()
		st.compile += t1.Sub(t0)
		st.analyze += t2.Sub(t1)
		st.qce += t3.Sub(t2)
		spans.add("lang.Compile", "setup", t0, t1, sp)
		spans.add("analysis.Analyze", "setup", t1, t2, sp)
		spans.add("qce.Analyze", "setup", t2, t3, sp)
		spans.end(sp)
	}
	return st, nil
}

// watchdog ends the benchmark when one run reaches three times its limit:
// the engine does not always stop at MaxTime, and a run stuck in one
// solver call would otherwise hold the benchmark forever.
type watchdog struct {
	mu      sync.Mutex
	path    string
	workdir string
	partial partialReport
}

type partialReport struct {
	Schema   string       `json:"schema"`
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Hung     string       `json:"hung"`
	Runs     []partialRun `json:"runs"`
}

type partialRun struct {
	Tool  string  `json:"tool"`
	Rep   int     `json:"rep"` // -1 for the traced rep
	WallS float64 `json:"wall_s"`
	Err   string  `json:"err,omitempty"`
}

func (w *watchdog) record(rep int, tr *toolRun) {
	w.mu.Lock()
	w.partial.Runs = append(w.partial.Runs, partialRun{tr.Tool, rep, tr.Wall().Seconds(), tr.Err})
	w.mu.Unlock()
}

// arm starts the watch over one run; the returned timer must be stopped
// when the run returns.
func (w *watchdog) arm(tool string, limit time.Duration) *time.Timer {
	return time.AfterFunc(3*limit, func() {
		w.mu.Lock()
		w.partial.Hung = fmt.Sprintf("%s ran past 3x its %.1fs limit", tool, limit.Seconds())
		fmt.Fprintf(os.Stderr, "symbench: %s: %s\n", w.partial.Workload, w.partial.Hung)
		if w.path != "" {
			data, _ := json.MarshalIndent(w.partial, "", "  ") // plain structs always marshal
			if err := os.WriteFile(w.path, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "symbench:", err)
			}
		}
		os.RemoveAll(w.workdir)
		os.Exit(2)
	})
}

// measure runs the plan: set-up passes, the timed reps with tracing off,
// then (with Trace) one traced rep.
func measure(pl plan) (*report, error) {
	spans := newSpanLog()
	rep := &report{Workload: pl.W.Name, Seed: pl.Seed, Correct: true, spans: spans}

	progs := map[string]*symx.Program{}
	rows := map[string]*toolRow{}
	for _, t := range pl.Tools {
		p, err := t.Compile()
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", t.Name, err)
		}
		// One step computes the program's static facts, which Run
		// otherwise computes lazily inside the first timed rep.
		cfg := pl.W.config(t, pl.Steps[t.Name])
		cfg.MaxSteps = 1
		symx.Run(p, cfg)
		progs[t.Name] = p
		row := &toolRow{Tool: t.Name, Step: pl.Steps[t.Name], LimitS: pl.Limits[t.Name].Seconds()}
		rows[t.Name] = row
		rep.Tools = append(rep.Tools, row)
	}

	wd := &watchdog{path: pl.JSONPath, workdir: pl.Workdir,
		partial: partialReport{Schema: "symbench-partial/v1", Workload: pl.W.Name, Seed: pl.Seed}}
	rng := rand.New(rand.NewPCG(uint64(pl.Seed), 0x5eed))
	order := append([]*coreutils.Tool(nil), pl.Tools...)
	var refs []float64 // reference-kernel times of the current rep, in ms
	// one runs a tool once: the i-th run of it in rep r.
	one := func(r, i int, t *coreutils.Tool, traced bool, parent int) *toolRun {
		runtime.GC() // each run starts from a collected heap, whatever ran before it
		refs = append(refs, ms(refKernel()))
		limit := pl.Limits[t.Name]
		dog := wd.arm(t.Name, limit)
		sp := spans.begin(t.Name, "tool", parent)
		dir := filepath.Join(pl.Workdir, fmt.Sprintf("%s.%d.%d", t.Name, r, i))
		tr := pl.W.runTool(progs[t.Name], t, pl.Steps[t.Name], limit, traced, dir)
		dog.Stop()
		spans.add("symx.Run", "run", tr.Start, tr.Start.Add(tr.Run), sp)
		if tr.Replay > 0 {
			spans.add("corpus.Replay", "replay", tr.Start.Add(tr.Run), tr.Start.Add(tr.Wall()), sp)
		}
		spans.end(sp)
		wd.record(r, tr)

		row := rows[t.Name]
		rep.Attempted++
		fail := tr.Err
		if fail == "" {
			if d := tr.FP.diff(pl.Expect[t.Name]); d != "" {
				fail = "oracle: " + d
				rep.Correct = false
			}
		}
		if fail != "" {
			rep.Failed++
			row.Failures = append(row.Failures, fmt.Sprintf("rep %d: %s", r, fail))
		}
		row.FP = tr.FP
		return tr
	}

	// Set-up passes are spread over the timed reps, one between tool runs
	// every Seconds/SetupPasses, so that their median does not hang on the
	// load of one moment.
	var setups []setupTimes
	var lastSetup time.Time
	setupEvery := pl.Seconds / time.Duration(max(pl.SetupPasses, 1))
	setup := func(r int) error {
		runtime.GC()
		st, err := setupPass(pl.Tools, spans)
		st.rep = r
		setups = append(setups, st)
		lastSetup = time.Now()
		return err
	}
	if err := setup(0); err != nil {
		return nil, err
	}

	// speeds[r] scales rep r's times to the nominal machine: refNominal over
	// the median reference-kernel time of the rep.
	var speeds, allRefs []float64
	var allocs, mallocs, gcs []float64
	start := time.Now()
	for r := 0; r < pl.MinReps || time.Since(start) < pl.Seconds; r++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		rs := spans.begin(fmt.Sprintf("rep %d", r), "rep", 0)
		refs = refs[:0]
		var mem memDelta
		for _, t := range order {
			if time.Since(lastSetup) >= setupEvery {
				if err := setup(r); err != nil {
					return nil, err
				}
			}
			tr := medianRun(pl.Repeats[t.Name], func(i int) *toolRun { return one(r, i, t, false, rs) })
			mem.add(tr.Mem)
			row := rows[t.Name]
			row.WallS = append(row.WallS, tr.Wall().Seconds())
			row.CPUS = append(row.CPUS, tr.CPU.Seconds())
		}
		spans.end(rs)
		rep.Reps++
		speeds = append(speeds, ms(refNominal)/median(refs))
		allRefs = append(allRefs, refs...)
		allocs = append(allocs, float64(mem.bytes)/(1<<20))
		mallocs = append(mallocs, float64(mem.objects))
		gcs = append(gcs, float64(mem.gcs))
	}

	// Each end-to-end time is a median of values scaled by their rep's
	// speed; the -json rows keep the raw times.
	scaledMedian := func(xs []float64) float64 {
		scaled := make([]float64, len(xs))
		for r, x := range xs {
			scaled[r] = x * speeds[r]
		}
		return median(scaled)
	}
	var medians []float64
	var total, rawTotal, cpu float64
	for _, row := range rep.Tools {
		row.MedianS = median(row.WallS)
		rawTotal += row.MedianS
		wall := scaledMedian(row.WallS)
		medians = append(medians, wall)
		total += wall
		cpu += scaledMedian(row.CPUS)
	}
	var setupTotal, compileMS, analyzeMS, qceMS []float64
	for _, s := range setups {
		setupTotal = append(setupTotal, s.total().Seconds()*speeds[s.rep])
		compileMS = append(compileMS, ms(s.compile))
		analyzeMS = append(analyzeMS, ms(s.analyze))
		qceMS = append(qceMS, ms(s.qce))
	}
	m := map[string]metric{
		"total_s":    {total, "s"},
		"geomean_ms": {geomean(medians) * 1000, "ms"},
		"cpu_s":      {cpu, "s"},
		"ok_frac":    {float64(rep.Attempted-rep.Failed) / float64(rep.Attempted), "fraction"},
		"setup_s":    {median(setupTotal), "s"},

		"machine.ref_ms":      {median(allRefs), "ms"},
		"machine.raw_total_s": {rawTotal, "s"},

		"lang.compile_ms":     {median(compileMS), "ms"},
		"analysis.analyze_ms": {median(analyzeMS), "ms"},
		"qce.analyze_ms":      {median(qceMS), "ms"},
		"runtime.alloc_mb":    {median(allocs), "MB"},
		"runtime.mallocs":     {median(mallocs), "count"},
		"runtime.gc_cycles":   {median(gcs), "count"},
	}

	if pl.Trace {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		rs := spans.begin("traced rep", "rep", 0)
		refs = refs[:0]
		sum := newLayerStats()
		for _, t := range order {
			// Repeated like a timed run, so that trace.overhead_pct
			// compares like with like.
			tr := medianRun(pl.Repeats[t.Name], func(i int) *toolRun { return one(-1, i, t, true, rs) })
			l := layersOf(tr)
			rows[t.Name].Traced = l
			sum.add(l)
		}
		spans.end(rs)
		tracedSpeed := ms(refNominal) / median(refs)
		for k, v := range layerMetrics(sum, tracedSpeed, total) {
			m[k] = v
		}
	}
	m["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.Metrics = m
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics derives the per-layer metrics of a traced rep from its
// summed layer stats. speed scales the traced rep to the nominal machine,
// as total_s, the timed reps' total, is scaled.
func layerMetrics(l *layerStats, speed, total float64) map[string]metric {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	tracedWall := l.RunS + l.ReplayS
	attributed := l.StepS // self + queries + gate, by the definition of self
	return map[string]metric{
		"analysis.pruned_static": {float64(l.PrunedStatic), "count"},

		"core.steps":              {float64(l.Steps), "count"},
		"core.forks":              {float64(l.Forks), "count"},
		"core.self_s":             {l.StepS - l.QueryS - l.GateS, "s"},
		"core.step_p99_us":        {l.stepH.p99(), "us"},
		"core.merge.attempts":     {float64(l.MergeAttempts), "count"},
		"core.merge.accepted":     {float64(l.Merges), "count"},
		"core.merge.accept_ratio": {ratio(l.Merges, l.MergeAttempts), "fraction"},
		"core.merge.gate_s":       {l.GateS, "s"},
		"core.merge.gate_p99_us":  {l.gateH.p99(), "us"},
		"core.merge.ff_rate":      {ratio(l.FFMerged, l.FFSelected), "fraction"},

		"expr.rule_hits": {float64(l.RuleHits), "count"},

		"solver.queries":         {float64(l.Queries), "count"},
		"solver.query_s":         {l.QueryS, "s"},
		"solver.cache_hit_ratio": {ratio(l.CacheHits, l.Queries), "fraction"},
		"solver.sat_calls":       {float64(l.SATCalls), "count"},
		"solver.sat_vars":        {float64(l.SATVars), "count"},
		"solver.sat_clauses":     {float64(l.SATClauses), "count"},
		"solver.session_reuse":   {float64(l.SessionReuse), "count"},
		"solver.timeouts":        {float64(l.Timeouts), "count"},
		"solver.query_p99_us":    {l.queryH.p99(), "us"},
		"solver.sat_s":           {l.SATS, "s"},
		"solver.frontend_s":      {l.QueryS - l.SATS, "s"},

		"corpus.tests":       {float64(l.Tests), "count"},
		"corpus.exact_paths": {float64(l.ExactPaths), "count"},
		"corpus.replay_s":    {l.ReplayS, "s"},

		"trace.wall_s":           {tracedWall, "s"},
		"trace.overhead_pct":     {100 * (tracedWall*speed/total - 1), "%"},
		"trace.unattributed_pct": {100 * (l.RunS - attributed) / l.RunS, "%"},
	}
}
