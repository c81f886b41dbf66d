package bench

import (
	"fmt"
	"math"
	"math/big"

	"symmerge/internal/coreutils"
	"symmerge/symx"
)

// Figure3 validates the multiplicity → path-count estimator: for seq, join
// and tsort, it runs SSM+QCE with the exact-path shadow census over growing
// input sizes and fits log(paths) ≈ c1 + c2·log(multiplicity). The paper
// observes a linear log-log relation (Figure 3).
func Figure3(opts Options) []*Table {
	var tables []*Table
	// Start offsets and strides keep the shadow census affordable for the
	// heavier models (the census re-checks feasibility per single path)
	// and make each size step change the workload (tsort consumes stdin
	// in pairs, so it needs a stride of 2).
	starts := map[string]int{"seq": 0, "join": 0, "tsort": -2}
	strides := map[string]int{"seq": 1, "join": 1, "tsort": 2}
	for _, name := range []string{"seq", "join", "tsort"} {
		tool, err := coreutils.Get(name)
		if err != nil {
			panic(err)
		}
		t := &Table{
			Title:  fmt.Sprintf("Figure 3: exact path count vs state multiplicity (%s)", name),
			Header: []string{"sym_bytes", "multiplicity", "exact_paths"},
		}
		var logM, logP []float64
		for step0 := 0; step0 < 5; step0++ {
			step := step0*strides[name] + starts[name]
			var bytesUsed int
			out, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, step)
				cfg.Merge = symx.MergeSSM
				cfg.UseQCE = true
				cfg.TrackExactPaths = true
				cfg.MaxTime = opts.Timeout
				bytesUsed = symBytes(*cfg)
			}, opts)
			if err != nil {
				panic(err)
			}
			if !out.Completed || out.Exact == 0 {
				break
			}
			m, _ := new(big.Float).SetInt(out.Paths).Float64()
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(bytesUsed), fmtBig(out.Paths), fmt.Sprint(out.Exact)})
			if m > 0 {
				logM = append(logM, math.Log(m))
				logP = append(logP, math.Log(float64(out.Exact)))
			}
		}
		c1, c2, r2 := linearFit(logM, logP)
		t.Comment = fmt.Sprintf("log p = %.3f + %.3f log m, R^2 = %.3f", c1, c2, r2)
		tables = append(tables, t)
	}
	return tables
}

// Figure4 measures, for every tool, the ratio of paths explored by DSM+QCE
// to plain exploration under a fixed time budget (the paper's Figure 4,
// with the 1h budget scaled down). Ratios span orders of magnitude; a few
// tools fall below 1.
func Figure4(opts Options) *Table {
	t := &Table{
		Title: "Figure 4: path ratio (DSM+QCE / base) under a fixed time budget",
		Comment: fmt.Sprintf("budget %v per run; paths counted by multiplicity; input sizes grown to saturate the budget",
			opts.Budget),
		Header: []string{"tool", "paths_base", "paths_dsm", "ratio"},
	}
	for _, tool := range coreutils.All() {
		// Grow inputs so the budget is binding (the paper sizes inputs
		// to keep KLEE busy for the full hour). Base exploration uses
		// DFS, which completes paths steadily under a partial budget —
		// the most favorable baseline for path throughput; DSM rides a
		// coverage-oriented driving heuristic as in the paper.
		const step = 6
		base, err := runTool(tool, func(cfg *symx.Config) {
			grow(tool, cfg, step)
			cfg.Merge = symx.MergeNone
			cfg.Strategy = symx.StrategyDFS
			cfg.MaxTime = opts.Budget
		}, opts)
		if err != nil {
			panic(err)
		}
		dsm, err := runTool(tool, func(cfg *symx.Config) {
			grow(tool, cfg, step)
			cfg.Merge = symx.MergeDSM
			cfg.UseQCE = true
			cfg.Strategy = symx.StrategyCoverage
			cfg.MaxTime = opts.Budget
		}, opts)
		if err != nil {
			panic(err)
		}
		ratio := ratioBig(dsm.Paths, base.Paths)
		t.Rows = append(t.Rows, []string{
			tool.Name, fmtBig(base.Paths), fmtBig(dsm.Paths),
			fmt.Sprintf("%.3g", ratio)})
	}
	return t
}

// Figure5 sweeps the symbolic input size for three representative tools and
// reports the exhaustive-exploration speedup T_base / T_ssm+qce. The paper
// (Figure 5) sees the speedup grow exponentially with input size for link
// and nice and stay flat for basename.
func Figure5(opts Options) *Table {
	t := &Table{
		Title: "Figure 5: exhaustive-exploration speedup of SSM+QCE vs input size",
		Comment: fmt.Sprintf("timeout %v; speedup marked >= when the base run timed out",
			opts.Timeout),
		Header: []string{"tool", "sym_bytes", "t_base_s", "t_ssm_s", "speedup"},
	}
	for _, name := range []string{"link", "nice", "basename"} {
		tool, err := coreutils.Get(name)
		if err != nil {
			panic(err)
		}
		for step := 0; step < 8; step++ {
			var bytesUsed int
			base, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, step)
				cfg.Merge = symx.MergeNone
				cfg.MaxTime = opts.Timeout
				bytesUsed = symBytes(*cfg)
			}, opts)
			if err != nil {
				panic(err)
			}
			ssm, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, step)
				cfg.Merge = symx.MergeSSM
				cfg.UseQCE = true
				cfg.MaxTime = opts.Timeout
			}, opts)
			if err != nil {
				panic(err)
			}
			if !ssm.Completed {
				break // merged run over budget: stop the sweep here
			}
			mark := ""
			if !base.Completed {
				mark = ">="
			}
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprint(bytesUsed),
				fmt.Sprintf("%.3f", base.Elapsed),
				fmt.Sprintf("%.3f", ssm.Elapsed),
				fmt.Sprintf("%s%.2f", mark, base.Elapsed/math.Max(ssm.Elapsed, 1e-6))})
			if !base.Completed {
				break
			}
		}
	}
	return t
}

// Figure6 is the scatter of SSM+QCE completion time against base completion
// time over a tool × size grid; base timeouts are lower bounds (the paper's
// triangles).
func Figure6(opts Options) *Table {
	t := &Table{
		Title: "Figure 6: completion time scatter, SSM+QCE vs base",
		Comment: fmt.Sprintf("timeout %v; timeout column marks runs where the base exploration was cut off",
			opts.Timeout),
		Header: []string{"tool", "sym_bytes", "t_base_s", "t_ssm_s", "base_timeout"},
	}
	for _, tool := range coreutils.All() {
		for step := 0; step <= 2; step += 2 {
			var bytesUsed int
			base, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, step)
				cfg.Merge = symx.MergeNone
				cfg.MaxTime = opts.Timeout
				bytesUsed = symBytes(*cfg)
			}, opts)
			if err != nil {
				panic(err)
			}
			ssm, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, step)
				cfg.Merge = symx.MergeSSM
				cfg.UseQCE = true
				cfg.MaxTime = opts.Timeout
			}, opts)
			if err != nil {
				panic(err)
			}
			if !ssm.Completed {
				continue
			}
			t.Rows = append(t.Rows, []string{
				tool.Name, fmt.Sprint(bytesUsed),
				fmt.Sprintf("%.3f", base.Elapsed),
				fmt.Sprintf("%.3f", ssm.Elapsed),
				fmt.Sprint(!base.Completed)})
		}
	}
	return t
}

// Figure7 sweeps the QCE threshold α for link, nice, paste and pr: α=∞
// merges everything, α=0 merges only states with no differing concrete
// variables, "none" disables merging. The paper (Figure 7) finds a sweet
// spot between the extremes.
func Figure7(opts Options) *Table {
	alphas := []struct {
		label string
		val   float64
		mode  symx.MergeMode
		qce   bool
	}{
		{"none", 0, symx.MergeNone, false},
		{"0", 1e-300, symx.MergeSSM, true}, // α→0: any nonzero Qadd is hot
		{"1e-12", 1e-12, symx.MergeSSM, true},
		{"1e-3", 1e-3, symx.MergeSSM, true},
		{"0.5", 0.5, symx.MergeSSM, true},
		{"2", 2, symx.MergeSSM, true},
		{"inf", 0, symx.MergeSSM, false}, // merge everything
	}
	t := &Table{
		Title:   "Figure 7: completion time vs QCE threshold alpha",
		Comment: fmt.Sprintf("timeout %v; exhaustive exploration, SSM", opts.Timeout),
		Header:  []string{"tool", "alpha", "t_s", "completed", "merges"},
	}
	for _, name := range []string{"link", "nice", "paste", "pr"} {
		tool, err := coreutils.Get(name)
		if err != nil {
			panic(err)
		}
		for _, a := range alphas {
			out, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, 2)
				cfg.Merge = a.mode
				cfg.UseQCE = a.qce
				if a.qce {
					cfg.QCE = symx.DefaultQCEParams()
					cfg.QCE.Alpha = a.val
				}
				cfg.MaxTime = opts.Timeout
			}, opts)
			if err != nil {
				panic(err)
			}
			t.Rows = append(t.Rows, []string{
				name, a.label,
				fmt.Sprintf("%.3f", out.Elapsed),
				out.Status(),
				fmt.Sprint(out.Merges)})
		}
	}
	return t
}

// Figure8 compares statement coverage under a coverage-guided driving
// heuristic in an incomplete setting: DSM must roughly match the base
// strategy's coverage while SSM falls behind (paper Figure 8).
func Figure8(opts Options) *Table {
	t := &Table{
		Title: "Figure 8: statement coverage, merging vs base under coverage-guided search",
		Comment: fmt.Sprintf("budget %v; large inputs keep the exploration incomplete; deltas in coverage points",
			opts.Budget),
		Header: []string{"tool", "cov_base", "cov_ssm", "cov_dsm", "d_ssm", "d_dsm"},
	}
	for _, tool := range coreutils.All() {
		const step = 24 // far beyond exhaustible sizes
		run := func(merge symx.MergeMode, useQCE bool, strat symx.Strategy) RunOutcome {
			out, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, step)
				cfg.Merge = merge
				cfg.UseQCE = useQCE
				cfg.Strategy = strat
				cfg.MaxTime = opts.Budget
			}, opts)
			if err != nil {
				panic(err)
			}
			return out
		}
		base := run(symx.MergeNone, false, symx.StrategyCoverage)
		ssm := run(symx.MergeSSM, true, symx.StrategyTopo)
		dsm := run(symx.MergeDSM, true, symx.StrategyCoverage)
		if base.Completed && ssm.Completed && dsm.Completed {
			// The paper's Figure 8 includes only tools whose
			// exploration remained incomplete within the budget.
			continue
		}
		t.Rows = append(t.Rows, []string{
			tool.Name,
			fmt.Sprintf("%.1f%%", 100*base.Coverage),
			fmt.Sprintf("%.1f%%", 100*ssm.Coverage),
			fmt.Sprintf("%.1f%%", 100*dsm.Coverage),
			fmt.Sprintf("%+.1f", 100*(ssm.Coverage-base.Coverage)),
			fmt.Sprintf("%+.1f", 100*(dsm.Coverage-base.Coverage))})
	}
	return t
}

// Figure9 compares exhaustive completion times of SSM and DSM over a tool ×
// size grid; the paper (Figure 9) finds them comparable with DSM ~15%
// slower on average.
func Figure9(opts Options) *Table {
	t := &Table{
		Title: "Figure 9: exhaustive completion time, DSM vs SSM",
		Comment: fmt.Sprintf("timeout %v; both use QCE; rows where either timed out are dropped",
			opts.Timeout),
		Header: []string{"tool", "sym_bytes", "t_dsm_s", "t_ssm_s", "dsm/ssm"},
	}
	var ratios []float64
	for _, tool := range coreutils.All() {
		for step := 0; step <= 2; step += 2 {
			var bytesUsed int
			ssm, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, step)
				cfg.Merge = symx.MergeSSM
				cfg.UseQCE = true
				cfg.MaxTime = opts.Timeout
				bytesUsed = symBytes(*cfg)
			}, opts)
			if err != nil {
				panic(err)
			}
			dsm, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, step)
				cfg.Merge = symx.MergeDSM
				cfg.UseQCE = true
				cfg.Strategy = symx.StrategyRandom
				cfg.MaxTime = opts.Timeout
			}, opts)
			if err != nil {
				panic(err)
			}
			if !ssm.Completed || !dsm.Completed {
				continue
			}
			r := dsm.Elapsed / math.Max(ssm.Elapsed, 1e-6)
			ratios = append(ratios, r)
			t.Rows = append(t.Rows, []string{
				tool.Name, fmt.Sprint(bytesUsed),
				fmt.Sprintf("%.3f", dsm.Elapsed),
				fmt.Sprintf("%.3f", ssm.Elapsed),
				fmt.Sprintf("%.2f", r)})
		}
	}
	if len(ratios) > 0 {
		var sum float64
		for _, r := range ratios {
			sum += r
		}
		t.Comment += fmt.Sprintf("\nmean dsm/ssm ratio: %.2f over %d grid points",
			sum/float64(len(ratios)), len(ratios))
	}
	return t
}

// Spectrum sweeps the paper's §2.2 design space end to end on call-heavy
// tools: no merging (search-based symbolic execution), function summaries
// (MergeFunc, the compositional point), QCE-gated summaries, SSM+QCE, and
// DSM+QCE. The paper argues summaries sit between the extremes: fewer states
// than plain exploration but extra solver work where summarized values feed
// later branches; QCE-gated whole-program merging should win overall.
func Spectrum(opts Options) *Table {
	regimes := []struct {
		label string
		mut   func(*symx.Config)
	}{
		{"none", func(cfg *symx.Config) { cfg.Merge = symx.MergeNone }},
		{"func", func(cfg *symx.Config) { cfg.Merge = symx.MergeFunc }},
		{"func+qce", func(cfg *symx.Config) {
			cfg.Merge = symx.MergeFunc
			cfg.UseQCE = true
		}},
		{"ssm+qce", func(cfg *symx.Config) {
			cfg.Merge = symx.MergeSSM
			cfg.UseQCE = true
		}},
		{"dsm+qce", func(cfg *symx.Config) {
			cfg.Merge = symx.MergeDSM
			cfg.UseQCE = true
		}},
	}
	t := &Table{
		Title: "Design-space spectrum (paper §2.2): none / summaries / SSM / DSM",
		Comment: fmt.Sprintf("timeout %v; exhaustive exploration on call-heavy tools; sat_calls counts the session solves",
			opts.Timeout),
		Header: []string{"tool", "regime", "t_s", "completed", "states", "merges", "queries", "sat_calls", "blast_reuse"},
	}
	// Tools whose models route work through helper functions, so function
	// summaries have join points to act on.
	for _, name := range []string{"link", "expr", "base64"} {
		tool, err := coreutils.Get(name)
		if err != nil {
			panic(err)
		}
		for _, r := range regimes {
			out, err := runTool(tool, func(cfg *symx.Config) {
				grow(tool, cfg, 1)
				r.mut(cfg)
				cfg.MaxTime = opts.Timeout
			}, opts)
			if err != nil {
				panic(err)
			}
			t.Rows = append(t.Rows, []string{
				name, r.label,
				fmt.Sprintf("%.3f", out.Elapsed),
				out.Status(),
				fmt.Sprint(out.States),
				fmt.Sprint(out.Merges),
				fmt.Sprint(out.Queries),
				fmt.Sprint(out.SATCalls),
				fmt.Sprint(out.SessReuse)})
		}
	}
	return t
}

// FFStat reproduces the §5.5 in-text statistic: the fraction of states
// selected for fast-forwarding that were successfully merged (the paper
// measures 69% on average).
func FFStat(opts Options) *Table {
	t := &Table{
		Title:  "Fast-forwarding success rate (paper §5.5: 69% on average)",
		Header: []string{"tool", "ff_selected", "merges", "success_rate"},
	}
	var rates []float64
	for _, tool := range coreutils.All() {
		out, err := runTool(tool, func(cfg *symx.Config) {
			grow(tool, cfg, 2)
			cfg.Merge = symx.MergeDSM
			cfg.UseQCE = true
			cfg.Strategy = symx.StrategyCoverage
			cfg.MaxTime = opts.Budget
		}, opts)
		if err != nil {
			panic(err)
		}
		if out.FFRate > 0 {
			rates = append(rates, out.FFRate)
		}
		t.Rows = append(t.Rows, []string{
			tool.Name, fmt.Sprint(out.FFSelected), fmt.Sprint(out.FFMerged),
			fmt.Sprintf("%.0f%%", 100*out.FFRate)})
	}
	if len(rates) > 0 {
		var sum float64
		for _, r := range rates {
			sum += r
		}
		t.Comment = fmt.Sprintf("mean success rate: %.0f%%", 100*sum/float64(len(rates)))
	}
	return t
}
