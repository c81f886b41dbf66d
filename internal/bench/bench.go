// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (§5) on the COREUTILS models: one runner per
// figure, each returning a structured table that cmd/paperbench prints.
//
// Absolute numbers differ from the paper (our substrate is a from-scratch
// engine on reduced models, not KLEE on a 2012 testbed); the runners exist
// to check the paper's *shapes*: who wins, by how much, and how the gap
// scales with symbolic input size.
package bench

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"time"

	"symmerge/internal/coreutils"
	"symmerge/symx"
)

// Options scale the whole evaluation.
type Options struct {
	// Budget is the per-run time budget replacing the paper's 1h/2h.
	Budget time.Duration
	// Timeout is the exhaustive-exploration cutoff (Figures 5, 6, 9).
	Timeout time.Duration
	// Seed drives randomized strategies.
	Seed int64
	// Workers shards every exploration across this many goroutines
	// (0/1 = sequential).
	Workers int
}

// DefaultOptions returns budgets that complete the full evaluation in a few
// minutes.
func DefaultOptions() Options {
	return Options{Budget: 2 * time.Second, Timeout: 10 * time.Second, Seed: 1}
}

// RunOutcome is one engine run's reduced result.
type RunOutcome struct {
	Completed bool
	// Interrupted is why the run stopped when Completed is false ("budget",
	// "context", ...): a figure built from interrupted runs measures the
	// interruption, not the regime, so the tables surface it.
	Interrupted string
	Elapsed     float64 // seconds
	Paths       *big.Int
	States      uint64 // separately completed states
	Coverage    float64
	Merges      uint64
	FFSelected  uint64
	FFMerged    uint64
	FFRate      float64 // merged / fast-forward-selected
	Exact       uint64  // shadow census (when enabled)
	Queries     uint64

	// Incremental-session solver activity.
	SessQueries uint64 // queries answered by a persistent session
	SessReuse   uint64 // conjunct blastings reused across queries
}

// Status renders the completion cell for tables: "true", or "false(cause)"
// naming why the run was interrupted.
func (o RunOutcome) Status() string {
	if o.Completed {
		return "true"
	}
	return "false(" + o.Interrupted + ")"
}

// runTool executes one configuration on a tool.
func runTool(tool *coreutils.Tool, mut func(*symx.Config), opts Options) (RunOutcome, error) {
	p, err := tool.Compile()
	if err != nil {
		return RunOutcome{}, err
	}
	cfg := tool.BaseConfig()
	cfg.Seed = opts.Seed
	cfg.Workers = opts.Workers
	mut(&cfg)
	res := symx.Run(p, cfg)
	out := RunOutcome{
		Completed:  res.Completed,
		Elapsed:    res.Stats.ElapsedSeconds,
		Paths:      new(big.Int).Set(res.Stats.PathsMult),
		States:     res.Stats.PathsCompleted,
		Coverage:   res.Stats.Coverage(),
		Merges:     res.Stats.Merges,
		FFSelected: res.Stats.FFSelected,
		FFMerged:   res.Stats.FFMerged,
		Exact:      res.Stats.ExactPaths,
		Queries:    res.Stats.Solver.Queries,

		SessQueries: res.Stats.Solver.SessionQueries,
		SessReuse:   res.Stats.Solver.SessionBlastReuse,
	}
	if !res.Completed {
		out.Interrupted = res.Interrupted.String()
	}
	if res.Stats.FFSelected > 0 {
		out.FFRate = float64(res.Stats.FFMerged) / float64(res.Stats.FFSelected)
	}
	return out, nil
}

// grow scales a tool's symbolic input by a size step: argument-driven tools
// grow ArgLen, stdin-driven tools grow StdinLen.
func grow(tool *coreutils.Tool, cfg *symx.Config, step int) {
	if tool.UsesStdin {
		cfg.StdinLen = tool.DefaultStdin + step
	} else {
		cfg.ArgLen = tool.DefaultLen + step
	}
}

// symBytes reports the total number of symbolic input bytes of a config.
func symBytes(cfg symx.Config) int {
	return cfg.NArgs*cfg.ArgLen + cfg.StdinLen
}

// Table is a printable result table.
type Table struct {
	Title   string
	Comment string
	Header  []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	if t.Comment != "" {
		for _, line := range strings.Split(t.Comment, "\n") {
			fmt.Fprintf(&b, "#   %s\n", line)
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// fmtBig renders a big integer compactly (scientific above 10^6).
func fmtBig(v *big.Int) string {
	if v.BitLen() <= 20 {
		return v.String()
	}
	f := new(big.Float).SetInt(v)
	return f.Text('e', 2)
}

// ratioBig computes a/b as float64 (safe for huge a).
func ratioBig(a, b *big.Int) float64 {
	fa, _ := new(big.Float).SetInt(a).Float64()
	fb, _ := new(big.Float).SetInt(b).Float64()
	if fb == 0 {
		return math.Inf(1)
	}
	return fa / fb
}

// linearFit returns intercept, slope, and R² of a least-squares line.
func linearFit(xs, ys []float64) (c1, c2, r2 float64) {
	n := float64(len(xs))
	if n < 2 {
		return 0, 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, 0, 0
	}
	c2 = (n*sxy - sx*sy) / denom
	c1 = (sy - c2*sx) / n
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range xs {
		d := ys[i] - (c1 + c2*xs[i])
		ssRes += d * d
	}
	if ssTot == 0 {
		return c1, c2, 1
	}
	return c1, c2, 1 - ssRes/ssTot
}
