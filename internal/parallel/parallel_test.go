package parallel_test

// Black-box tests for the parallel exploration subsystem, driven through
// the public symx API (this external test package may import symx even
// though symx imports parallel).
//
// The differential suite is the subsystem's core correctness claim:
// sharding the frontier across workers must not change *what* is explored,
// only *who* explores it. On exhaustive runs, paths-multiplicity (the
// number of execution paths the completed states stand for), coverage, and
// the set of distinct errors are sharding-invariant. The count of
// separately completed states is NOT invariant — merging is worker-local,
// so two states sharded to different workers complete separately where a
// single-threaded run would merge them — which is exactly why the suite
// compares multiplicity, not state counts.

import (
	"context"
	"fmt"
	"math/big"
	"testing"
	"time"

	"symmerge/internal/coreutils"
	"symmerge/symx"
)

// mode is one merging regime of the differential sweep.
type mode struct {
	name  string
	merge symx.MergeMode
	qce   bool
}

var modes = []mode{
	{"none", symx.MergeNone, false},
	{"ssm", symx.MergeSSM, false},
	{"ssm+qce", symx.MergeSSM, true},
	{"dsm", symx.MergeDSM, false},
	{"dsm+qce", symx.MergeDSM, true},
}

// outcome reduces a result to its sharding-invariant components.
type outcome struct {
	paths    *big.Int
	covered  int
	errorSet map[string]bool
}

func reduce(t *testing.T, res *symx.Result) outcome {
	t.Helper()
	if !res.Completed {
		t.Fatal("exploration did not complete; the differential invariants need exhaustive runs")
	}
	errs := map[string]bool{}
	for _, e := range res.Errors {
		errs[fmt.Sprintf("%v|%s", e.Loc, e.Msg)] = true
	}
	return outcome{
		paths:    new(big.Int).Set(res.Stats.PathsMult),
		covered:  res.Stats.CoveredInstrs,
		errorSet: errs,
	}
}

func sameOutcome(a, b outcome) string {
	if a.paths.Cmp(b.paths) != 0 {
		return fmt.Sprintf("paths-multiplicity %s vs %s", a.paths, b.paths)
	}
	if a.covered != b.covered {
		return fmt.Sprintf("coverage %d vs %d instructions", a.covered, b.covered)
	}
	if len(a.errorSet) != len(b.errorSet) {
		return fmt.Sprintf("error sets differ in size: %d vs %d", len(a.errorSet), len(b.errorSet))
	}
	for k := range a.errorSet {
		if !b.errorSet[k] {
			return fmt.Sprintf("error %q missing from the other run", k)
		}
	}
	return ""
}

// TestParallelDifferential asserts Workers:1 and Workers:8 agree on
// paths-multiplicity, coverage, and errors found for a sample of coreutils
// models under none/ssm/dsm × QCE on/off. tsort and cksum run without
// merging: at 8 workers many of their states migrate, and a migrated
// state's first query blasts its whole path condition into the receiving
// worker's session.
func TestParallelDifferential(t *testing.T) {
	t.Parallel()
	sweeps := []struct {
		tools []string
		modes []mode
	}{
		{[]string{"echo", "basename", "cat", "expr"}, modes},
		{[]string{"tsort", "cksum"}, modes[:1]},
	}
	for _, sw := range sweeps {
		for _, name := range sw.tools {
			tool, err := coreutils.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := tool.Compile()
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range sw.modes {
				t.Run(name+"/"+m.name, func(t *testing.T) {
					t.Parallel()
					base := tool.BaseConfig()
					base.Merge, base.UseQCE = m.merge, m.qce
					base.Seed = 1
					base.CheckBounds = true // give error paths a chance to exist

					base.Workers = 1
					seq := reduce(t, symx.Run(prog, base))
					base.Workers = 8
					par := reduce(t, symx.Run(prog, base))
					if diff := sameOutcome(seq, par); diff != "" {
						t.Fatalf("workers=1 vs workers=8 diverged: %s", diff)
					}
				})
			}
		}
	}
}

// TestParallelRepeatable runs the same sharded exploration twice: the
// invariant components must also be stable run-to-run (scheduling noise may
// reorder workers, never change the explored set).
func TestParallelRepeatable(t *testing.T) {
	t.Parallel()
	tool, err := coreutils.Get("echo")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tool.BaseConfig()
	cfg.Merge, cfg.UseQCE = symx.MergeDSM, true
	cfg.Seed = 1
	cfg.Workers = 4
	a := reduce(t, symx.Run(prog, cfg))
	b := reduce(t, symx.Run(prog, cfg))
	if diff := sameOutcome(a, b); diff != "" {
		t.Fatalf("two identical sharded runs diverged: %s", diff)
	}
}

// TestParallelMaxStepsShares: MaxSteps is divided across workers as a
// total-work budget. With comfortable headroom the pool must still finish
// the exploration — a worker exhausting its own share retires without
// cancelling its peers, so an imbalanced frontier cannot strand the budget.
func TestParallelMaxStepsShares(t *testing.T) {
	t.Parallel()
	tool, err := coreutils.Get("echo")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tool.BaseConfig()
	cfg.Seed = 1
	seq := symx.Run(prog, cfg)
	if !seq.Completed {
		t.Fatal("sequential baseline did not complete")
	}

	cfg.MaxSteps = 8 * seq.Stats.Steps
	cfg.Workers = 4
	par := symx.Run(prog, cfg)
	if !par.Completed {
		t.Fatalf("parallel run with 8x step headroom stopped early (%d of %d steps used)",
			par.Stats.Steps, cfg.MaxSteps)
	}
	if par.Stats.PathsMult.Cmp(seq.Stats.PathsMult) != 0 {
		t.Fatalf("paths-multiplicity %s vs sequential %s", par.Stats.PathsMult, seq.Stats.PathsMult)
	}
}

// TestContextCancelSequential: a cancelled context stops a single-threaded
// exploration promptly with Completed=false.
func TestContextCancelSequential(t *testing.T) {
	t.Parallel()
	testContextCancel(t, 1)
}

// TestContextCancelParallel: cancellation reaches every worker of a pool.
func TestContextCancelParallel(t *testing.T) {
	t.Parallel()
	testContextCancel(t, 4)
}

func testContextCancel(t *testing.T, workers int) {
	tool, err := coreutils.Get("echo")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must bail out almost immediately

	cfg := tool.BaseConfig()
	cfg.ArgLen = 8 // far too large to explore exhaustively here
	cfg.Workers = workers
	cfg.Context = ctx
	start := time.Now()
	res := symx.Run(prog, cfg)
	if res.Completed {
		t.Fatal("cancelled exploration reported Completed")
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("cancellation took %v; the context poll is not reaching the step loop", wall)
	}
}

// TestPortfolio races three regimes on one tool: the winner index must be
// valid, the result complete, and the losers' cancellation must keep the
// wall clock near the fastest arm rather than the sum of all arms.
func TestPortfolio(t *testing.T) {
	t.Parallel()
	tool, err := coreutils.Get("echo")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	small := tool.BaseConfig()
	small.Seed = 1
	huge := small
	huge.ArgLen = 8 // this arm would run for a very long time uncancelled

	res := symx.Run(prog, symx.Config{Portfolio: []symx.Config{huge, small, small}})
	if !res.Completed {
		t.Fatal("portfolio produced no completed result")
	}
	if res.PortfolioWinner != 1 && res.PortfolioWinner != 2 {
		t.Fatalf("winner = %d, want one of the small arms", res.PortfolioWinner)
	}
	if res.Stats.PathsMult.Sign() <= 0 {
		t.Fatal("winner carries no exploration result")
	}
}

// TestPortfolioWinnerIsolated: a non-portfolio run reports -1.
func TestPortfolioWinnerIsolated(t *testing.T) {
	t.Parallel()
	tool, err := coreutils.Get("true")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res := symx.Run(prog, tool.BaseConfig())
	if res.PortfolioWinner != -1 {
		t.Fatalf("PortfolioWinner = %d for a plain run, want -1", res.PortfolioWinner)
	}
}
