package coreutils

import (
	"fmt"
	"testing"
	"time"

	"symmerge/symx"
)

func TestAllCompile(t *testing.T) {
	names := Names()
	if len(names) < 20 {
		t.Fatalf("only %d tools registered, want at least 20", len(names))
	}
	for _, name := range names {
		tool, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tool.Compile(); err != nil {
			t.Errorf("%s does not compile: %v", name, err)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("no-such-tool"); err == nil {
		t.Fatal("expected error for unknown tool")
	}
}

// TestAllExploreExhaustively runs every tool at its default input size
// without merging and checks the exploration drains (bounded loops, no
// hangs) and visits more than one path.
func TestAllExploreExhaustively(t *testing.T) {
	for _, tool := range All() {
		tool := tool
		t.Run(tool.Name, func(t *testing.T) {
			p, err := tool.Compile()
			if err != nil {
				t.Fatal(err)
			}
			cfg := tool.BaseConfig()
			cfg.Merge = symx.MergeNone
			cfg.MaxTime = 20 * time.Second
			res := symx.Run(p, cfg)
			if !res.Completed {
				t.Fatalf("%s did not finish exhaustive exploration", tool.Name)
			}
			if res.Stats.PathsCompleted < 2 {
				t.Fatalf("%s explored %d paths; model too trivial",
					tool.Name, res.Stats.PathsCompleted)
			}
			if res.Stats.ErrorsFound != 0 {
				t.Fatalf("%s reported %d path errors: %v",
					tool.Name, res.Stats.ErrorsFound, res.Errors)
			}
		})
	}
}

// TestPreprocessAblationSoundness sweeps the whole suite under SSM+QCE
// with the solver's preprocessing pipeline in and out of the query path.
// Incremental sessions answer queries without preprocessing; with sessions
// disabled every query is one-shot and runs the full pipeline (simplify,
// equality substitution, independence slicing). Since every pass is
// semantics-preserving, paths-multiplicity, coverage, and the error set
// must match bit-for-bit. Input sizes are capped as in
// TestMergingSoundness so the double sweep stays inside the package
// timeout; over-budget tools skip.
func TestPreprocessAblationSoundness(t *testing.T) {
	for _, tool := range All() {
		tool := tool
		t.Run(tool.Name, func(t *testing.T) {
			p, err := tool.Compile()
			if err != nil {
				t.Fatal(err)
			}
			cfg := tool.BaseConfig()
			if cfg.NArgs > 2 {
				cfg.NArgs = 2
			}
			if cfg.ArgLen > 2 {
				cfg.ArgLen = 2
			}
			if cfg.StdinLen > 3 {
				cfg.StdinLen = 3
			}
			cfg.Merge = symx.MergeSSM
			cfg.UseQCE = true
			cfg.CheckBounds = true
			cfg.MaxTime = 5 * time.Second

			run := func(oneShot bool) *symx.Result {
				c := cfg
				c.DisableSessions = oneShot
				return symx.Run(p, c)
			}
			on, off := run(true), run(false)
			if !on.Completed || !off.Completed {
				t.Skip("exploration over budget")
			}
			if on.Stats.PathsMult.Cmp(off.Stats.PathsMult) != 0 {
				t.Fatalf("paths-multiplicity diverged: on=%s off=%s",
					on.Stats.PathsMult, off.Stats.PathsMult)
			}
			if on.Stats.CoveredInstrs != off.Stats.CoveredInstrs {
				t.Fatalf("coverage diverged: on=%d off=%d",
					on.Stats.CoveredInstrs, off.Stats.CoveredInstrs)
			}
			errs := func(r *symx.Result) map[string]bool {
				out := map[string]bool{}
				for _, e := range r.Errors {
					out[fmt.Sprintf("%v|%s", e.Loc, e.Msg)] = true
				}
				return out
			}
			eo, ef := errs(on), errs(off)
			if len(eo) != len(ef) {
				t.Fatalf("error sets diverged: on=%d off=%d", len(eo), len(ef))
			}
			for k := range eo {
				if !ef[k] {
					t.Fatalf("error %q only found with preprocessing on", k)
				}
			}
		})
	}
}

// TestMergingSoundness cross-checks multiplicity against exact path counts
// for every tool: exploring with SSM+QCE must account for at least as many
// paths as plain exploration finds, and the shadow census must match the
// plain count exactly.
//
// The shadow census keeps every single-path state alive alongside the merged
// ones (it re-checks feasibility per shadow path at every branch), so a
// census run costs at least as much as plain exploration. Default input
// sizes are tuned for plain runs; here they are capped so the whole sweep
// stays well inside go test's package timeout. Tools that still exceed the
// per-run budget are skipped, not failed — the cross-check is about
// agreement, not speed.
func TestMergingSoundness(t *testing.T) {
	for _, tool := range All() {
		tool := tool
		t.Run(tool.Name, func(t *testing.T) {
			p, err := tool.Compile()
			if err != nil {
				t.Fatal(err)
			}
			soundCfg := tool.BaseConfig()
			if soundCfg.NArgs > 2 {
				soundCfg.NArgs = 2
			}
			if soundCfg.ArgLen > 2 {
				soundCfg.ArgLen = 2
			}
			if soundCfg.StdinLen > 3 {
				soundCfg.StdinLen = 3
			}

			base := soundCfg
			base.Merge = symx.MergeNone
			base.MaxTime = 3 * time.Second
			plain := symx.Run(p, base)
			if !plain.Completed {
				t.Skip("plain exploration over budget")
			}

			mcfg := soundCfg
			mcfg.Merge = symx.MergeSSM
			mcfg.UseQCE = true
			mcfg.TrackExactPaths = true
			mcfg.MaxTime = 8 * time.Second
			merged := symx.Run(p, mcfg)
			if !merged.Completed {
				t.Skip("merged exploration over budget")
			}
			if merged.Stats.ExactPaths != plain.Stats.PathsCompleted {
				t.Fatalf("census %d != plain paths %d",
					merged.Stats.ExactPaths, plain.Stats.PathsCompleted)
			}
			if merged.Stats.PathsMult.Uint64() < plain.Stats.PathsCompleted {
				t.Fatalf("multiplicity %s under-counts %d paths",
					merged.Stats.PathsMult, plain.Stats.PathsCompleted)
			}
		})
	}
}
