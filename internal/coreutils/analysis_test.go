package coreutils

// Static-analysis suites over the full tool registry:
//
//   - TestAnalyzeAllTools is the termination/latency guard: every model
//     must analyze well under the widening backstop. A hang here means an
//     infinite ascending chain escaped Widen (the interval lattice and the
//     pointer-origin offsets are the unbounded dimensions).
//   - TestAnalysisSoundness is the differential contract: for every tool,
//     across none/ssm+qce/dsm+qce and Workers 1 vs 8, the canonical corpus
//     emitted with the analyses on is byte-identical (directory digest) to
//     the analyses-off corpus, and the invariant census — exact paths,
//     coverage, error set — matches. Pruning, elision, and merge-key
//     slimming must be pure acceleration.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"symmerge/internal/analysis"
	"symmerge/internal/corpus"
	"symmerge/symx"
)

func TestAnalyzeAllTools(t *testing.T) {
	for _, tool := range All() {
		tool := tool
		t.Run(tool.Name, func(t *testing.T) {
			p, err := tool.Compile()
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan *analysis.Program, 1)
			go func() { done <- analysis.Analyze(p.Internal()) }()
			select {
			case ap := <-done:
				if len(ap.Funcs) == 0 {
					t.Fatal("no per-function facts")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("analysis did not converge in 10s")
			}
		})
	}
}

// analysisRegimes crosses the merging configurations of the differential
// suite (satellite d of the analysis PR).
var analysisRegimes = []struct {
	name  string
	merge symx.MergeMode
	qce   bool
}{
	{"none", symx.MergeNone, false},
	{"ssm+qce", symx.MergeSSM, true},
	{"dsm+qce", symx.MergeDSM, true},
}

func TestAnalysisSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tool := range All() {
		tool := tool
		t.Run(tool.Name, func(t *testing.T) {
			p, err := tool.Compile()
			if err != nil {
				t.Fatal(err)
			}
			for _, reg := range analysisRegimes {
				for _, workers := range []int{1, 8} {
					label := fmt.Sprintf("%s/w%d", reg.name, workers)
					tmp := t.TempDir()
					run := func(arm string, disable bool) (*symx.Result, string) {
						dir := filepath.Join(tmp, arm)
						cfg := tool.MiniConfig()
						cfg.Merge = reg.merge
						cfg.UseQCE = reg.qce
						cfg.Workers = workers
						cfg.TrackExactPaths = true
						cfg.DisableAnalysis = disable
						cfg.CorpusDir = dir
						cfg.CorpusLabel = tool.Name
						res := symx.Run(p, cfg)
						if res.CorpusErr != nil {
							t.Fatalf("%s/%s: corpus emission: %v", label, arm, res.CorpusErr)
						}
						if !res.Completed {
							t.Fatalf("%s/%s: exploration did not complete at mini sizes", label, arm)
						}
						return res, dir
					}
					roff, dirOff := run("off", true)
					ron, dirOn := run("on", false)

					dOff, err1 := corpus.DirDigest(dirOff)
					dOn, err2 := corpus.DirDigest(dirOn)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s: digest: off=%v on=%v", label, err1, err2)
					}
					if dOff != dOn {
						t.Errorf("%s: corpus digest off=%s on=%s", label, dOff, dOn)
					}
					if roff.Stats.ExactPaths != ron.Stats.ExactPaths {
						t.Errorf("%s: exact census off=%d on=%d", label, roff.Stats.ExactPaths, ron.Stats.ExactPaths)
					}
					if roff.Stats.CoveredInstrs != ron.Stats.CoveredInstrs {
						t.Errorf("%s: coverage off=%d on=%d", label, roff.Stats.CoveredInstrs, ron.Stats.CoveredInstrs)
					}
					if !sameErrorSet(roff, ron) {
						t.Errorf("%s: error sets diverge (off %d, on %d)", label, len(roff.Errors), len(ron.Errors))
					}
				}
			}
		})
	}
}

// sameErrorSet compares the distinct (location, message) error sets.
func sameErrorSet(a, b *symx.Result) bool {
	set := func(res *symx.Result) map[string]bool {
		out := map[string]bool{}
		for _, e := range res.Errors {
			out[fmt.Sprintf("%v|%s", e.Loc, e.Msg)] = true
		}
		return out
	}
	sa, sb := set(a), set(b)
	if len(sa) != len(sb) {
		return false
	}
	for k := range sa {
		if !sb[k] {
			return false
		}
	}
	return true
}
