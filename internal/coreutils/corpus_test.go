package coreutils

// Corpus regression suites over the COREUTILS models:
//
//   - TestGoldenCorpusReplay replays the committed golden mini-corpus
//     (testdata/corpus, maintained by cmd/corpusgen) for every tool: any
//     expectation or coverage-parity mismatch means the engine, the
//     interpreter, or a model drifted since the corpus was generated.
//   - TestCorpusConformanceAcrossRegimes regenerates a corpus per tool
//     under none/ssm/dsm × qce on/off and replays each through the
//     interpreter: zero mismatches, exact coverage parity, and the same
//     deduplicated input set in every regime — the end-to-end statement
//     that merged exploration covers exactly the concrete behaviors of
//     unmerged exploration.
//   - TestCorpusDeterminism pins byte-identical corpora (directory digest
//     equality) across repeated runs.

import (
	"path/filepath"
	"testing"

	"symmerge/internal/corpus"
	"symmerge/symx"
)

const goldenDir = "testdata/corpus"

func TestGoldenCorpusReplay(t *testing.T) {
	for _, tool := range All() {
		tool := tool
		t.Run(tool.Name, func(t *testing.T) {
			p, err := tool.Compile()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := corpus.Replay(filepath.Join(goldenDir, tool.Name), p.Internal())
			if err != nil {
				t.Fatalf("replay: %v (regenerate with `go run ./cmd/corpusgen`)", err)
			}
			for _, m := range rep.Mismatches {
				t.Errorf("%s", m)
			}
			if !rep.ParityOK() {
				t.Errorf("coverage parity: %d symbolic locations unreached by replay, %d extra (sym %d, replay %d)",
					len(rep.MissingLocs), len(rep.ExtraLocs), rep.SymCovered, rep.ReplayCovered)
			}
			if rep.Tests == 0 {
				t.Error("golden corpus is empty")
			}
		})
	}
}

// corpusRegimes are the merging configurations the conformance suite
// crosses: none / ssm / dsm, each with QCE gating on and off.
var corpusRegimes = []struct {
	name  string
	merge symx.MergeMode
	qce   bool
}{
	{"none", symx.MergeNone, false},
	{"none+qce", symx.MergeNone, true},
	{"ssm", symx.MergeSSM, false},
	{"ssm+qce", symx.MergeSSM, true},
	{"dsm", symx.MergeDSM, false},
	{"dsm+qce", symx.MergeDSM, true},
}

func TestCorpusConformanceAcrossRegimes(t *testing.T) {
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
			var baseline map[string]bool
			for _, reg := range corpusRegimes {
				dir := filepath.Join(t.TempDir(), reg.name)
				cfg := tool.MiniConfig()
				cfg.Merge = reg.merge
				cfg.UseQCE = reg.qce
				cfg.CorpusDir = dir
				cfg.CorpusLabel = tool.Name
				res := symx.Run(p, cfg)
				if res.CorpusErr != nil {
					t.Fatalf("%s: corpus emission: %v", reg.name, res.CorpusErr)
				}
				if !res.Completed {
					t.Fatalf("%s: exploration did not complete at mini sizes", reg.name)
				}
				rep, err := corpus.Replay(dir, p.Internal())
				if err != nil {
					t.Fatalf("%s: replay: %v", reg.name, err)
				}
				for _, m := range rep.Mismatches {
					t.Errorf("%s: %s", reg.name, m)
				}
				if !rep.ParityOK() {
					t.Errorf("%s: coverage parity failed (%d missing, %d extra of %d symbolic locations)",
						reg.name, len(rep.MissingLocs), len(rep.ExtraLocs), rep.SymCovered)
				}
				man, _, err := corpus.Load(dir)
				if err != nil {
					t.Fatalf("%s: %v", reg.name, err)
				}
				ids := make(map[string]bool, len(man.Tests))
				for _, e := range man.Tests {
					ids[e.ID] = true
				}
				if baseline == nil {
					baseline = ids
					continue
				}
				if len(ids) != len(baseline) {
					t.Fatalf("%s: %d unique inputs, baseline has %d", reg.name, len(ids), len(baseline))
				}
				for id := range baseline {
					if !ids[id] {
						t.Fatalf("%s: baseline input %s missing", reg.name, id)
					}
				}
			}
		})
	}
}

func TestCorpusDeterminism(t *testing.T) {
	// A representative spread: argv-driven with options, stdin-driven,
	// error paths (seq's numeric validation asserts), heavy branching, and
	// heap-driven tools (sort/fmt allocate and address memory through
	// pointers, whose addresses must also be scheduling-independent).
	for _, name := range []string{"echo", "wc", "seq", "fold", "sort", "tail", "fmt"} {
		name := name
		t.Run(name, func(t *testing.T) {
			tool, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := tool.Compile()
			if err != nil {
				t.Fatal(err)
			}
			emit := func(merge symx.MergeMode) string {
				dir := t.TempDir()
				cfg := tool.MiniConfig()
				cfg.Merge = merge
				cfg.UseQCE = merge != symx.MergeNone
				cfg.Seed = 1
				cfg.CorpusDir = dir
				cfg.CorpusLabel = tool.Name
				res := symx.Run(p, cfg)
				if res.CorpusErr != nil || !res.Completed {
					t.Fatalf("merge=%v: err=%v completed=%v", merge, res.CorpusErr, res.Completed)
				}
				d, err := corpus.DirDigest(dir)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			for _, merge := range []symx.MergeMode{symx.MergeNone, symx.MergeSSM} {
				if d1, d2 := emit(merge), emit(merge); d1 != d2 {
					t.Fatalf("merge=%v: two runs produced different corpora (digest %s… vs %s…)",
						merge, d1[:12], d2[:12])
				}
			}
		})
	}
}
