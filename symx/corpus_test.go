package symx

// Corpus-level properties of canonical test generation: search-strategy
// parity of the deduplicated input set, and the write → read → replay
// round-trip fuzz target over random MiniC programs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"symmerge/internal/corpus"
)

// inputSet reduces a test list to its deduplicated input identity set.
func inputSet(tests []TestCase) map[string]bool {
	out := make(map[string]bool, len(tests))
	for _, tc := range tests {
		out[corpus.InputID(tc.Args, tc.Stdin)] = true
	}
	return out
}

// TestSearchStrategyParity: on loop-free programs, every driving strategy
// explores the same finite path set, so with canonical test generation the
// deduplicated test-input set must be identical across DFS, BFS, random,
// coverage-guided, and topological search. An arbitrary-model test
// generator fails this immediately — models drift with query order — which
// is exactly why the corpus pipeline pins canonical minimal models.
func TestSearchStrategyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	gen := &progGen{rng: rng, noLoops: true}
	strategies := []Strategy{StrategyDFS, StrategyBFS, StrategyRandom, StrategyCoverage, StrategyTopo}
	checked := 0
	for iter := 0; iter < 25; iter++ {
		src := gen.generate(5 + rng.Intn(5))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, src)
		}
		results := make([]*Result, len(strategies))
		done := true
		for i, st := range strategies {
			results[i] = Run(p, Config{
				NArgs: 1, ArgLen: 2,
				Strategy:       st,
				Seed:           int64(iter),
				CollectTests:   true,
				CanonicalTests: true,
				MaxTests:       1 << 20,
				MaxTime:        10 * time.Second,
			})
			if !results[i].Completed {
				done = false
				break
			}
		}
		if !done {
			continue
		}
		checked++
		ref := inputSet(results[0].Tests)
		for i := 1; i < len(strategies); i++ {
			got := inputSet(results[i].Tests)
			if len(got) != len(ref) {
				t.Fatalf("iter %d: %s produced %d unique inputs, %s produced %d\n%s",
					iter, strategies[0], len(ref), strategies[i], len(got), src)
			}
			for id := range ref {
				if !got[id] {
					t.Fatalf("iter %d: input %s found by %s but not by %s\n%s",
						iter, id, strategies[0], strategies[i], src)
				}
			}
		}
	}
	if checked < 15 {
		t.Fatalf("only %d programs fully checked", checked)
	}
}

// FuzzCorpusRoundTrip: emit a corpus for a random program under merging,
// read it back (decode validation), re-marshal each test (byte identity
// with the on-disk form), and replay it through the IR interpreter — any
// decode divergence, expectation mismatch, or coverage-parity failure is a
// bug in the pipeline.
func FuzzCorpusRoundTrip(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 20260730} {
		f.Add(seed)
	}
	// Heap-program seed corpus: these seeds make progGen allocate a heap
	// buffer and address it through data-dependent pointer offsets, so the
	// fuzz round-trip keeps covering the symbolic heap (alloc addressing,
	// guarded pointer stores, interpreter replay) from the first exec on.
	for _, seed := range []int64{2, 5, 101, 4096} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		gen := &progGen{rng: rng}
		src := gen.generate(4 + rng.Intn(6))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("generated program does not compile: %v\n%s", err, src)
		}
		dir := t.TempDir()
		res := Run(p, Config{
			NArgs: 1, ArgLen: 2,
			Merge: MergeSSM, UseQCE: true,
			CorpusDir:   dir,
			CorpusLabel: "fuzz",
			MaxTests:    1 << 20,
			MaxTime:     10 * time.Second,
		})
		if res.CorpusErr != nil {
			t.Fatalf("corpus emission: %v\n%s", res.CorpusErr, src)
		}
		if !res.Completed {
			t.Skip("program too big for the fuzz budget")
		}

		man, tests, err := corpus.Load(dir)
		if err != nil {
			t.Fatalf("load: %v\n%s", err, src)
		}
		if len(tests) != res.Stats.TestsEmitted-res.Stats.TestsDeduped {
			t.Fatalf("loaded %d tests, writer reported %d unique",
				len(tests), res.Stats.TestsEmitted-res.Stats.TestsDeduped)
		}
		// Decode → encode must reproduce the stored bytes exactly.
		for i, tc := range tests {
			disk, err := os.ReadFile(filepath.Join(dir, man.Tests[i].File))
			if err != nil {
				t.Fatal(err)
			}
			enc, err := json.MarshalIndent(tc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(append(enc, '\n')) != string(disk) {
				t.Fatalf("test %s: decode/encode round trip not byte-identical\n%s", tc.ID, src)
			}
		}

		rep, err := corpus.Replay(dir, p.Internal())
		if err != nil {
			t.Fatalf("replay: %v\n%s", err, src)
		}
		for _, m := range rep.Mismatches {
			t.Errorf("replay divergence: %s\n%s", m, src)
		}
		if !rep.ParityOK() {
			t.Errorf("coverage parity failed: %d missing, %d extra locations\n%s",
				len(rep.MissingLocs), len(rep.ExtraLocs), src)
		}
	})
}

// replayClean writes the program's corpus under cfg and requires every
// test to replay through the concrete interpreter with coverage parity.
func replayClean(t *testing.T, label string, p *Program, cfg Config) *Result {
	t.Helper()
	cfg.CorpusDir = t.TempDir()
	res := Run(p, cfg)
	if res.CorpusErr != nil || !res.Completed {
		t.Fatalf("%s: corpus %v, completed %v", label, res.CorpusErr, res.Completed)
	}
	rep, err := corpus.Replay(cfg.CorpusDir, p.Internal())
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("%s: replay divergence: %s", label, m)
	}
	if !rep.ParityOK() {
		t.Errorf("%s: coverage parity failed: %d missing, %d extra locations",
			label, len(rep.MissingLocs), len(rep.ExtraLocs))
	}
	return res
}

// TestAssumeNarrowsCensus: an assume narrows every constituent path of a
// merged state, so canonical tests honour it under every regime, and a
// constituent path that contradicts it leaves the census.
func TestAssumeNarrowsCensus(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		input     string // the one test input
	}{
		{"assume-first", `
void main() {
    byte c = argchar(1, 0);
    assume(c == 'x');
    if (c == 'x') { putchar('y'); } else { putchar('n'); }
}`, "x"},
		// The second iteration covers every location of the first, so
		// the path that dies at the assume leaves nothing uncovered.
		{"assume-after-merge", `
void main() {
    byte c = argchar(1, 0);
    int k = 0;
    for (int i = 0; i < 2; i++) {
        if (c == 'a' || i == 1) { k = k + 1; }
    }
    assume(c != 'a');
    putchar(tobyte('0' + k));
}`, ""},
	} {
		p, err := Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []MergeMode{MergeNone, MergeSSM, MergeDSM} {
			label := fmt.Sprintf("%s/%v", tc.name, m)
			res := replayClean(t, label, p, Config{NArgs: 1, ArgLen: 1, Merge: m})
			if len(res.Tests) != 1 || string(bytes.Join(res.Tests[0].Args, nil)) != tc.input {
				t.Errorf("%s: tests %v, want the one input %q", label, res.Tests, tc.input)
			}
			if m != MergeNone && res.Stats.ExactPaths != 1 {
				t.Errorf("%s: census counts %d exact paths, want 1", label, res.Stats.ExactPaths)
			}
			if m == MergeSSM && tc.name == "assume-after-merge" && res.Stats.Merges == 0 {
				t.Errorf("%s: no merge, so no census to narrow", label)
			}
		}
	}
}
