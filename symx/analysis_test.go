package symx

// Differential and fuzz suites for liveness merge slimming
// (internal/analysis): with the static facts attached (the default) merges
// skip ite selectors for locals that are dead at the merge point, and that
// may not be observable. Every test here runs the same exploration with
// DisableAnalysis on and off and requires identical censuses, errors,
// coverage, and canonical behavior.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"symmerge/internal/core"
	"symmerge/internal/corpus"
)

// callHeavySrc is a call-heavy program: two helpers (one with an array
// parameter mutated in place) applied to every argv byte. Loop-free so
// exhaustive exploration is fast and strategy-independent.
const callHeavySrc = `
int classify(byte c) {
    if (c < 'a') { return 0; }
    if (c > 'z') { return 1; }
    if (c == 'q') { return 2; }
    return 3;
}

int tally(int counts[4], int k) {
    if (k < 0) { return -1; }
    if (k > 3) { return -1; }
    counts[k] = counts[k] + 1;
    return counts[k];
}

void main() {
    int counts[4];
    counts[0] = 0; counts[1] = 0; counts[2] = 0; counts[3] = 0;
    int last = 0;
    last = tally(counts, classify(argchar(1, 0)));
    last = tally(counts, classify(argchar(1, 1)));
    last = tally(counts, classify(argchar(2, 0)));
    putchar(tobyte('0' + (counts[0] + counts[3]) % 10));
    putchar(tobyte('0' + (last + counts[2]) % 10));
    if (counts[1] == 3) {
        putchar('!');
    }
}
`

// behavior reduces a result to its canonical input → (output, exit, error)
// map, the per-input observable the differential tests here compare.
func behavior(t *testing.T, res *Result) map[string]string {
	t.Helper()
	out := make(map[string]string, len(res.Tests))
	for _, tc := range res.Tests {
		id := corpus.InputID(tc.Args, tc.Stdin)
		out[id] = fmt.Sprintf("out=%q exit=%d err=%v msg=%q", tc.Output, tc.Exit, tc.IsErr, tc.Msg)
	}
	return out
}

// analysisLoopHeapSrc fills an array in a counted loop, reads it back
// through a masked index, and dereferences a heap object at constant
// offsets around a branch on the input.
const analysisLoopHeapSrc = `
void main() {
    int x = toint(argchar(1, 0));
    int buf[4];
    for (int i = 0; i < 4; i++) {
        buf[i] = x + i;
    }
    ptr h = alloc(2);
    h[0] = x;
    h[1] = h[0] + 1;
    if (x < 300) {
        putchar('y');
    } else {
        putchar('n');
    }
    int v = buf[x & 3] + h[1];
    putchar(tobyte(v & 255));
    halt(0);
}
`

// analysisHeapCallSrc calls a heap-allocating helper twice: the helper
// allocates, branches, and reads back only its own cells, so the two call
// sites see the same allocation site at different per-site counters.
const analysisHeapCallSrc = `
int fill(int a) {
    ptr h = alloc(4);
    h[0] = a;
    if (a > 9) {
        h[0] = 9;
    }
    h[1] = h[0] + 1;
    h[2] = h[1] + h[0];
    return h[2];
}

void main() {
    int x = toint(argchar(1, 0));
    int r = fill(x);
    int s = fill(x + 1);
    putchar(tobyte((r + s) & 255));
    halt(0);
}
`

// checkAnalysisParity runs cfg twice — analysis off, then on — and
// requires byte-equal observables: completion, the exact-path census,
// multiplicity, error counts, the coverage mask, and the canonical
// behavior of every generated input.
func checkAnalysisParity(t *testing.T, p *Program, cfg Config, label string) {
	t.Helper()
	cfg.CollectTests = true
	cfg.CanonicalTests = true
	if cfg.MaxTests == 0 {
		cfg.MaxTests = 1 << 20
	}
	if cfg.Merge != MergeNone {
		cfg.TrackExactPaths = true
	}
	off := cfg
	off.DisableAnalysis = true
	on := cfg
	on.DisableAnalysis = false

	roff := Run(p, off)
	ron := Run(p, on)
	if roff.ConfigErr != nil || ron.ConfigErr != nil {
		t.Fatalf("%s: config refused: off=%v on=%v", label, roff.ConfigErr, ron.ConfigErr)
	}
	if !roff.Completed || !ron.Completed {
		t.Fatalf("%s: incomplete exploration: off=%v on=%v", label, roff.Completed, ron.Completed)
	}
	if roff.Stats.PathsMult.Cmp(ron.Stats.PathsMult) != 0 {
		// Slimmed selectors cover only dead slots, so the feasible path
		// structure — and with it multiplicity — must be untouched.
		t.Fatalf("%s: multiplicity off=%s on=%s", label, roff.Stats.PathsMult, ron.Stats.PathsMult)
	}
	if cfg.Merge != MergeNone && roff.Stats.ExactPaths != ron.Stats.ExactPaths {
		t.Fatalf("%s: exact census off=%d on=%d", label, roff.Stats.ExactPaths, ron.Stats.ExactPaths)
	}
	if roff.Stats.ErrorsFound != ron.Stats.ErrorsFound {
		t.Fatalf("%s: errors off=%d on=%d", label, roff.Stats.ErrorsFound, ron.Stats.ErrorsFound)
	}
	if len(roff.CoverageMask) != len(ron.CoverageMask) {
		t.Fatalf("%s: coverage mask length off=%d on=%d", label, len(roff.CoverageMask), len(ron.CoverageMask))
	}
	for i := range roff.CoverageMask {
		if roff.CoverageMask[i] != ron.CoverageMask[i] {
			t.Fatalf("%s: coverage diverges at loc index %d: off=%v on=%v",
				label, i, roff.CoverageMask[i], ron.CoverageMask[i])
		}
	}
	boff, bon := behavior(t, roff), behavior(t, ron)
	if len(boff) != len(bon) {
		t.Fatalf("%s: %d canonical inputs with analyses off, %d on", label, len(boff), len(bon))
	}
	for id, want := range boff {
		if got, ok := bon[id]; !ok {
			t.Fatalf("%s: input %s missing with analyses on", label, id)
		} else if got != want {
			t.Fatalf("%s: input %s behavior off=%s on=%s", label, id, want, got)
		}
	}
}

// TestAnalysisParityMatrix crosses the parity check over the merging
// regimes and the call-heavy fixtures.
func TestAnalysisParityMatrix(t *testing.T) {
	fixtures := []struct {
		name string
		src  string
	}{
		{"loopheap", analysisLoopHeapSrc},
		{"calls", callHeavySrc},
		{"heapcall", analysisHeapCallSrc},
	}
	regimes := []struct {
		name  string
		merge MergeMode
		qce   bool
	}{
		{"none", MergeNone, false},
		{"ssm+qce", MergeSSM, true},
		{"dsm+qce", MergeDSM, true},
	}
	for _, fx := range fixtures {
		p, err := Compile(fx.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", fx.name, err)
		}
		for _, reg := range regimes {
			checkAnalysisParity(t, p, Config{
				NArgs: 1, ArgLen: 2,
				Merge:   reg.merge,
				UseQCE:  reg.qce,
				MaxTime: 30 * time.Second,
			}, fx.name+"/"+reg.name)
		}
	}
}

// TestFuzzAnalysisParity: the full off/on parity check on random
// programs, heap-flavored ones included.
func TestFuzzAnalysisParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(20260808))
	gen := &progGen{rng: rng}
	checked := 0
	for iter := 0; iter < 50; iter++ {
		src := gen.generate(6 + rng.Intn(6))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("iter %d: generated program does not compile: %v\n%s", iter, err, src)
		}
		base := Config{
			NArgs: 1, ArgLen: 2,
			Merge: MergeSSM, UseQCE: true,
			CheckBounds: true,
			MaxTime:     10 * time.Second,
			MaxTests:    4096,
		}
		probe := base
		probe.DisableAnalysis = true
		probe.CollectTests = true
		if !Run(p, probe).Completed {
			continue // too big for the fuzz budget; skip
		}
		checked++
		checkAnalysisParity(t, p, base, fmt.Sprintf("iter%d", iter))
	}
	if checked < 20 {
		t.Fatalf("only %d/50 generated programs fit the fuzz budget", checked)
	}
	t.Logf("checked %d programs", checked)
}

// TestStaticFactsOncePerProgram: a Program computes its static facts once,
// and its QCE tables once per parameter set, so every run — sequential,
// concurrent, with or without merge slimming — reuses the same tables.
func TestStaticFactsOncePerProgram(t *testing.T) {
	p, err := Compile(callHeavySrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NArgs: 1, ArgLen: 2, Merge: MergeSSM, UseQCE: true}
	c1, _, _ := coreConfig(p, cfg)
	c2, _, _ := coreConfig(p, cfg)
	if c1.QCEAnalysis == nil || c1.Analysis == nil {
		t.Fatalf("coreConfig left the static facts unset: qce=%p analysis=%p", c1.QCEAnalysis, c1.Analysis)
	}
	if c1.QCEAnalysis != c2.QCEAnalysis || c1.Analysis != c2.Analysis {
		t.Error("two runs of one Program got different static tables")
	}
	noSlim := cfg
	noSlim.DisableAnalysis = true
	if c, _, _ := coreConfig(p, noSlim); c.Analysis != nil || c.QCEAnalysis != c1.QCEAnalysis {
		t.Error("DisableAnalysis must drop only the liveness facts, not the QCE tables")
	}

	// Concurrent first use (run under -race): one table set for everyone.
	q, err := Compile(callHeavySrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([]core.Config, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, _ = coreConfig(q, cfg)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i].QCEAnalysis != got[0].QCEAnalysis || got[i].Analysis != got[0].Analysis {
			t.Fatalf("concurrent coreConfig call %d got different static tables", i)
		}
	}

	other := cfg
	other.QCE = QCEParams{Alpha: 0.25, Beta: 0.8, Kappa: 10, Zeta: 1}
	c3, _, _ := coreConfig(p, other)
	if c3.QCEAnalysis == c1.QCEAnalysis {
		t.Fatal("different QCE parameters shared one table set")
	}
	if c3.QCEAnalysis.Params.Alpha != 0.25 || c3.Analysis != c1.Analysis {
		t.Errorf("tables for α=0.25: params %+v, shared facts %v", c3.QCEAnalysis.Params, c3.Analysis == c1.Analysis)
	}
}
