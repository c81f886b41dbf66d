package symx

// Differential and fuzz suites for the static dataflow analyses
// (internal/analysis): with the analyses enabled (the default) the engine
// prunes statically-decided branch sides, elides provably-in-bounds
// checks, and slims merge selectors to live slots — and none of it may be
// observable. Every test here runs the same exploration with
// DisableAnalysis on and off and requires identical censuses, errors,
// coverage, and canonical behavior; the fuzz arm additionally re-validates
// each pruned branch side against the solver (CrossCheckAnalysis panics on
// a satisfiable pruned side).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// analysisPruneSrc has one statically-true branch (x is a byte, so
// x < 300 always holds), a counted loop whose stores are provably in
// bounds, and a constant-offset heap dereference — one witness per
// counter the analyses feed.
const analysisPruneSrc = `
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

// checkAnalysisParity runs cfg twice — analyses off, then on — and
// requires byte-equal observables: completion, the exact-path census,
// multiplicity, error counts, the coverage mask, and the canonical
// behavior of every generated input. Returns the analyses-on result so
// callers can assert on its counters.
func checkAnalysisParity(t *testing.T, p *Program, cfg Config, label string) *Result {
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
		// Pruned sides are unsat, so they never contributed feasible
		// paths; slimmed selectors cover only dead slots. The feasible
		// path structure — and with it multiplicity — must be untouched.
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
	return ron
}

// TestAnalysisPruneAndElide: the fixture's statically-decided branch and
// provably-safe accesses actually move the counters, with bounds checking
// on so the elisions replace real query pairs — and the observables stay
// pinned.
func TestAnalysisPruneAndElide(t *testing.T) {
	p, err := Compile(analysisPruneSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("w%d", workers)
		res := checkAnalysisParity(t, p, Config{
			NArgs: 1, ArgLen: 1,
			Merge: MergeSSM, UseQCE: true,
			CheckBounds: true,
			Workers:     workers,
			MaxTime:     30 * time.Second,
		}, label)
		if res.Stats.PrunedStatic == 0 {
			t.Errorf("%s: no branch side was statically pruned", label)
		}
		if res.Stats.BoundsElided == 0 {
			t.Errorf("%s: no bounds/heap check was elided", label)
		}
	}

	// With the analyses disabled the counters must stay zero.
	res := Run(p, Config{
		NArgs: 1, ArgLen: 1,
		CheckBounds:     true,
		DisableAnalysis: true,
	})
	if res.Stats.PrunedStatic != 0 || res.Stats.BoundsElided != 0 {
		t.Errorf("disabled analyses still counted: pruned=%d elided=%d",
			res.Stats.PrunedStatic, res.Stats.BoundsElided)
	}
}

// TestAnalysisParityMatrix crosses the parity check over the merging
// regimes, worker counts, and the call-heavy fixtures.
func TestAnalysisParityMatrix(t *testing.T) {
	fixtures := []struct {
		name string
		src  string
	}{
		{"prune", analysisPruneSrc},
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
			for _, workers := range []int{1, 8} {
				label := fmt.Sprintf("%s/%s/w%d", fx.name, reg.name, workers)
				checkAnalysisParity(t, p, Config{
					NArgs: 1, ArgLen: 2,
					Merge:   reg.merge,
					UseQCE:  reg.qce,
					Workers: workers,
					MaxTime: 30 * time.Second,
				}, label)
			}
		}
	}
}

// TestFuzzAnalysisCrossCheck: random programs under CrossCheckAnalysis,
// which re-validates every statically pruned branch side against the
// solver (pruned ⇒ unsat) and panics on disagreement — plus the full
// off/on parity check per program. Heap-flavored programs keep the
// pointer-origin elisions honest.
func TestFuzzAnalysisCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(20260808))
	gen := &progGen{rng: rng}
	checked, pruned, elided := 0, uint64(0), uint64(0)
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

		cross := base
		cross.CrossCheckAnalysis = true
		res := Run(p, cross)
		if !res.Completed {
			t.Fatalf("iter %d: cross-checked run did not complete\n%s", iter, src)
		}
		pruned += res.Stats.PrunedStatic
		elided += res.Stats.BoundsElided

		checkAnalysisParity(t, p, base, fmt.Sprintf("iter%d", iter))
	}
	if checked < 20 {
		t.Fatalf("only %d/50 generated programs fit the fuzz budget", checked)
	}
	if pruned == 0 && elided == 0 {
		t.Error("fuzz corpus never exercised a static prune or elision")
	}
	t.Logf("checked %d programs: %d branch sides pruned, %d checks elided", checked, pruned, elided)
}
