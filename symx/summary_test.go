package symx

// Compositional-summary tests: the cache is a pure execution-cost
// optimization, so every observable of a run — canonical test set, outputs,
// exit codes, path census, multiplicity, coverage mask, errors found — must
// be identical with summaries on or off, in every merging regime and at any
// worker count. The differential helpers here pin exactly that, and the
// targeted tests pin each soundness gate (recursion, heap, fresh symbolic
// inputs, aliasing, truncated recordings) falling back to inline.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"symmerge/internal/corpus"
)

// summaryCallSrc is a call-heavy program: two helpers (one with an array
// parameter mutated in place) applied to every argv byte. Loop-free so
// exhaustive exploration is fast and strategy-independent.
const summaryCallSrc = `
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

// summaryScanSrc exercises the remaining entry shapes: a strtol-style scan
// helper with an array out-parameter (CellWrites), a helper that halts the
// whole run on bad input (KindHalt entries), and caller paths that make
// some callee paths infeasible (assume-summary queries must cut them).
const summaryScanSrc = `
void parse_scan(int arg, int start, int out[2]) {
    int v = 0;
    bool any = false;
    bool bad = false;
    for (int i = start; argchar(arg, i) != 0; i++) {
        byte d = argchar(arg, i);
        if (d >= '0' && d <= '9') {
            v = v * 10 + toint(d - '0');
            any = true;
        } else {
            bad = true;
        }
    }
    out[0] = v;
    out[1] = 0;
    if (any && !bad) {
        out[1] = 1;
    }
}

int parse_strict(int arg) {
    int v = 0;
    for (int i = 0; argchar(arg, i) != 0; i++) {
        byte d = argchar(arg, i);
        if (d < '0' || d > '9') {
            putchar('?');
            halt(1);
        }
        v = v * 10 + toint(d - '0');
    }
    return v;
}

void main() {
    int pr[2];
    int total = 0;
    bool ok = true;
    for (int arg = 1; arg < argc(); arg++) {
        parse_scan(arg, 0, pr);
        if (pr[1] == 0) {
            ok = false;
        }
        total = total + pr[0];
    }
    if (ok) {
        total = total + parse_strict(1);
    }
    if (!ok) {
        putchar('?');
        halt(1);
    }
    putchar(tobyte('0' + total % 10));
    halt(0);
}
`

// behavior reduces a result to the observables summaries must preserve:
// canonical input → (output, exit, error) map.
func behavior(t *testing.T, res *Result) map[string]string {
	t.Helper()
	out := make(map[string]string, len(res.Tests))
	for _, tc := range res.Tests {
		id := corpus.InputID(tc.Args, tc.Stdin)
		out[id] = fmt.Sprintf("out=%q exit=%d err=%v msg=%q", tc.Output, tc.Exit, tc.IsErr, tc.Msg)
	}
	return out
}

// checkSummaryParity runs cfg with summaries off and on and fails on any
// observable difference. Returns the summary-enabled result for extra
// assertions.
func checkSummaryParity(t *testing.T, p *Program, cfg Config, label string) *Result {
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
	off.Summaries = false
	on := cfg
	on.Summaries = true

	roff := Run(p, off)
	ron := Run(p, on)
	if roff.ConfigErr != nil || ron.ConfigErr != nil {
		t.Fatalf("%s: config refused: off=%v on=%v", label, roff.ConfigErr, ron.ConfigErr)
	}
	if !roff.Completed || !ron.Completed {
		t.Fatalf("%s: incomplete exploration: off=%v on=%v", label, roff.Completed, ron.Completed)
	}
	if cfg.Merge == MergeNone {
		// Without merging every path completes separately, so the path
		// count itself must match exactly.
		if roff.Stats.PathsMult.Cmp(ron.Stats.PathsMult) != 0 {
			t.Fatalf("%s: multiplicity off=%s on=%s", label, roff.Stats.PathsMult, ron.Stats.PathsMult)
		}
	} else {
		// Under merging, multiplicity is an over-approximation whose
		// value depends on where merges happen — and summaries
		// legitimately change that (no intra-callee merges at a
		// discharged site). The invariants are the exact shadow census
		// and that both multiplicities still cover it.
		if roff.Stats.ExactPaths != ron.Stats.ExactPaths {
			t.Fatalf("%s: exact census off=%d on=%d", label, roff.Stats.ExactPaths, ron.Stats.ExactPaths)
		}
		for _, r := range []*Result{roff, ron} {
			if r.Stats.PathsMult.Uint64() < r.Stats.ExactPaths {
				t.Fatalf("%s: multiplicity %s under-counts census %d", label, r.Stats.PathsMult, r.Stats.ExactPaths)
			}
		}
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
		t.Fatalf("%s: %d canonical inputs off, %d on", label, len(boff), len(bon))
	}
	for id, want := range boff {
		if got, ok := bon[id]; !ok {
			t.Fatalf("%s: input %s missing with summaries on", label, id)
		} else if got != want {
			t.Fatalf("%s: input %s behavior off=%s on=%s", label, id, want, got)
		}
	}
	return ron
}

// TestSummaryParityMatrix: byte-identical observables across every merging
// regime and worker count on the call-heavy fixture, with cache hits
// actually occurring under at least the non-trivial regimes.
func TestSummaryParityMatrix(t *testing.T) {
	fixtures := []struct {
		name string
		src  string
	}{
		{"calls", summaryCallSrc},
		{"scan", summaryScanSrc},
	}
	regimes := []struct {
		name  string
		merge MergeMode
		qce   bool
	}{
		{"none", MergeNone, false},
		{"ssm+qce", MergeSSM, true},
		{"dsm+qce", MergeDSM, true},
		{"func", MergeFunc, false},
	}
	for _, fx := range fixtures {
		p, err := Compile(fx.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", fx.name, err)
		}
		for _, reg := range regimes {
			for _, workers := range []int{1, 8} {
				label := fmt.Sprintf("%s/%s/w%d", fx.name, reg.name, workers)
				res := checkSummaryParity(t, p, Config{
					NArgs: 2, ArgLen: 2,
					Merge:   reg.merge,
					UseQCE:  reg.qce,
					Workers: workers,
					MaxTime: 30 * time.Second,
				}, label)
				if res.Stats.SummaryRecords == 0 {
					t.Errorf("%s: no summary was ever recorded", label)
				}
				if res.Stats.SummaryHits == 0 {
					t.Errorf("%s: no call site was discharged from the cache", label)
				}
			}
		}
	}
}

// TestSummaryStatsAccounting: the counters tell a coherent story — sites
// are either discharged or rejected, recordings happen once per input
// class, and recorded steps are visible.
func TestSummaryStatsAccounting(t *testing.T) {
	p, err := Compile(summaryCallSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := Run(p, Config{
		NArgs: 2, ArgLen: 2,
		Summaries: true, CollectTests: true,
	})
	st := res.Stats
	if st.SummaryRecords == 0 || st.SummaryHits == 0 {
		t.Fatalf("expected recordings and hits, got records=%d hits=%d", st.SummaryRecords, st.SummaryHits)
	}
	if st.SummaryHits > 0 && st.SummaryEntries == 0 {
		t.Fatalf("discharged %d sites but applied no entries", st.SummaryHits)
	}
	if st.SummarySteps == 0 {
		t.Fatalf("recordings consumed no steps")
	}
	if st.Solver.SummaryQueries == 0 {
		t.Fatalf("no assume-summary queries were classed")
	}
}

// gateParity compiles src and checks parity plus that no summary was ever
// applied for it (the gate must force inline exploration throughout).
func gateParity(t *testing.T, src, label string, wantRejects bool) {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	res := checkSummaryParity(t, p, Config{
		NArgs: 1, ArgLen: 2,
		MaxTime: 30 * time.Second,
	}, label)
	if wantRejects && res.Stats.SummaryRejects == 0 {
		t.Errorf("%s: expected inline fallbacks, saw none", label)
	}
}

// TestSummaryGateRecursion: a recursive callee is statically ineligible.
func TestSummaryGateRecursion(t *testing.T) {
	gateParity(t, `
int down(int n) {
    if (n <= 0) { return 0; }
    return down(n - 1) + 1;
}
void main() {
    putchar(tobyte('0' + down(toint(argchar(1, 0)) & 3)));
}
`, "recursion", true)
}

// TestSummaryGateHeap: a callee whose closure touches the symbolic heap is
// statically ineligible.
func TestSummaryGateHeap(t *testing.T) {
	gateParity(t, `
int stash(int v) {
    ptr h = alloc(2);
    h[v & 1] = v;
    return h[0];
}
void main() {
    putchar(tobyte('0' + (stash(toint(argchar(1, 0))) & 7)));
}
`, "heap", true)
}

// TestSummaryGateSymInput: a callee that conjures fresh symbolic input is
// statically ineligible (its paths are not a function of its arguments).
func TestSummaryGateSymInput(t *testing.T) {
	gateParity(t, `
int pick(int v) {
    int s = sym_int();
    if (s < v) { return 0; }
    return 1;
}
void main() {
    putchar(tobyte('0' + pick(toint(argchar(1, 0)) & 3)));
}
`, "symintput", true)
}

// TestSummaryGateAliasedArrays: passing the same array to two parameters
// must fall back at that site (the recording seeds them as disjoint
// objects), while behavior stays identical.
func TestSummaryGateAliasedArrays(t *testing.T) {
	gateParity(t, `
int swapadd(int a[2], int b[2]) {
    int t = a[0];
    a[0] = b[1] + 1;
    b[1] = t;
    if (a[0] > 5) { return 1; }
    return 0;
}
void main() {
    int xs[2];
    xs[0] = toint(argchar(1, 0)) & 7;
    xs[1] = 2;
    int r = swapadd(xs, xs);
    putchar(tobyte('0' + ((xs[0] + xs[1] + r) % 10)));
}
`, "aliased", true)
}

// TestSummaryGateTruncatedRecording: a recording budget too small for any
// callee negatively caches everything; the run is then pure inline and
// still byte-identical.
func TestSummaryGateTruncatedRecording(t *testing.T) {
	p, err := Compile(summaryCallSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := checkSummaryParity(t, p, Config{
		NArgs: 2, ArgLen: 2,
		SummaryMaxSteps: 1,
		MaxTime:         30 * time.Second,
	}, "truncated")
	if res.Stats.SummaryHits != 0 {
		t.Fatalf("a 1-step recording budget still discharged %d sites", res.Stats.SummaryHits)
	}
	if res.Stats.SummaryRejects == 0 {
		t.Fatalf("expected every call site to fall back inline")
	}
}

// TestSummarySharedDomain: a second run over the same domain reuses the
// first run's recordings wholesale — hits without a single new recording —
// and still matches a cold run's observables.
func TestSummarySharedDomain(t *testing.T) {
	p, err := Compile(summaryCallSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dom := NewDomain(nil)
	cfg := Config{
		NArgs: 2, ArgLen: 2,
		Summaries: true, Domain: dom,
		CollectTests: true, CanonicalTests: true, MaxTests: 1 << 20,
	}
	warmup := Run(p, cfg)
	if warmup.Stats.SummaryRecords == 0 {
		t.Fatalf("warm-up run recorded nothing")
	}
	second := Run(p, cfg)
	if second.Stats.SummaryRecords != 0 {
		t.Fatalf("second run re-recorded %d summaries despite the shared domain", second.Stats.SummaryRecords)
	}
	if second.Stats.SummaryHits == 0 {
		t.Fatalf("second run hit nothing")
	}
	bwarm, bsecond := behavior(t, warmup), behavior(t, second)
	if len(bwarm) != len(bsecond) {
		t.Fatalf("warm %d inputs, second %d", len(bwarm), len(bsecond))
	}
	for id, want := range bwarm {
		if got := bsecond[id]; got != want {
			t.Fatalf("input %s: warm %s, second %s", id, want, got)
		}
	}
}

// TestMergeFuncStrategyRefused (regression, config validation): MergeFunc
// under a non-topological worklist silently under-merges, so an explicit
// non-topo strategy must be refused up front via ConfigErr — in the outer
// config and in portfolio entries — while topo and the empty default stay
// accepted.
func TestMergeFuncStrategyRefused(t *testing.T) {
	p, err := Compile(echoSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := Run(p, Config{NArgs: 1, ArgLen: 2, Merge: MergeFunc, Strategy: StrategyDFS})
	if res.ConfigErr == nil {
		t.Fatal("merge=func with DFS was not refused")
	}
	if !strings.Contains(res.ConfigErr.Error(), "topological") {
		t.Fatalf("unhelpful refusal: %v", res.ConfigErr)
	}
	if res.Stats.PathsCompleted != 0 {
		t.Fatal("refused config still explored")
	}
	for _, ok := range []Config{
		{NArgs: 1, ArgLen: 2, Merge: MergeFunc, Strategy: StrategyTopo},
		{NArgs: 1, ArgLen: 2, Merge: MergeFunc},
	} {
		if r := Run(p, ok); r.ConfigErr != nil {
			t.Fatalf("valid config refused: %v", r.ConfigErr)
		}
	}
	bad := Run(p, Config{
		Portfolio: []Config{
			{NArgs: 1, ArgLen: 2, Merge: MergeNone},
			{NArgs: 1, ArgLen: 2, Merge: MergeFunc, Strategy: StrategyRandom},
		},
	})
	if bad.ConfigErr == nil || !strings.Contains(bad.ConfigErr.Error(), "portfolio entry 1") {
		t.Fatalf("portfolio entry not validated: %v", bad.ConfigErr)
	}
}

// TestSummaryCheckBoundsRefused (config validation): the summary cache
// cannot serve CheckBounds runs (bounds errors are analyses of the calling
// context), so the pair is refused up front via ConfigErr — in the outer
// config and in portfolio entries — rather than silently ignoring the cache.
func TestSummaryCheckBoundsRefused(t *testing.T) {
	p, err := Compile(summaryCallSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := Run(p, Config{NArgs: 2, ArgLen: 2, Summaries: true, CheckBounds: true})
	if res.ConfigErr == nil {
		t.Fatal("Summaries with CheckBounds was not refused")
	}
	for _, field := range []string{"Summaries", "CheckBounds"} {
		if !strings.Contains(res.ConfigErr.Error(), field) {
			t.Fatalf("refusal does not name %s: %v", field, res.ConfigErr)
		}
	}
	st := res.Stats
	if st.PathsCompleted != 0 || st.Steps != 0 || st.SummaryRecords != 0 {
		t.Fatalf("refused config still explored: paths=%d steps=%d records=%d",
			st.PathsCompleted, st.Steps, st.SummaryRecords)
	}
	bad := Run(p, Config{
		Portfolio: []Config{
			{NArgs: 2, ArgLen: 2, Summaries: true},
			{NArgs: 2, ArgLen: 2, Summaries: true, CheckBounds: true},
		},
	})
	if bad.ConfigErr == nil || !strings.Contains(bad.ConfigErr.Error(), "portfolio entry 1") {
		t.Fatalf("portfolio entry not validated: %v", bad.ConfigErr)
	}
}

// TestSummaryFuzzParity: randomized differential pass over call-heavy
// generated programs, the observable-parity counterpart of the fixed
// matrix above.
func TestSummaryFuzzParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(8088))
	gen := &progGen{rng: rng}
	checked := 0
	for iter := 0; iter < 25; iter++ {
		src := gen.generateWithHelper(4 + rng.Intn(5))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, src)
		}
		for _, cfg := range []Config{
			{NArgs: 1, ArgLen: 2, Merge: MergeNone, MaxTime: 20 * time.Second},
			{NArgs: 1, ArgLen: 2, Merge: MergeSSM, UseQCE: true, MaxTime: 20 * time.Second},
		} {
			checkSummaryParity(t, p, cfg, fmt.Sprintf("iter %d merge=%s\n%s", iter, cfg.Merge, src))
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d programs checked", checked)
	}
}

// FuzzSummaryRoundTrip: with summaries on, every canonical test generated
// from a call-heavy random program must replay to exactly the output and
// exit it predicts (concrete replay is the ground truth the cache cannot
// be allowed to distort).
func FuzzSummaryRoundTrip(f *testing.F) {
	for _, seed := range []int64{3, 11, 31337, 20260808} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		gen := &progGen{rng: rng}
		src := gen.generateWithHelper(4 + rng.Intn(5))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("generated program does not compile: %v\n%s", err, src)
		}
		res := Run(p, Config{
			NArgs: 1, ArgLen: 2,
			Summaries:    true,
			CollectTests: true, CanonicalTests: true,
			MaxTests: 4096,
			MaxTime:  20 * time.Second,
		})
		if !res.Completed {
			t.Skip("budget")
		}
		for ti, tc := range res.Tests {
			if ti >= 8 {
				break
			}
			if tc.IsErr && !tc.Assert {
				continue // engine-analysis failure, no replay counterpart
			}
			replay := Run(p, Config{ConcreteArgs: tc.Args, ConcreteStdin: tc.Stdin, CollectTests: true})
			if len(replay.Tests) != 1 {
				t.Fatalf("replay explored %d paths\n%s", len(replay.Tests), src)
			}
			if string(replay.Tests[0].Output) != string(tc.Output) {
				t.Fatalf("test predicted %q, replay printed %q\nargs=%q\n%s",
					tc.Output, replay.Tests[0].Output, tc.Args, src)
			}
		}
	})
}
