package symx

import (
	"math/big"
	"strings"
	"testing"
	"time"
)

// echoSrc is the paper's Figure 1 program: a simplified echo.
const echoSrc = `
void main() {
    int r = 1;
    int arg = 1;
    if (arg < argc()) {
        // strcmp(argv[arg], "-n") == 0, inlined
        if (argchar(arg, 0) == '-' && argchar(arg, 1) == 'n' && argchar(arg, 2) == 0) {
            r = 0;
            arg++;
        }
    }
    for (; arg < argc(); arg++) {
        for (int i = 0; argchar(arg, i) != 0; i++) {
            putchar(argchar(arg, i));
        }
    }
    if (r != 0) {
        putchar('\n');
    }
}
`

func TestCompileEcho(t *testing.T) {
	p, err := Compile(echoSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if p.IR() == "" {
		t.Fatal("empty IR dump")
	}
}

// pathCount runs a config and returns completed paths and multiplicity.
func runEcho(t *testing.T, cfg Config) *Result {
	t.Helper()
	p, err := Compile(echoSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := Run(p, cfg)
	return res
}

// TestEchoPathCountNoMerge pins the exact feasible path count. The paper's
// closed form L^N + L^(N-1) treats strcmp as non-splitting (§3.1); our model
// inlines strcmp as short-circuit branches the way LLVM presents it to KLEE,
// so each failing comparison position is its own path. For N=2, L=2:
// arg1 has 5 non-"-n" prefix paths (3 lengths failing at position 0, 2
// failing at position 1) times 3 lengths of arg2, plus 3 lengths of arg2 on
// the "-n" path: 5*3 + 3 = 18.
func TestEchoPathCountNoMerge(t *testing.T) {
	res := runEcho(t, Config{NArgs: 2, ArgLen: 2, Merge: MergeNone})
	if !res.Completed {
		t.Fatal("exploration did not complete")
	}
	if got := res.Stats.PathsCompleted; got != 18 {
		t.Fatalf("paths = %d, want 18", got)
	}
	// Without merging, multiplicity equals the path count.
	if res.Stats.PathsMult.Cmp(big.NewInt(18)) != 0 {
		t.Fatalf("multiplicity = %s, want 18", res.Stats.PathsMult)
	}
}

func TestEchoPathCountLarger(t *testing.T) {
	// N=2, L=3: 8 arg1 prefix paths (4+3+1) * 4 arg2 lengths + 4 = 36.
	res := runEcho(t, Config{NArgs: 2, ArgLen: 3, Merge: MergeNone})
	if got := res.Stats.PathsCompleted; got != 36 {
		t.Fatalf("paths = %d, want 36", got)
	}
}

// TestEchoMergedPreservesPaths: with full merging, the multiplicity at the
// end must still count every feasible path.
func TestEchoMergedPreservesPaths(t *testing.T) {
	for _, mode := range []MergeMode{MergeSSM, MergeDSM} {
		res := runEcho(t, Config{NArgs: 2, ArgLen: 2, Merge: mode, UseQCE: true})
		if !res.Completed {
			t.Fatalf("%v: did not complete", mode)
		}
		if res.Stats.Merges == 0 {
			t.Fatalf("%v: no merges happened", mode)
		}
		// Multiplicity over-approximates paths but must cover them.
		if res.Stats.PathsMult.Cmp(big.NewInt(18)) < 0 {
			t.Fatalf("%v: multiplicity %s < 18 true paths", mode, res.Stats.PathsMult)
		}
		// Merging must reduce the number of separately-completed states.
		if res.Stats.PathsCompleted >= 18 {
			t.Fatalf("%v: merging did not reduce states: %d completions",
				mode, res.Stats.PathsCompleted)
		}
	}
}

// TestEchoExactCensus cross-checks multiplicity against the shadow census.
func TestEchoExactCensus(t *testing.T) {
	res := runEcho(t, Config{
		NArgs: 2, ArgLen: 2,
		Merge: MergeSSM, UseQCE: true,
		TrackExactPaths: true,
	})
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if got := res.Stats.ExactPaths; got != 18 {
		t.Fatalf("exact census = %d, want 18", got)
	}
}

// TestEchoTestGeneration: collected tests must reproduce valid inputs.
func TestEchoTestGeneration(t *testing.T) {
	res := runEcho(t, Config{NArgs: 1, ArgLen: 2, Merge: MergeNone, CollectTests: true})
	if len(res.Tests) == 0 {
		t.Fatal("no test cases generated")
	}
	seenNewline := false
	for _, tc := range res.Tests {
		if len(tc.Args) != 1 {
			t.Fatalf("test with %d args, want 1", len(tc.Args))
		}
		if len(tc.Output) > 0 && tc.Output[len(tc.Output)-1] == '\n' {
			seenNewline = true
		}
	}
	if !seenNewline {
		t.Fatal("no test case exercises the trailing-newline path")
	}
}

func TestStrategiesTerminate(t *testing.T) {
	for _, strat := range []Strategy{StrategyDFS, StrategyBFS, StrategyRandom, StrategyCoverage, StrategyTopo} {
		res := runEcho(t, Config{NArgs: 1, ArgLen: 2, Merge: MergeNone, Strategy: strat, Seed: 1})
		if !res.Completed {
			t.Fatalf("strategy %s did not complete", strat)
		}
		if res.Stats.PathsCompleted != 6 {
			t.Fatalf("strategy %s: %d paths, want 6", strat, res.Stats.PathsCompleted)
		}
	}
}

// TestDeterminism: same seed, same result.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, string) {
		res := runEcho(t, Config{NArgs: 2, ArgLen: 2, Merge: MergeDSM, UseQCE: true,
			Strategy: StrategyRandom, Seed: 42})
		return res.Stats.PathsCompleted, res.Stats.PathsMult.String()
	}
	p1, m1 := run()
	p2, m2 := run()
	if p1 != p2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%d,%s) vs (%d,%s)", p1, m1, p2, m2)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	p := MustCompile(echoSrc)
	res := Run(p, Config{NArgs: 2, ArgLen: 4, MaxSteps: 10})
	if res.Completed {
		t.Fatal("10-step run reported complete on an exponential workload")
	}
	if res.Stats.Steps > 10 {
		t.Fatalf("took %d steps, budget was 10", res.Stats.Steps)
	}
}

func TestTimeBudget(t *testing.T) {
	p := MustCompile(echoSrc)
	// Sized so the run cannot finish within the budget even with the
	// incremental solver sessions (which completed the previous
	// 3×6-argument workload inside 50ms).
	res := Run(p, Config{NArgs: 4, ArgLen: 12, MaxTime: 50 * time.Millisecond})
	if res.Completed {
		t.Fatal("50ms run reported complete on a huge workload")
	}
	if res.Stats.ElapsedSeconds > 2 {
		t.Fatalf("run overshot its budget: %.2fs", res.Stats.ElapsedSeconds)
	}
}

func TestCheckBoundsFindsOOB(t *testing.T) {
	p := MustCompile(`
void main() {
    byte buf[2];
    int i = toint(argchar(1, 0));
    buf[i] = 1; // i can exceed 1
    putchar(buf[0]);
}
`)
	res := Run(p, Config{NArgs: 1, ArgLen: 1, CheckBounds: true})
	if res.Stats.ErrorsFound == 0 {
		t.Fatal("out-of-bounds store not detected")
	}
	// Without bounds checking the same program runs clean (stores out of
	// range are dropped, loads read 0 — the documented MiniC semantics).
	res = Run(p, Config{NArgs: 1, ArgLen: 1})
	if res.Stats.ErrorsFound != 0 {
		t.Fatalf("unexpected errors without CheckBounds: %v", res.Errors)
	}
}

func TestAssumeNarrows(t *testing.T) {
	p := MustCompile(`
void main() {
    byte c = argchar(1, 0);
    assume(c == 'x');
    if (c == 'x') {
        putchar('y');
    } else {
        putchar('n'); // unreachable under the assumption
    }
}
`)
	res := Run(p, Config{NArgs: 1, ArgLen: 1, CollectTests: true})
	if res.Stats.PathsCompleted != 1 {
		t.Fatalf("assume left %d paths, want 1", res.Stats.PathsCompleted)
	}
	if len(res.Tests) != 1 || string(res.Tests[0].Output) != "y" {
		t.Fatalf("tests = %+v", res.Tests)
	}
	if len(res.Tests[0].Args) != 1 || string(res.Tests[0].Args[0]) != "x" {
		t.Fatalf("model args %q, want [\"x\"]", res.Tests[0].Args)
	}
}

func TestContradictoryAssumeKillsPath(t *testing.T) {
	p := MustCompile(`
void main() {
    byte c = argchar(1, 0);
    assume(c == 'x');
    assume(c == 'y');
    putchar('?'); // unreachable
}
`)
	res := Run(p, Config{NArgs: 1, ArgLen: 1, CollectTests: true})
	if res.Stats.PathsCompleted != 0 {
		t.Fatalf("contradictory assumptions completed %d paths", res.Stats.PathsCompleted)
	}
}

func TestSymIntrinsics(t *testing.T) {
	p := MustCompile(`
void main() {
    int x = sym_int();
    byte b = sym_byte();
    bool f = sym_bool();
    if (x == 42 && b == 7 && f) {
        putchar('*');
    }
}
`)
	res := Run(p, Config{CollectTests: true})
	if !res.Completed {
		t.Fatal("did not complete")
	}
	star := false
	for _, tc := range res.Tests {
		if string(tc.Output) == "*" {
			star = true
		}
	}
	if !star {
		t.Fatal("no test case reaches the starred branch")
	}
}

func TestMakeSymbolicArray(t *testing.T) {
	p := MustCompile(`
void main() {
    byte buf[3];
    make_symbolic(buf);
    if (buf[0] == 'a' && buf[1] == 'b') {
        putchar('!');
    }
}
`)
	res := Run(p, Config{CollectTests: true})
	found := false
	for _, tc := range res.Tests {
		if string(tc.Output) == "!" {
			found = true
		}
	}
	if !found {
		t.Fatal("make_symbolic array did not produce the 'ab' path")
	}
}

// TestMergeFuncSummaries exercises the function-summary regime of §2.2: a
// branching helper's paths collapse at every return, so the caller sees one
// summarized state per call while multiplicity still covers every path.
func TestMergeFuncSummaries(t *testing.T) {
	src := `
int digit(byte c) {
    if (c < '0') { return -1; }
    if (c > '9') { return -1; }
    return toint(c - '0');
}
void main() {
    int a = digit(argchar(1, 0));
    int b = digit(argchar(2, 0));
    if (a >= 0 && b >= 0) {
        putchar(tobyte('0' + a + b));
    } else {
        putchar('?');
    }
}
`
	p := MustCompile(src)
	plain := Run(p, Config{NArgs: 2, ArgLen: 1, Merge: MergeNone})
	summ := Run(p, Config{NArgs: 2, ArgLen: 1, Merge: MergeFunc})
	if !plain.Completed || !summ.Completed {
		t.Fatal("exploration incomplete")
	}
	if summ.Stats.Merges == 0 {
		t.Fatal("no summary merges at function exits")
	}
	if summ.Stats.PathsMult.Uint64() < plain.Stats.PathsCompleted {
		t.Fatalf("summary multiplicity %s under-counts %d plain paths",
			summ.Stats.PathsMult, plain.Stats.PathsCompleted)
	}
	if summ.Stats.PathsCompleted >= plain.Stats.PathsCompleted {
		t.Fatalf("summaries did not reduce states: %d vs %d",
			summ.Stats.PathsCompleted, plain.Stats.PathsCompleted)
	}
}

// TestMergeFuncQCEGated: with QCE on, summaries become selective — a callee
// result that feeds a hot loop bound keeps its states separate.
func TestMergeFuncQCEGated(t *testing.T) {
	src := `
int width(byte c) {
    if (c == 'w') { return 3; }
    return 1;
}
void main() {
    int n = width(argchar(1, 0));
    for (int i = 0; i < n; i++) {
        putchar('x');
    }
    putchar('\n');
}
`
	p := MustCompile(src)
	all := Run(p, Config{NArgs: 1, ArgLen: 1, Merge: MergeFunc})
	gated := Run(p, Config{NArgs: 1, ArgLen: 1, Merge: MergeFunc, UseQCE: true,
		QCE: QCEParams{Alpha: 0.01, Beta: 0.8, Kappa: 10, Zeta: 1}})
	if !all.Completed || !gated.Completed {
		t.Fatal("exploration incomplete")
	}
	if all.Stats.Merges == 0 {
		t.Fatal("ungated summaries never merged")
	}
	// n is hot (it bounds the later loop): QCE must refuse this merge.
	if gated.Stats.Merges != 0 {
		t.Fatalf("QCE-gated summaries merged %d times on a hot loop bound",
			gated.Stats.Merges)
	}
}

// TestSleepAnecdote pins the paper's §5.4 case study: sleep's parse loops
// fork per character, but the accumulator `seconds` is used only once in
// the final validation, so QCE does not mark it hot and all parse states
// merge — avoiding the exponential growth in the number of arguments.
func TestSleepAnecdote(t *testing.T) {
	src := `
void main() {
    int seconds = 0;
    bool ok = argc() > 1;
    for (int arg = 1; arg < argc(); arg++) {
        int v = 0;
        bool any = false;
        for (int i = 0; argchar(arg, i) != 0; i++) {
            byte d = argchar(arg, i);
            if (d >= '0' && d <= '9') {
                v = v * 10 + toint(d - '0');
                any = true;
            } else {
                ok = false;
            }
        }
        if (!any) { ok = false; }
        seconds = seconds + v;
    }
    if (!ok) { putchar('?'); halt(1); }
    if (seconds > 86400) { putchar('!'); halt(1); }
    putchar('z');
    halt(0);
}
`
	p := MustCompile(src)
	plain := Run(p, Config{NArgs: 2, ArgLen: 2, Merge: MergeNone})
	merged := Run(p, Config{NArgs: 2, ArgLen: 2, Merge: MergeSSM, UseQCE: true})
	if !plain.Completed || !merged.Completed {
		t.Fatal("exploration incomplete")
	}
	// Plain exploration is exponential in the number of characters;
	// merging must collapse the parse states dramatically.
	if plain.Stats.PathsCompleted < 50 {
		t.Fatalf("plain explored only %d paths; expected exponential growth", plain.Stats.PathsCompleted)
	}
	if merged.Stats.PathsCompleted*5 > plain.Stats.PathsCompleted {
		t.Fatalf("merging did not collapse sleep: %d merged vs %d plain states",
			merged.Stats.PathsCompleted, plain.Stats.PathsCompleted)
	}
	if merged.Stats.Merges == 0 {
		t.Fatal("no merges on sleep")
	}
}

// TestMergeFuncStrategyRefused (regression, config validation): MergeFunc
// under a non-topological worklist silently under-merges, so an explicit
// non-topo strategy must be refused up front via ConfigErr, while topo and
// the empty default stay accepted.
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
}
