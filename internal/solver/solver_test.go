package solver

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"symmerge/internal/expr"
)

func newTestSolver() *Solver { return New(DefaultOptions()) }

// modelSatisfies is the uncached reference check: every conjunct evaluated
// from scratch under m.
func modelSatisfies(m Model, constraints []*expr.Expr) bool {
	env := expr.Env(m)
	for _, c := range constraints {
		if !expr.EvalBool(c, env) {
			return false
		}
	}
	return true
}

func TestTrivial(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	ok, m, err := s.CheckSat(nil)
	if err != nil || !ok {
		t.Fatalf("empty conjunction: ok=%v err=%v", ok, err)
	}
	if len(m) != 0 {
		t.Fatalf("empty conjunction model: %v", m)
	}
	ok, _, err = s.CheckSat([]*expr.Expr{b.False()})
	if err != nil || ok {
		t.Fatalf("false: ok=%v err=%v", ok, err)
	}
}

func TestSimpleConstraints(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	// x + 1 == 5  =>  x == 4
	ok, m, err := s.CheckSat([]*expr.Expr{b.Eq(b.Add(x, b.Const(1, 8)), b.Const(5, 8))})
	if err != nil || !ok {
		t.Fatalf("sat check: ok=%v err=%v", ok, err)
	}
	if m[x] != 4 {
		t.Fatalf("model x=%d, want 4", m[x])
	}
	// x < 3 ∧ x > 5 is unsat.
	ok, _, _ = s.CheckSat([]*expr.Expr{
		b.Ult(x, b.Const(3, 8)),
		b.Ugt(x, b.Const(5, 8)),
	})
	if ok {
		t.Fatal("x<3 ∧ x>5 reported sat")
	}
}

func TestMultiplicationInverse(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	// x * 3 == 33  =>  x == 11 (3 is odd, invertible mod 256; 11 unique
	// within small range but mod-256 has a single solution since 3 is
	// invertible).
	ok, m, err := s.CheckSat([]*expr.Expr{b.Eq(b.Mul(x, b.Const(3, 8)), b.Const(33, 8))})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got := (m[x] * 3) & 0xff; got != 33 {
		t.Fatalf("model x=%d does not satisfy x*3=33 (got %d)", m[x], got)
	}
}

func TestSignedComparison(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	// x <s 0 ∧ x >u 200: negative byte values are > 200 unsigned for
	// x in 201..255, and signed-negative for 128..255: sat.
	ok, m, err := s.CheckSat([]*expr.Expr{
		b.Slt(x, b.Const(0, 8)),
		b.Ugt(x, b.Const(200, 8)),
	})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m[x] <= 200 || m[x] > 255 {
		t.Fatalf("model x=%d out of expected range", m[x])
	}
}

func TestDivisionSemantics(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	// x udiv 0 == 255 for every x (SMT-LIB): the negation must be unsat.
	q := b.Not(b.Eq(b.UDiv(x, b.Const(0, 8)), b.Const(255, 8)))
	ok, _, err := s.CheckSat([]*expr.Expr{q})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("found x with x/0 != 255")
	}
	// x urem 0 == x for every x.
	q = b.Not(b.Eq(b.URem(x, b.Const(0, 8)), x))
	ok, _, _ = s.CheckSat([]*expr.Expr{q})
	if ok {
		t.Fatal("found x with x%0 != x")
	}
}

// TestBlastAgainstEval is the central solver property test: for random
// boolean expressions e and random seed assignments, asserting e ∧ (vars =
// seed values) must be sat exactly when Eval says e is true under the seed.
func TestBlastAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	b := expr.NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	vars := []*expr.Expr{x, y}
	for iter := 0; iter < 400; iter++ {
		e := randomBoolExpr(b, rng, vars, 4)
		xv := uint64(rng.Intn(16))
		yv := uint64(rng.Intn(16))
		want := expr.EvalBool(e, expr.Env{x: xv, y: yv})
		s := New(Options{}) // no caches: test the blaster directly
		ok, _, err := s.CheckSat([]*expr.Expr{
			e,
			b.Eq(x, b.Const(xv, 4)),
			b.Eq(y, b.Const(yv, 4)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Fatalf("iter %d: blast/eval disagree on %s with x=%d y=%d: sat=%v eval=%v",
				iter, e, xv, yv, ok, want)
		}
	}
}

// TestModelValidity: every model returned for sat queries must satisfy the
// constraints under the reference evaluator.
func TestModelValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	b := expr.NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	vars := []*expr.Expr{x, y}
	sat, unsat := 0, 0
	for iter := 0; iter < 400; iter++ {
		e := randomBoolExpr(b, rng, vars, 5)
		s := New(Options{})
		ok, m, err := s.CheckSat([]*expr.Expr{e})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			unsat++
			// Cross-check with brute force over 4-bit x, y.
			for xv := uint64(0); xv < 16; xv++ {
				for yv := uint64(0); yv < 16; yv++ {
					if expr.EvalBool(e, expr.Env{x: xv, y: yv}) {
						t.Fatalf("iter %d: unsat but x=%d y=%d satisfies %s", iter, xv, yv, e)
					}
				}
			}
			continue
		}
		sat++
		if !expr.EvalBool(e, expr.Env(m)) {
			t.Fatalf("iter %d: model %v does not satisfy %s", iter, m, e)
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("degenerate test distribution: sat=%d unsat=%d", sat, unsat)
	}
}

func TestShiftSemantics(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	sh := b.Var("sh", 8)
	// For shift ≥ width, shl yields 0: assert exists x,sh: sh >= 8 ∧ (x
	// << sh) != 0 must be unsat.
	ok, _, err := s.CheckSat([]*expr.Expr{
		b.Uge(sh, b.Const(8, 8)),
		b.Ne(b.Shl(x, sh), b.Const(0, 8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("x << (sh≥8) != 0 is satisfiable")
	}
	// ashr of a negative value by ≥ width is all ones.
	ok, _, _ = s.CheckSat([]*expr.Expr{
		b.Slt(x, b.Const(0, 8)),
		b.Uge(sh, b.Const(8, 8)),
		b.Ne(b.AShr(x, sh), b.Const(0xff, 8)),
	})
	if ok {
		t.Fatal("negative >> (sh≥8) != -1 is satisfiable")
	}
}

func TestIteBlast(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	c := b.Var("c", 0)
	x := b.Ite(c, b.Const(10, 8), b.Const(20, 8))
	ok, m, err := s.CheckSat([]*expr.Expr{b.Eq(x, b.Const(20, 8))})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m[c] != 0 {
		t.Fatalf("model c=%d, want 0", m[c])
	}
}

// TestRepeatQueryAnsweredByModelReuse checks that a query asked again is
// answered by the recent-model ring, without a SAT call.
func TestRepeatQueryAnsweredByModelReuse(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	q := []*expr.Expr{b.Ult(x, b.Const(5, 8))}
	if ok, _, _ := s.CheckSat(q); !ok {
		t.Fatal("first query unsat")
	}
	calls := s.Stats.SATCalls
	// Identical query again: model reuse must answer it.
	if ok, _, _ := s.CheckSat(q); !ok {
		t.Fatal("second query unsat")
	}
	if s.Stats.SATCalls != calls {
		t.Fatalf("repeat query reached SAT: %d -> %d calls", calls, s.Stats.SATCalls)
	}
	if s.Stats.ModelReuseHits == 0 {
		t.Fatal("no model-reuse hit recorded")
	}
}

// TestDeadlineBudgetError: a SAT call that runs past the solver's deadline
// returns ErrBudget and counts a timeout, never a verdict.
func TestDeadlineBudgetError(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	s.SetDeadline(time.Now().Add(-time.Second)) // every SAT call times out

	// Pigeonhole (6 pigeons, 5 holes): unsat, and hard enough that CDCL
	// reaches its first restart — where the expired deadline is checked —
	// before settling.
	var vars, cs []*expr.Expr
	for i := 0; i <= 5; i++ {
		vars = append(vars, b.Var(fmt.Sprintf("p%d", i), 8))
		cs = append(cs, b.Ult(vars[i], b.Const(5, 8)))
	}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			cs = append(cs, b.Not(b.Eq(vars[i], vars[j])))
		}
	}
	if _, _, err := s.CheckSat(cs); !errors.Is(err, ErrBudget) {
		t.Fatalf("expired deadline: err=%v, want ErrBudget", err)
	}
	if s.Stats.Timeouts != 1 {
		t.Fatalf("timeouts=%d, want 1", s.Stats.Timeouts)
	}
}

func TestModelReuse(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{EnableModelReuse: true})
	x := b.Var("x", 8)
	if ok, m, _ := s.CheckSat([]*expr.Expr{b.Eq(x, b.Const(9, 8))}); !ok || m[x] != 9 {
		t.Fatalf("setup query failed: %v", m)
	}
	calls := s.Stats.SATCalls
	// A weaker query satisfied by the remembered model {x:9}.
	ok, m, _ := s.CheckSat([]*expr.Expr{b.Ugt(x, b.Const(3, 8))})
	if !ok || m[x] != 9 {
		t.Fatalf("reuse query: ok=%v m=%v", ok, m)
	}
	if s.Stats.SATCalls != calls {
		t.Fatal("model reuse did not avoid a SAT call")
	}
}

func TestMustMayQueries(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	pc := []*expr.Expr{b.Ult(x, b.Const(10, 8))}
	cond := b.Ult(x, b.Const(20, 8))
	may, err := s.MayBeTrue(pc, cond)
	if err != nil || !may {
		t.Fatalf("x<10 ⊢ may(x<20): %v %v", may, err)
	}
	must, err := s.MustBeTrue(pc, b.Not(cond))
	if err != nil || !must {
		t.Fatalf("x<10 ⊢ must(x<20): %v %v", must, err)
	}
	cond2 := b.Ult(x, b.Const(5, 8))
	must, _ = s.MustBeTrue(pc, b.Not(cond2))
	if must {
		t.Fatal("x<10 ⊬ must(x<5)")
	}
}

func TestGetModel(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	m, err := s.GetModel([]*expr.Expr{b.Eq(x, b.Const(42, 8))})
	if err != nil || m == nil || m[x] != 42 {
		t.Fatalf("m=%v err=%v", m, err)
	}
	m, err = s.GetModel([]*expr.Expr{b.False()})
	if err != nil || m != nil {
		t.Fatalf("unsat model: m=%v err=%v", m, err)
	}
}

func TestWideWidths(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 32)
	// x * 2 == 10 has solutions 5 and 5+2^31.
	ok, m, err := s.CheckSat([]*expr.Expr{
		b.Eq(b.Mul(x, b.Const(2, 32)), b.Const(10, 32)),
		b.Ult(x, b.Const(100, 32)),
	})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m[x] != 5 {
		t.Fatalf("x=%d, want 5", m[x])
	}
}

func TestConcatExtractRoundTrip(t *testing.T) {
	b := expr.NewBuilder()
	s := newTestSolver()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	// x:y, the 16-bit concatenation, built by shift and or.
	cc := b.BOr(b.Shl(b.ZExt(x, 16), b.Const(8, 16)), b.ZExt(y, 16))
	ok, m, err := s.CheckSat([]*expr.Expr{
		b.Eq(cc, b.Const(0xab12, 16)),
	})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m[x] != 0xab || m[y] != 0x12 {
		t.Fatalf("x=%#x y=%#x", m[x], m[y])
	}
}

// randomBoolExpr builds a random boolean expression over 4-bit variables.
func randomBoolExpr(b *expr.Builder, rng *rand.Rand, vars []*expr.Expr, depth int) *expr.Expr {
	mkBV := func(d int) *expr.Expr {
		var f func(d int) *expr.Expr
		f = func(d int) *expr.Expr {
			if d == 0 || rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 && len(vars) > 0 {
					return vars[rng.Intn(len(vars))]
				}
				return b.Const(uint64(rng.Intn(16)), 4)
			}
			l, r := f(d-1), f(d-1)
			switch rng.Intn(10) {
			case 0:
				return b.Add(l, r)
			case 1:
				return b.Sub(l, r)
			case 2:
				return b.Mul(l, r)
			case 3:
				return b.BAnd(l, r)
			case 4:
				return b.BOr(l, r)
			case 5:
				return b.BXor(l, r)
			case 6:
				return b.UDiv(l, r)
			case 7:
				return b.URem(l, r)
			case 8:
				return b.Shl(l, r)
			default:
				return b.LShr(l, r)
			}
		}
		return f(d)
	}
	var f func(d int) *expr.Expr
	f = func(d int) *expr.Expr {
		if d == 0 {
			return b.Bool(rng.Intn(2) == 0)
		}
		switch rng.Intn(8) {
		case 0:
			return b.Eq(mkBV(d-1), mkBV(d-1))
		case 1:
			return b.Ult(mkBV(d-1), mkBV(d-1))
		case 2:
			return b.Slt(mkBV(d-1), mkBV(d-1))
		case 3:
			return b.Sle(mkBV(d-1), mkBV(d-1))
		case 4:
			return b.And(f(d-1), f(d-1))
		case 5:
			return b.Or(f(d-1), f(d-1))
		case 6:
			return b.Not(f(d - 1))
		default:
			return b.Ite(f(d-1), f(d-1), f(d-1))
		}
	}
	return f(depth)
}

// TestEqualitySubstitution checks queries whose conjuncts pin variables
// to constants: the verdicts, and models that report every pinned
// variable.
func TestEqualitySubstitution(t *testing.T) {
	b := expr.NewBuilder()
	s := New(DefaultOptions())
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	// x = 5 pins x, so y > x means y > 5.
	ok, m, err := s.CheckSat([]*expr.Expr{
		b.Eq(x, b.Const(5, 8)),
		b.Ugt(y, x),
	})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// The model must report the pinned variable.
	if m[x] != 5 {
		t.Fatalf("model x=%d, want 5", m[x])
	}
	if m[y] <= 5 {
		t.Fatalf("model y=%d violates y > 5", m[y])
	}
	// Contradictory pins must be unsat.
	ok, _, _ = s.CheckSat([]*expr.Expr{
		b.Eq(x, b.Const(5, 8)),
		b.Eq(x, b.Const(6, 8)),
	})
	if ok {
		t.Fatal("x=5 ∧ x=6 reported sat")
	}
	// Boolean pin via bare conjunct.
	c := b.Var("c", 0)
	ok, m, _ = s.CheckSat([]*expr.Expr{c, b.Ite(c, b.Eq(y, b.Const(1, 8)), b.False())})
	if !ok || m[c] != 1 || m[y] != 1 {
		t.Fatalf("bool pin: ok=%v m=%v", ok, m)
	}
}

func TestRecentModelAliasing(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{EnableModelReuse: true})
	x := b.Var("x", 8)
	if ok, _, _ := s.CheckSat([]*expr.Expr{b.Eq(x, b.Const(9, 8))}); !ok {
		t.Fatal("setup query unsat")
	}
	// Reuse hit hands out a model; mutate it.
	ok, m, _ := s.CheckSat([]*expr.Expr{b.Ugt(x, b.Const(3, 8))})
	if !ok || m[x] != 9 {
		t.Fatalf("reuse: ok=%v m=%v", ok, m)
	}
	m[x] = 0 // would violate x > 3 if retained by the ring
	ok, m2, _ := s.CheckSat([]*expr.Expr{b.Ugt(x, b.Const(4, 8))})
	if !ok || m2[x] != 9 {
		t.Fatalf("ring corrupted by caller mutation: ok=%v m=%v", ok, m2)
	}
}

// TestRecentModelMemoResetOnRefill pins that refilling a ring slot drops
// the node values memoized under the model it evicts: a verdict cached for
// the old model must not answer for the new one.
func TestRecentModelMemoResetOnRefill(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{EnableModelReuse: true})
	x, y := b.Var("x", 8), b.Var("y", 8)
	gt3 := b.Ugt(x, b.Const(3, 8))
	if ok, _, _ := s.CheckSat([]*expr.Expr{b.Eq(x, b.Const(9, 8))}); !ok {
		t.Fatal("setup query unsat")
	}
	// Slot 0 holds x=9 and now memoizes x>3 as true.
	if ok, _, _ := s.CheckSat([]*expr.Expr{gt3}); !ok || s.Stats.ModelReuseHits != 1 {
		t.Fatalf("x>3 not answered by slot 0: ok=%v hits=%d", ok, s.Stats.ModelReuseHits)
	}
	// Eight sat queries no ring model satisfies wrap the ring, leaving
	// slot 0 (refilled last) with x=0.
	zero := b.Eq(x, b.Const(0, 8))
	for i := range len(s.recentModels) {
		if ok, _, _ := s.CheckSat([]*expr.Expr{zero, b.Eq(y, b.Const(uint64(i), 8))}); !ok {
			t.Fatalf("refill %d unsat", i)
		}
	}
	if s.Stats.ModelReuseHits != 1 || s.recentNext != 1 {
		t.Fatalf("refills were not SAT answers: hits=%d next=%d",
			s.Stats.ModelReuseHits, s.recentNext)
	}
	if got := Model(s.recentModels[0].Env)[x]; got != 0 {
		t.Fatalf("slot 0 not refilled: x=%d", got)
	}
	ok, m, err := s.CheckSat([]*expr.Expr{gt3})
	if err != nil || !ok {
		t.Fatalf("x>3: ok=%v err=%v", ok, err)
	}
	if s.Stats.ModelReuseHits != 1 {
		t.Fatalf("x>3 answered from the ring after every slot got x=0 (model %v)", m)
	}
	if m[x] <= 3 {
		t.Fatalf("returned model violates x>3: %v", m)
	}
}

// refRing is the model-reuse layer without memoization: the same 8-slot
// ring scanned in slot order, each model checked by re-evaluating every
// conjunct from scratch.
type refRing struct {
	models [8]Model
	next   int
}

func (r *refRing) try(cs []*expr.Expr) Model {
	for _, m := range r.models {
		if m != nil && modelSatisfies(m, cs) {
			return m
		}
	}
	return nil
}

func (r *refRing) remember(m Model) {
	r.models[r.next] = cloneModel(m)
	r.next = (r.next + 1) % len(r.models)
}

// TestRecentModelsMatchReference drives the memoized ring and the reference
// scan through one random sequence of growing-path-condition queries over
// three 4-bit variables. Every query must agree on hit or miss, verdict,
// returned model, and the running ModelReuseHits count.
func TestRecentModelsMatchReference(t *testing.T) {
	b := expr.NewBuilder()
	rng := rand.New(rand.NewSource(13))
	x, y, z := b.Var("x", 4), b.Var("y", 4), b.Var("z", 4)
	gens := []*exprGen{{rng: rng, b: b, x: x, y: y}, {rng: rng, b: b, x: y, y: z}}
	cond := func() *expr.Expr {
		for {
			if c := gens[rng.Intn(len(gens))].cond(2); !c.IsConst() {
				return c
			}
		}
	}
	memo := New(Options{EnableModelReuse: true})
	plain := New(Options{})
	var ring refRing
	var refHits, satMisses uint64
	var pc []*expr.Expr
	for iter := 0; iter < 250; iter++ {
		q := append(slices.Clone(pc), cond())

		hits0 := memo.Stats.ModelReuseHits
		got, gotM, err := memo.CheckSat(q)
		if err != nil {
			t.Fatal(err)
		}
		gotHit := memo.Stats.ModelReuseHits != hits0

		var want, wantHit bool
		var wantM Model
		if m := ring.try(q); m != nil {
			want, wantM, wantHit = true, cloneModel(m), true
			refHits++
		} else {
			if want, wantM, err = plain.CheckSat(q); err != nil {
				t.Fatal(err)
			}
			if want {
				ring.remember(wantM)
				satMisses++
			}
		}

		if got != want || gotHit != wantHit || !maps.Equal(gotM, wantM) ||
			memo.Stats.ModelReuseHits != refHits {
			t.Fatalf("iter %d: memoized sat=%v hit=%v model=%v hits=%d; reference sat=%v hit=%v model=%v hits=%d",
				iter, got, gotHit, gotM, memo.Stats.ModelReuseHits, want, wantHit, wantM, refHits)
		}
		// Walk like an explorer: extend the path on a feasible branch,
		// backtrack to a shorter prefix now and then.
		switch {
		case want && rng.Intn(3) > 0:
			pc = q
		case rng.Intn(4) == 0:
			pc = pc[:rng.Intn(len(pc)+1)]
		}
	}
	if satMisses <= uint64(len(ring.models)) || refHits == 0 {
		t.Fatalf("sequence too tame: %d SAT-sat answers (ring never wrapped?), %d reuse hits",
			satMisses, refHits)
	}
}

// TestVerdictOnlyQuerySkipsModelCopy pins that a verdict-only query
// answered by a session solve hands the session's model to the recent-model
// ring without copying it: MayBeTrueIn makes one map fewer than CheckSatIn
// on the same query, whose caller keeps the model.
func TestVerdictOnlyQuerySkipsModelCopy(t *testing.T) {
	b := expr.NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	pc := []*expr.Expr{b.Ult(x, y)}
	cond := b.Eq(b.Add(x, y), b.Const(100, 8))
	query := []*expr.Expr{pc[0], cond}
	var m Model
	perQuery := func(ask func(s *Solver, sess *Session)) float64 {
		return testing.AllocsPerRun(20, func() {
			s := newTestSolver()
			ask(s, s.NewSession())
			if s.Stats.SATCalls != 1 {
				t.Fatalf("%d SAT calls, want the query answered by one session solve", s.Stats.SATCalls)
			}
		})
	}
	may := perQuery(func(s *Solver, sess *Session) {
		if ok, err := s.MayBeTrueIn(sess, pc, cond); !ok || err != nil {
			t.Fatalf("MayBeTrueIn: %v %v", ok, err)
		}
	})
	check := perQuery(func(s *Solver, sess *Session) {
		ok, model, err := s.CheckSatIn(sess, query)
		if !ok || err != nil {
			t.Fatalf("CheckSatIn: %v %v", ok, err)
		}
		m = model
	})
	copies := testing.AllocsPerRun(20, func() { _ = cloneModel(m) })
	if copies == 0 || check-may != copies {
		t.Errorf("MayBeTrueIn allocates %v objects and CheckSatIn %v; want the difference to be one model copy (%v)",
			may, check, copies)
	}
}
