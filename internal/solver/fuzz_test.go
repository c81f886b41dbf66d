package solver

// Randomized whole-pipeline fuzz: random expression trees over small
// bitvector variables are checked against brute-force enumeration of every
// assignment. This exercises arbitrary operator nestings that the pinned
// arithmetic tests cannot cover, end to end through the bit-blaster and the
// CDCL core, for both satisfiable and unsatisfiable instances.

import (
	"math/rand"
	"testing"

	"symmerge/internal/expr"
)

// exprGen builds random expression trees over two 4-bit variables.
type exprGen struct {
	rng  *rand.Rand
	b    *expr.Builder
	x, y *expr.Expr
}

func (g *exprGen) tree(depth int) *expr.Expr {
	if depth == 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return g.x
		case 1:
			return g.y
		default:
			return g.b.Const(uint64(g.rng.Intn(16)), 4)
		}
	}
	l := g.tree(depth - 1)
	r := g.tree(depth - 1)
	switch g.rng.Intn(10) {
	case 0:
		return g.b.Add(l, r)
	case 1:
		return g.b.Sub(l, r)
	case 2:
		return g.b.Mul(l, r)
	case 3:
		return g.b.BAnd(l, r)
	case 4:
		return g.b.BOr(l, r)
	case 5:
		return g.b.BXor(l, r)
	case 6:
		return g.b.UDiv(l, r)
	case 7:
		return g.b.URem(l, r)
	case 8:
		return g.b.Ite(g.cond(1), l, r)
	default:
		return g.b.BNot(l)
	}
}

func (g *exprGen) cond(depth int) *expr.Expr {
	l := g.tree(depth)
	r := g.tree(depth)
	switch g.rng.Intn(5) {
	case 0:
		return g.b.Eq(l, r)
	case 1:
		return g.b.Ne(l, r)
	case 2:
		return g.b.Ult(l, r)
	case 3:
		return g.b.Slt(l, r)
	default:
		return g.b.Ule(l, r)
	}
}

// TestFuzzRandomTreesAgainstBruteForce: for each random boolean condition,
// enumerate all 256 assignments of (x, y); the solver's verdict must match,
// and any model it returns must satisfy the condition under Eval.
func TestFuzzRandomTreesAgainstBruteForce(t *testing.T) {
	b := expr.NewBuilder()
	g := &exprGen{rng: rand.New(rand.NewSource(20120611)), b: b,
		x: b.Var("x", 4), y: b.Var("y", 4)}
	for _, opts := range []Options{{}, DefaultOptions()} {
		s := New(opts)
		sat, unsat := 0, 0
		for iter := 0; iter < 300; iter++ {
			cond := g.cond(3)
			want := false
			for xv := uint64(0); xv < 16 && !want; xv++ {
				for yv := uint64(0); yv < 16; yv++ {
					if expr.EvalBool(cond, expr.Env{g.x: xv, g.y: yv}) {
						want = true
						break
					}
				}
			}
			got, model, err := s.CheckSat([]*expr.Expr{cond})
			if err != nil {
				t.Fatalf("iter %d: solver error: %v", iter, err)
			}
			if got != want {
				t.Fatalf("iter %d: solver says sat=%v, brute force says %v for %s",
					iter, got, want, cond)
			}
			if got {
				sat++
				if !expr.EvalBool(cond, expr.Env(model)) {
					t.Fatalf("iter %d: model %v does not satisfy %s", iter, model, cond)
				}
			} else {
				unsat++
			}
		}
		// The generator must exercise both outcomes to mean anything
		// (random conditions are mostly satisfiable, so a handful of
		// unsat instances is expected and sufficient).
		if sat < 30 || unsat < 10 {
			t.Fatalf("lopsided fuzz: %d sat, %d unsat", sat, unsat)
		}
	}
}

// TestFuzzConjunctionsAgainstBruteForce stresses multi-conjunct instances —
// the shape of real path conditions, whose conjuncts share variables.
func TestFuzzConjunctionsAgainstBruteForce(t *testing.T) {
	b := expr.NewBuilder()
	g := &exprGen{rng: rand.New(rand.NewSource(42)), b: b,
		x: b.Var("x", 4), y: b.Var("y", 4)}
	s := New(DefaultOptions())
	for iter := 0; iter < 150; iter++ {
		n := 1 + g.rng.Intn(4)
		cs := make([]*expr.Expr, n)
		for i := range cs {
			cs[i] = g.cond(2)
		}
		want := false
		for xv := uint64(0); xv < 16 && !want; xv++ {
			for yv := uint64(0); yv < 16; yv++ {
				env := expr.Env{g.x: xv, g.y: yv}
				all := true
				for _, c := range cs {
					if !expr.EvalBool(c, env) {
						all = false
						break
					}
				}
				if all {
					want = true
					break
				}
			}
		}
		got, model, err := s.CheckSat(cs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got != want {
			t.Fatalf("iter %d: sat=%v, brute force %v", iter, got, want)
		}
		if got {
			env := expr.Env(model)
			for ci, c := range cs {
				if !expr.EvalBool(c, env) {
					t.Fatalf("iter %d: model violates conjunct %d: %s", iter, ci, c)
				}
			}
		}
	}
}

// TestDeepSharedDAGSubstitution is a regression test: a query over a pinned
// variable must walk hash-consed expressions as DAGs, not trees. The
// constraint below has ~60 levels of maximal sharing (each level references
// the previous one twice); an unmemoized walk would take 2^60 steps.
func TestDeepSharedDAGSubstitution(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	e := b.Add(x, y)
	for i := 0; i < 60; i++ {
		e = b.Add(b.Mul(e, e), b.Const(uint64(i+1), 32))
	}
	s := New(DefaultOptions())
	cs := []*expr.Expr{
		b.Eq(x, b.Const(3, 32)),
		b.Eq(b.BAnd(e, b.Const(0, 32)), b.Const(0, 32)), // trivially true, keeps e alive
	}
	ok, _, err := s.CheckSat(cs)
	if err != nil || !ok {
		t.Fatalf("deep DAG query: ok=%v err=%v", ok, err)
	}
}

// TestFuzzOptimizedMatchesPlain: model reuse is a pure optimization — on
// an identical query stream, verdicts must match a plain solver's exactly.
func TestFuzzOptimizedMatchesPlain(t *testing.T) {
	b := expr.NewBuilder()
	g := &exprGen{rng: rand.New(rand.NewSource(7)), b: b,
		x: b.Var("x", 4), y: b.Var("y", 4)}
	plain := New(Options{})
	opt := New(DefaultOptions())
	// Repeats and supersets make model reuse actually fire.
	var history []*expr.Expr
	for iter := 0; iter < 200; iter++ {
		var cs []*expr.Expr
		if len(history) > 0 && g.rng.Intn(2) == 0 {
			cs = append(cs, history[g.rng.Intn(len(history))])
		}
		c := g.cond(2)
		history = append(history, c)
		cs = append(cs, c)
		ok1, _, err1 := plain.CheckSat(cs)
		ok2, _, err2 := opt.CheckSat(cs)
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: errors %v / %v", iter, err1, err2)
		}
		if ok1 != ok2 {
			t.Fatalf("iter %d: plain=%v optimized=%v for %v", iter, ok1, ok2, cs)
		}
	}
}
