package solver

import (
	"testing"

	"symmerge/internal/expr"
	"symmerge/internal/solver/sat"
)

// TestBlastArithExhaustive checks every arithmetic operator and comparison
// at width 4, over all 256 operand pairs, against the reference evaluator.
// Each pair is tried in three shapes: both operands symbolic, the right
// operand constant, and the left operand constant. The symbolic operands
// are pinned by equalities, and the solver has no builder attached, so
// nothing substitutes the pins into the expression: the blasted adder,
// multiplier, divider or comparator itself must produce the value. The
// constant-divisor shapes cover divisor 0, the powers of two, INT_MIN's
// magnitude, and divisors that fill the width.
func TestBlastArithExhaustive(t *testing.T) {
	const w = 4
	b := expr.NewBuilder()
	x, y := b.Var("x", w), b.Var("y", w)
	type binop struct {
		name string
		mk   func(l, r *expr.Expr) *expr.Expr
	}
	arith := []binop{
		{"add", b.Add}, {"sub", b.Sub}, {"mul", b.Mul},
		{"udiv", b.UDiv}, {"urem", b.URem}, {"sdiv", b.SDiv}, {"srem", b.SRem},
	}
	cmps := []binop{
		{"ult", b.Ult}, {"ule", b.Ule}, {"slt", b.Slt}, {"sle", b.Sle}, {"eq", b.Eq},
	}
	s := New(Options{})
	isSat := func(cs ...*expr.Expr) bool {
		t.Helper()
		ok, _, err := s.CheckSat(cs)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	for xv := uint64(0); xv < 1<<w; xv++ {
		for yv := uint64(0); yv < 1<<w; yv++ {
			env := expr.Env{x: xv, y: yv}
			pinX, pinY := b.Eq(x, b.Const(xv, w)), b.Eq(y, b.Const(yv, w))
			shapes := []struct {
				name string
				l, r *expr.Expr
				pin  *expr.Expr
			}{
				{"x,y", x, y, b.And(pinX, pinY)},
				{"x,const", x, b.Const(yv, w), pinX},
				{"const,y", b.Const(xv, w), y, pinY},
			}
			for _, sh := range shapes {
				for _, op := range arith {
					e := op.mk(sh.l, sh.r)
					want := b.Const(expr.Eval(op.mk(x, y), env), w)
					// The circuit must admit the reference value and no other.
					if !isSat(sh.pin, b.Eq(e, want)) || isSat(sh.pin, b.Ne(e, want)) {
						t.Fatalf("%s(%s) x=%d y=%d: blasted value is not %d",
							op.name, sh.name, xv, yv, want.Val)
					}
				}
				for _, op := range cmps {
					c := op.mk(sh.l, sh.r)
					want := expr.EvalBool(op.mk(x, y), env)
					if isSat(sh.pin, c) != want || isSat(sh.pin, b.Not(c)) == want {
						t.Fatalf("%s(%s) x=%d y=%d: blasted verdict is not %v",
							op.name, sh.name, xv, yv, want)
					}
				}
			}
		}
	}
}

// gateVars blasts the inputs, then asserts c, through a fresh blaster and
// returns the variables c's circuit allocated: its gates, not the input
// bits or the constant-true variable.
func gateVars(c *expr.Expr, inputs ...*expr.Expr) int {
	s := sat.New()
	bl := newBlaster(s)
	for _, v := range inputs {
		bl.blastBV(v)
	}
	before := s.NumVars()
	bl.assertTrue(c)
	return s.NumVars() - before
}

// TestBlastEncodingSize pins upper bounds on the gates of constraints whose
// circuits are sized to their operands: dividers to a constant divisor,
// comparators to their borrow chain, equalities to one n-ary AND.
func TestBlastEncodingSize(t *testing.T) {
	b := expr.NewBuilder()
	x, y, c := b.Var("x", 32), b.Var("y", 32), b.Var("c", 8)
	k := func(v uint64) *expr.Expr { return b.Const(v, 32) }
	zero := k(0)
	for _, tc := range []struct {
		name string
		e    *expr.Expr
		max  int
	}{
		// A power-of-two divisor is wiring: the only gate is the
		// equality's AND.
		{"x urem 32 == 0", b.Eq(b.URem(x, k(32)), zero), 1},
		{"x udiv 32 == 0", b.Eq(b.UDiv(x, k(32)), zero), 1},
		// A tenth of the 6,467 gates of a full-width divider.
		{"x srem 7 == 0", b.Eq(b.SRem(x, k(7)), zero), 646},
		{"x urem y == 0", b.Eq(b.URem(x, y), zero), 4067},
		{"x <u y", b.Ult(x, y), 32},
		{"c == 'a'", b.Eq(c, b.Const('a', 8)), 1},
		{"c <u 100", b.Ult(c, b.Const(100, 8)), 5},
	} {
		if got := gateVars(tc.e, x, y, c); got > tc.max {
			t.Errorf("%s: %d gate variables, want at most %d", tc.name, got, tc.max)
		}
	}
}
