package expr

// Property-based tests with testing/quick: builder construction over
// symbolic variables must agree with direct Go arithmetic under Eval for
// arbitrary inputs, and structural invariants of hash-consing must hold.

import (
	"testing"
	"testing/quick"
)

var quickCfg = &quick.Config{MaxCount: 2000}

func TestQuickArithmeticAgreesWithGo(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	f := func(xv, yv uint32) bool {
		env := Env{x: uint64(xv), y: uint64(yv)}
		checks := []struct {
			e    *Expr
			want uint64
		}{
			{b.Add(x, y), uint64(xv + yv)},
			{b.Sub(x, y), uint64(xv - yv)},
			{b.Mul(x, y), uint64(xv * yv)},
			{b.BAnd(x, y), uint64(xv & yv)},
			{b.BOr(x, y), uint64(xv | yv)},
			{b.BXor(x, y), uint64(xv ^ yv)},
			{b.BNot(x), uint64(^xv)},
			{b.Neg(x), uint64(-xv)},
		}
		for _, c := range checks {
			if Eval(c.e, env) != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickComparisonsAgreeWithGo(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	f := func(xv, yv uint32) bool {
		env := Env{x: uint64(xv), y: uint64(yv)}
		if EvalBool(b.Ult(x, y), env) != (xv < yv) {
			return false
		}
		if EvalBool(b.Ule(x, y), env) != (xv <= yv) {
			return false
		}
		if EvalBool(b.Slt(x, y), env) != (int32(xv) < int32(yv)) {
			return false
		}
		if EvalBool(b.Sle(x, y), env) != (int32(xv) <= int32(yv)) {
			return false
		}
		if EvalBool(b.Eq(x, y), env) != (xv == yv) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDivisionAgreesWithGo(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 16)
	y := b.Var("y", 16)
	f := func(xv, yv uint16) bool {
		env := Env{x: uint64(xv), y: uint64(yv)}
		var wantDiv, wantRem uint64
		if yv == 0 {
			wantDiv, wantRem = 0xffff, uint64(xv) // SMT-LIB semantics
		} else {
			wantDiv, wantRem = uint64(xv/yv), uint64(xv%yv)
		}
		return Eval(b.UDiv(x, y), env) == wantDiv &&
			Eval(b.URem(x, y), env) == wantRem
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShiftsAgreeWithGo(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	s := b.Var("s", 32)
	f := func(xv uint32, sv uint8) bool {
		shift := uint64(sv % 40) // cover both in-range and saturating
		env := Env{x: uint64(xv), s: shift}
		var wantShl, wantLshr, wantAshr uint64
		if shift >= 32 {
			wantShl, wantLshr = 0, 0
			wantAshr = uint64(uint32(int32(xv) >> 31))
		} else {
			wantShl = uint64(xv << shift)
			wantLshr = uint64(xv >> shift)
			wantAshr = uint64(uint32(int32(xv) >> shift))
		}
		return Eval(b.Shl(x, s), env) == wantShl &&
			Eval(b.LShr(x, s), env) == wantLshr &&
			Eval(b.AShr(x, s), env) == wantAshr
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConstFoldMatchesEval(t *testing.T) {
	// Folding a constant expression must equal evaluating the same
	// structure built over variables.
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	f := func(xv, yv uint8) bool {
		sym := b.Mul(b.Add(x, y), b.Sub(x, y))
		folded := b.Mul(b.Add(b.Const(uint64(xv), 8), b.Const(uint64(yv), 8)),
			b.Sub(b.Const(uint64(xv), 8), b.Const(uint64(yv), 8)))
		if !folded.IsConst() {
			return false
		}
		return Eval(sym, Env{x: uint64(xv), y: uint64(yv)}) == folded.Val
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHashConsingIdempotent(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 16)
	f := func(v uint16) bool {
		c := b.Const(uint64(v), 16)
		e1 := b.Add(x, c)
		e2 := b.Add(x, c)
		e3 := b.Add(c, x) // commutative canonical form
		return e1 == e2 && e1 == e3
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIteSelectsArm(t *testing.T) {
	b := NewBuilder()
	c := b.Var("c", 0)
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	f := func(cond bool, xv, yv uint32) bool {
		e := b.Ite(c, x, y)
		env := Env{x: uint64(xv), y: uint64(yv)}
		if cond {
			env[c] = 1
		}
		want := uint64(yv)
		if cond {
			want = uint64(xv)
		}
		return Eval(e, env) == want
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSimplifyAgreesWithEval: Simplify (the whole rewrite table,
// re-run bottom-up) must agree with the eval.go reference semantics on
// n-ary connective compositions under arbitrary assignments, and must be
// idempotent on constructor-built terms.
func TestQuickSimplifyAgreesWithEval(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	p := b.Var("p", 0)
	f := func(xv, yv uint32, pv bool, c uint32) bool {
		env := Env{x: uint64(xv), y: uint64(yv)}
		if pv {
			env[p] = 1
		}
		lim := b.Const(uint64(c), 32)
		parts := []*Expr{
			b.Ult(x, lim),
			b.Or(p, b.Eq(x, y)),
			b.Not(b.And(p, b.Ule(y, lim))),
		}
		and := b.AndN(parts)
		or := b.OrN(parts)
		wantAnd, wantOr := true, false
		for _, pt := range parts {
			v := EvalBool(pt, env)
			wantAnd = wantAnd && v
			wantOr = wantOr || v
		}
		return EvalBool(and, env) == wantAnd &&
			EvalBool(or, env) == wantOr &&
			b.Simplify(and) == and && b.Simplify(or) == or
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExtractConcatRoundTrip(t *testing.T) {
	b := NewBuilder()
	f := func(hi, lo uint8) bool {
		cc := b.Const(uint64(hi)<<8|uint64(lo), 16) // hi:lo
		return b.Extract(cc, 8, 8).Val == uint64(hi) &&
			b.Extract(cc, 0, 8).Val == uint64(lo)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
