package expr

// Tests for the rewrite layer: canonical n-ary connective construction,
// the structural rules (flatten, dedupe, complement, absorption,
// factoring), per-rule hit counters, and Simplify.

import (
	"math/rand"
	"testing"
)

func TestNaryFlattenSortDedupe(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 0)
	q := b.Var("q", 0)
	r := b.Var("r", 0)

	nested := b.And(p, b.And(q, r))
	if nested.Kind != KAnd || len(nested.Kids) != 3 {
		t.Fatalf("nested And did not flatten: %s", nested)
	}
	for i := 1; i < len(nested.Kids); i++ {
		if nested.Kids[i-1].ID() >= nested.Kids[i].ID() {
			t.Fatalf("kids not ID-sorted: %s", nested)
		}
	}
	// Any association and order interns to the same node.
	if got := b.And(b.And(r, p), q); got != nested {
		t.Fatalf("association changed identity: %s vs %s", got, nested)
	}
	if got := b.AndN([]*Expr{r, q, p, q, r}); got != nested {
		t.Fatalf("duplicates not eliminated: %s", got)
	}
	// Dual for Or.
	orN := b.OrN([]*Expr{p, q, r})
	if orN.Kind != KOr || len(orN.Kids) != 3 {
		t.Fatalf("OrN shape: %s", orN)
	}
	if got := b.Or(q, b.Or(r, p)); got != orN {
		t.Fatalf("Or association changed identity: %s vs %s", got, orN)
	}
}

func TestNaryUnitsAndZeros(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 0)
	q := b.Var("q", 0)
	if got := b.AndN([]*Expr{p, b.True(), q}); got != b.And(p, q) {
		t.Fatalf("true conjunct not dropped: %s", got)
	}
	if got := b.AndN([]*Expr{p, b.False(), q}); !got.IsFalse() {
		t.Fatalf("false conjunct did not annihilate: %s", got)
	}
	if got := b.OrN([]*Expr{p, b.False(), q}); got != b.Or(p, q) {
		t.Fatalf("false disjunct not dropped: %s", got)
	}
	if got := b.OrN([]*Expr{p, b.True(), q}); !got.IsTrue() {
		t.Fatalf("true disjunct did not annihilate: %s", got)
	}
	if got := b.AndN(nil); !got.IsTrue() {
		t.Fatalf("empty conjunction = %s, want true", got)
	}
	if got := b.OrN(nil); !got.IsFalse() {
		t.Fatalf("empty disjunction = %s, want false", got)
	}
	if got := b.AndN([]*Expr{p}); got != p {
		t.Fatalf("singleton conjunction = %s, want p", got)
	}
}

func TestNaryComplement(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 0)
	q := b.Var("q", 0)
	r := b.Var("r", 0)
	if got := b.AndN([]*Expr{p, q, b.Not(q), r}); !got.IsFalse() {
		t.Fatalf("x ∧ ¬x inside n-ary set = %s, want false", got)
	}
	if got := b.OrN([]*Expr{p, q, b.Not(q), r}); !got.IsTrue() {
		t.Fatalf("x ∨ ¬x inside n-ary set = %s, want true", got)
	}
	// Complement arriving via flattening of two disjoint sets.
	left := b.And(p, q)
	right := b.And(r, b.Not(q))
	if got := b.And(left, right); !got.IsFalse() {
		t.Fatalf("complement across flattened sets = %s, want false", got)
	}
}

func TestNaryAbsorption(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 0)
	q := b.Var("q", 0)
	r := b.Var("r", 0)
	if got := b.And(p, b.Or(p, q)); got != p {
		t.Fatalf("p ∧ (p∨q) = %s, want p", got)
	}
	if got := b.Or(p, b.And(p, q)); got != p {
		t.Fatalf("p ∨ (p∧q) = %s, want p", got)
	}
	// Absorption inside a wider set keeps the rest.
	got := b.AndN([]*Expr{p, r, b.Or(q, p)})
	if got != b.And(p, r) {
		t.Fatalf("absorption in wider set = %s, want (and p r)", got)
	}
}

func TestOrFactoring(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 0)
	q := b.Var("q", 0)
	r := b.Var("r", 0)
	s := b.Var("s", 0)

	// (p∧q) ∨ (p∧r) → p ∧ (q∨r): the merged-guard shape.
	got := b.Or(b.And(p, q), b.And(p, r))
	want := b.And(p, b.Or(q, r))
	if got != want {
		t.Fatalf("factoring: got %s, want %s", got, want)
	}
	// Multi-conjunct common prefix over three disjuncts.
	got = b.OrN([]*Expr{
		b.AndN([]*Expr{p, q, r}),
		b.AndN([]*Expr{p, q, s}),
		b.AndN([]*Expr{p, q, b.Not(s)}),
	})
	// r ∨ s ∨ ¬s → true, so the whole thing is p ∧ q.
	if got != b.And(p, q) {
		t.Fatalf("multi-way factoring: got %s, want (and p q)", got)
	}
	// No factoring without a shared conjunct.
	got = b.Or(b.And(p, q), b.And(r, s))
	if got.Kind != KOr {
		t.Fatalf("unexpected factoring of disjoint conjunctions: %s", got)
	}
}

// TestRuleHitCounters fires every rule once: each row builds its expected
// node, then a term the named rule rewrites, and checks that the rule's
// counter rose and that the term came out as the expected node. The rows
// name every rule, and RuleHits names nothing else.
func TestRuleHitCounters(t *testing.T) {
	b := NewBuilder()
	p, q, r := b.Var("p", 0), b.Var("q", 0), b.Var("r", 0)
	c := b.Var("c", 0)
	x, y, z := b.Var("x", 8), b.Var("y", 8), b.Var("z", 8)
	zero := b.Const(0, 8)
	rows := []struct {
		rule string
		want func() *Expr
		fire func() *Expr
	}{
		{"not/involution", func() *Expr { return p }, func() *Expr { return b.Not(b.Not(p)) }},

		{"and/flatten", func() *Expr { return b.AndN([]*Expr{p, q, r}) }, func() *Expr { return b.And(p, b.And(q, r)) }},
		{"and/unit", func() *Expr { return b.And(p, q) }, func() *Expr { return b.AndN([]*Expr{p, b.True(), q}) }},
		{"and/zero", b.False, func() *Expr { return b.And(p, b.False()) }},
		{"and/dup", func() *Expr { return p }, func() *Expr { return b.And(p, p) }},
		{"and/complement", b.False, func() *Expr { return b.And(p, b.Not(p)) }},
		{"and/absorb", func() *Expr { return p }, func() *Expr { return b.And(p, b.Or(p, q)) }},

		{"or/flatten", func() *Expr { return b.OrN([]*Expr{p, q, r}) }, func() *Expr { return b.Or(p, b.Or(q, r)) }},
		{"or/unit", func() *Expr { return b.Or(p, q) }, func() *Expr { return b.OrN([]*Expr{p, b.False(), q}) }},
		{"or/one", b.True, func() *Expr { return b.Or(p, b.True()) }},
		{"or/dup", func() *Expr { return p }, func() *Expr { return b.Or(p, p) }},
		{"or/complement", b.True, func() *Expr { return b.Or(p, b.Not(p)) }},
		{"or/absorb", func() *Expr { return p }, func() *Expr { return b.Or(p, b.And(p, q)) }},
		{"or/factor", func() *Expr { return b.And(p, b.Or(q, r)) }, func() *Expr { return b.Or(b.And(p, q), b.And(p, r)) }},

		{"add/zero", func() *Expr { return x }, func() *Expr { return b.Add(zero, x) }},
		{"sub/zero", func() *Expr { return x }, func() *Expr { return b.Sub(x, zero) }},
		{"sub/self", func() *Expr { return zero }, func() *Expr { return b.Sub(x, x) }},

		{"extract/ext", func() *Expr { return x }, func() *Expr { return b.Extract(b.ZExt(x, 16), 0, 8) }},

		{"ite/same-arms", func() *Expr { return x }, func() *Expr { return b.Ite(c, x, x) }},
		{"ite/not-cond", func() *Expr { return b.Ite(c, y, x) }, func() *Expr { return b.Ite(b.Not(c), x, y) }},
		{"ite/bool-lower", func() *Expr { return b.Or(c, p) }, func() *Expr { return b.Ite(c, b.True(), p) }},
		{"ite/nested", func() *Expr { return b.Ite(c, x, y) }, func() *Expr { return b.Ite(c, b.Ite(c, x, z), y) }},
	}
	hits := func() map[string]uint64 {
		m := map[string]uint64{}
		for _, h := range b.RuleHits() {
			m[h.Name] = h.Hits
		}
		return m
	}
	named := map[string]bool{}
	for _, row := range rows {
		named[row.rule] = true
		want := row.want()
		before := hits()[row.rule]
		got := row.fire()
		if after := hits()[row.rule]; after <= before {
			t.Errorf("%s: counter %d -> %d, want a hit", row.rule, before, after)
		}
		if got != want {
			t.Errorf("%s: got %s, want %s", row.rule, got, want)
		}
	}
	if len(named) != len(rows) || len(rows) != numRules {
		t.Fatalf("%d rows name %d distinct rules; the builder has %d", len(rows), len(named), numRules)
	}
	all := b.RuleHits()
	if len(all) != numRules {
		t.Errorf("RuleHits lists %d rules after every rule fired, want %d", len(all), numRules)
	}
	for _, h := range all {
		if !named[h.Name] {
			t.Errorf("RuleHits names %q, which no row fires", h.Name)
		}
	}
}

func TestSimplifyIdempotentOnBuilderOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	vars := []*Expr{x, y}
	for iter := 0; iter < 500; iter++ {
		e := randomBool(b, rng, vars, 4)
		if s := b.Simplify(e); s != e {
			t.Fatalf("iter %d: Simplify changed constructor output: %s -> %s", iter, e, s)
		}
	}
}

// TestNaryStringPrinting pins the debug printer on n-ary nodes.
func TestNaryStringPrinting(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 0)
	q := b.Var("q", 0)
	r := b.Var("r", 0)
	if got := b.AndN([]*Expr{p, q, r}).String(); got != "(and p q r)" {
		t.Fatalf("String() = %q, want (and p q r)", got)
	}
}

// TestQuickNaryAgreesWithEval is the n-ary construction property test: a
// conjunction/disjunction built through any mix of binary and n-ary calls
// must evaluate exactly like the naive fold over its inputs.
func TestQuickNaryAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	vars := []*Expr{x, y}
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.Intn(5)
		parts := make([]*Expr, n)
		for i := range parts {
			parts[i] = randomBool(b, rng, vars, 3)
		}
		and := b.AndN(parts)
		or := b.OrN(parts)
		for xv := uint64(0); xv < 16; xv++ {
			for yv := uint64(0); yv < 16; yv++ {
				env := Env{x: xv, y: yv}
				wantAnd, wantOr := true, false
				for _, pt := range parts {
					v := EvalBool(pt, env)
					wantAnd = wantAnd && v
					wantOr = wantOr || v
				}
				if EvalBool(and, env) != wantAnd {
					t.Fatalf("iter %d: AndN disagrees with fold at x=%d y=%d: %s", iter, xv, yv, and)
				}
				if EvalBool(or, env) != wantOr {
					t.Fatalf("iter %d: OrN disagrees with fold at x=%d y=%d: %s", iter, xv, yv, or)
				}
			}
		}
	}
}
