package expr

// FuzzSimplify drives the rewrite table with fuzzer-shaped expressions: the
// input bytes program a small stack machine that builds boolean and
// bitvector terms through the Builder, and the properties checked are the
// layer's core contracts — constructor output is canonical (Simplify is the
// identity on it), and n-ary invariants hold structurally on every
// reachable node.

import (
	"testing"
)

// buildFuzzExprs interprets data as constructions over two 8-bit variables
// and one boolean variable, returning the boolean terms left on the stack.
func buildFuzzExprs(b *Builder, data []byte) (bools []*Expr, x, y, p *Expr) {
	x = b.Var("x", 8)
	y = b.Var("y", 8)
	p = b.Var("p", 0)
	bvs := []*Expr{x, y}
	bools = []*Expr{p}
	popBV := func(i int) *Expr { return bvs[int(i)%len(bvs)] }
	popB := func(i int) *Expr { return bools[int(i)%len(bools)] }
	const maxTerms = 64 // bound fuzz-driven growth
	for i := 0; i+2 < len(data) && len(bvs)+len(bools) < maxTerms; i += 3 {
		op, a1, a2 := data[i], int(data[i+1]), int(data[i+2])
		switch op % 14 {
		case 0:
			bvs = append(bvs, b.Add(popBV(a1), popBV(a2)))
		case 1:
			bvs = append(bvs, b.Sub(popBV(a1), popBV(a2)))
		case 2:
			bvs = append(bvs, b.Mul(popBV(a1), popBV(a2)))
		case 3:
			bvs = append(bvs, b.BAnd(popBV(a1), popBV(a2)))
		case 4:
			bvs = append(bvs, b.BNot(popBV(a1)))
		case 5:
			bvs = append(bvs, b.Const(uint64(a1)|uint64(a2)<<8, 8))
		case 6:
			bvs = append(bvs, b.Ite(popB(a1), popBV(a2), popBV(a1)))
		case 7:
			bools = append(bools, b.Eq(popBV(a1), popBV(a2)))
		case 8:
			bools = append(bools, b.Ult(popBV(a1), popBV(a2)))
		case 9:
			bools = append(bools, b.Slt(popBV(a1), popBV(a2)))
		case 10:
			bools = append(bools, b.And(popB(a1), popB(a2)))
		case 11:
			bools = append(bools, b.Or(popB(a1), popB(a2)))
		case 12:
			bools = append(bools, b.Not(popB(a1)))
		default:
			bools = append(bools, b.AndN([]*Expr{popB(a1), popB(a2), popB(a1 + a2)}))
		}
	}
	return bools, x, y, p
}

// checkNaryInvariants walks a term and fails on any node violating the
// canonical n-ary form (flattened, ID-sorted, duplicate-free, ≥ 2 kids).
func checkNaryInvariants(t *testing.T, e *Expr, seen map[*Expr]bool) {
	t.Helper()
	if seen[e] {
		return
	}
	seen[e] = true
	if e.Kind == KAnd || e.Kind == KOr {
		if len(e.Kids) < 2 {
			t.Fatalf("n-ary node with %d kids: %s", len(e.Kids), e)
		}
		for i, k := range e.Kids {
			if k.Kind == e.Kind {
				t.Fatalf("unflattened nested %v: %s", e.Kind, e)
			}
			if i > 0 && e.Kids[i-1].ID() >= k.ID() {
				t.Fatalf("kids not strictly ID-sorted: %s", e)
			}
		}
	}
	for _, k := range e.Kids {
		checkNaryInvariants(t, k, seen)
	}
}

func FuzzSimplify(f *testing.F) {
	f.Add([]byte{7, 0, 1, 10, 0, 1, 11, 1, 2, 13, 0, 2})
	f.Add([]byte{8, 1, 0, 12, 1, 0, 10, 1, 2, 11, 2, 3})
	f.Add([]byte{0, 0, 1, 2, 2, 2, 7, 2, 0, 13, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder()
		bools, _, _, _ := buildFuzzExprs(b, data)

		seen := map[*Expr]bool{}
		for _, e := range bools {
			checkNaryInvariants(t, e, seen)
			// Constructor output is already canonical: Simplify must be
			// the identity on it (idempotence).
			s := b.Simplify(e)
			if s != e {
				t.Fatalf("Simplify not idempotent on constructor output: %s -> %s", e, s)
			}
		}
	})
}
