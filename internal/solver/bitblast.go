// Package solver is the SMT layer of the symbolic execution engine: it
// decides satisfiability of conjunctions of boolean expr constraints over
// bitvectors by bit-blasting to CNF (Tseitin encoding) and running the CDCL
// solver from symmerge/internal/solver/sat.
//
// It plays the role STP plays for KLEE in the paper, with one fast path in
// front of SAT: model reuse, which re-evaluates recent models. Every query
// it does not answer is solved by a Session: incremental
// blast-once/assume-many solving over a shared path-condition prefix (see
// session.go).
package solver

import (
	"fmt"
	"math/bits"

	"symmerge/internal/expr"
	"symmerge/internal/solver/sat"
)

// blaster translates expressions to CNF over a sat.Solver. Booleans map to
// single literals; bitvectors map to literal slices, LSB first.
//
// Each node is blasted once: node maps it, by ID, to the offset of its
// literals in lits (one for a boolean, Width for a bitvector). An input
// variable's bits are its own entry. The tables hold one builder's nodes
// (expr.NodeMap); a session core that changes builders resets its blaster.
//
// It allocates every variable of its solver and records the circuit they
// form: the inputs of variable v are ins[insEnd[v-1]:insEnd[v]] (from 0 for
// v = 0). A gate's inputs are the variables it is a function of, an
// activation variable's input is the conjunct it guards, and input bits and
// the constant have none. Inputs always have lower indices than v. Each
// problem clause is owned by the gate it defines or the activation variable
// it guards, which is what lets a session solve only its query's cone (see
// sat.Solver.SolveCone).
type blaster struct {
	s    *sat.Solver
	node expr.NodeMap[int32]
	lits []sat.Lit

	ins    []int32
	insEnd []int32

	litTrue  sat.Lit
	litFalse sat.Lit
}

func newBlaster(s *sat.Solver) *blaster {
	b := &blaster{}
	b.reset(s)
	return b
}

// reset empties the blaster onto s, a fresh solver, keeping its tables'
// memory.
func (b *blaster) reset(s *sat.Solver) {
	b.s = s
	b.node.Clear()
	b.lits, b.ins, b.insEnd = b.lits[:0], b.ins[:0], b.insEnd[:0]
	b.litTrue = b.fresh()
	b.litFalse = b.litTrue.Flip()
	s.AddClause(b.litTrue)
}

// blasted returns e's literals, or nil when e was not blasted. The slice
// is capped, so a caller that appends to it copies.
func (b *blaster) blasted(e *expr.Expr) []sat.Lit {
	off, ok := b.node.Get(e)
	if !ok {
		return nil
	}
	end := off + int32(max(e.Width, 1))
	return b.lits[off:end:end]
}

// keep records ls as e's literals.
func (b *blaster) keep(e *expr.Expr, ls ...sat.Lit) {
	b.node.Put(e, int32(len(b.lits)))
	b.lits = append(b.lits, ls...)
}

func (b *blaster) constLit(v bool) sat.Lit {
	if v {
		return b.litTrue
	}
	return b.litFalse
}

// fresh allocates a variable with no inputs: an input bit or the constant.
func (b *blaster) fresh() sat.Lit { return b.gate() }

// gate allocates a variable whose inputs are the variables of in. The
// caller adds its defining clauses through def.
func (b *blaster) gate(in ...sat.Lit) sat.Lit {
	for _, l := range in {
		b.ins = append(b.ins, int32(l.Var()))
	}
	b.insEnd = append(b.insEnd, int32(len(b.ins)))
	return sat.MkLit(b.s.NewVar(), false)
}

// def adds one clause of o's definition, owned by o.
func (b *blaster) def(o sat.Lit, lits ...sat.Lit) { b.s.AddOwnedClause(o.Var(), lits...) }

// guard returns a fresh activation literal a with the clause (¬a ∨ l),
// owned by a. Unlike a gate, a is no function of l: a false a satisfies the
// clause whatever l is, so a conjunct outside a query's assumptions stays
// out of its cone.
func (b *blaster) guard(l sat.Lit) sat.Lit {
	a := b.gate(l)
	b.def(a, a.Flip(), l)
	return a
}

// --- Tseitin gates ---

// gateAnd returns a literal equivalent to x ∧ y.
func (b *blaster) gateAnd(x, y sat.Lit) sat.Lit {
	if x == b.litFalse || y == b.litFalse {
		return b.litFalse
	}
	if x == b.litTrue {
		return y
	}
	if y == b.litTrue {
		return x
	}
	if x == y {
		return x
	}
	if x == y.Flip() {
		return b.litFalse
	}
	o := b.gate(x, y)
	b.def(o, o.Flip(), x)
	b.def(o, o.Flip(), y)
	b.def(o, o, x.Flip(), y.Flip())
	return o
}

func (b *blaster) gateOr(x, y sat.Lit) sat.Lit {
	return b.gateAnd(x.Flip(), y.Flip()).Flip()
}

// gateAndN returns a literal equivalent to the conjunction of xs, encoded
// as ONE clause group: n short clauses (¬o ∨ xᵢ) plus one long clause
// (o ∨ ¬x₁ ∨ … ∨ ¬xₙ). Compared to a chain of binary AND gates this costs
// one Tseitin variable and n+1 clauses instead of n−1 variables and
// 3(n−1) clauses — the reason the blaster keeps n-ary connectives n-ary.
// The list is normalized first (constants, duplicates, complements), so
// degenerate inputs cost nothing. xs is scratch and may be reordered.
func (b *blaster) gateAndN(xs []sat.Lit) sat.Lit {
	// Normalize: drop true, shortcut on false, dedupe, detect x ∧ ¬x.
	w := 0
	for _, x := range xs {
		if x == b.litTrue {
			continue
		}
		if x == b.litFalse {
			return b.litFalse
		}
		dup := false
		for _, o := range xs[:w] {
			if o == x {
				dup = true
				break
			}
			if o == x.Flip() {
				return b.litFalse
			}
		}
		if !dup {
			xs[w] = x
			w++
		}
	}
	xs = xs[:w]
	switch len(xs) {
	case 0:
		return b.litTrue
	case 1:
		return xs[0]
	case 2:
		return b.gateAnd(xs[0], xs[1])
	}
	o := b.gate(xs...)
	long := make([]sat.Lit, 0, len(xs)+1)
	for _, x := range xs {
		b.def(o, o.Flip(), x)
		long = append(long, x.Flip())
	}
	b.def(o, append(long, o)...)
	return o
}

// gateOrN is the dual of gateAndN: one clause group for an n-ary OR.
func (b *blaster) gateOrN(xs []sat.Lit) sat.Lit {
	for i := range xs {
		xs[i] = xs[i].Flip()
	}
	return b.gateAndN(xs).Flip()
}

// gateXor returns a literal equivalent to x ⊕ y.
func (b *blaster) gateXor(x, y sat.Lit) sat.Lit {
	if x == b.litFalse {
		return y
	}
	if y == b.litFalse {
		return x
	}
	if x == b.litTrue {
		return y.Flip()
	}
	if y == b.litTrue {
		return x.Flip()
	}
	if x == y {
		return b.litFalse
	}
	if x == y.Flip() {
		return b.litTrue
	}
	o := b.gate(x, y)
	b.def(o, o.Flip(), x, y)
	b.def(o, o.Flip(), x.Flip(), y.Flip())
	b.def(o, o, x, y.Flip())
	b.def(o, o, x.Flip(), y)
	return o
}

// gateIte returns a literal equivalent to c ? t : f.
func (b *blaster) gateIte(c, t, f sat.Lit) sat.Lit {
	if c == b.litTrue {
		return t
	}
	if c == b.litFalse {
		return f
	}
	if t == f {
		return t
	}
	if t == b.litTrue && f == b.litFalse {
		return c
	}
	if t == b.litFalse && f == b.litTrue {
		return c.Flip()
	}
	o := b.gate(c, t, f)
	b.def(o, o.Flip(), c.Flip(), t)
	b.def(o, o.Flip(), c, f)
	b.def(o, o, c.Flip(), t.Flip())
	b.def(o, o, c, f.Flip())
	return o
}

// gateMaj returns a literal equivalent to the majority of x, y, z: the
// carry of a full adder. One gate is six clauses; a constant or repeated
// input folds it to an AND, an OR, or one of the inputs.
func (b *blaster) gateMaj(x, y, z sat.Lit) sat.Lit {
	switch {
	case x == b.litFalse:
		return b.gateAnd(y, z)
	case y == b.litFalse:
		return b.gateAnd(x, z)
	case z == b.litFalse:
		return b.gateAnd(x, y)
	case x == b.litTrue:
		return b.gateOr(y, z)
	case y == b.litTrue:
		return b.gateOr(x, z)
	case z == b.litTrue:
		return b.gateOr(x, y)
	case x == y || x == z:
		return x
	case y == z:
		return y
	case x == y.Flip():
		return z
	case x == z.Flip():
		return y
	case y == z.Flip():
		return x
	}
	o := b.gate(x, y, z)
	b.def(o, o.Flip(), x, y)
	b.def(o, o.Flip(), x, z)
	b.def(o, o.Flip(), y, z)
	b.def(o, o, x.Flip(), y.Flip())
	b.def(o, o, x.Flip(), z.Flip())
	b.def(o, o, y.Flip(), z.Flip())
	return o
}

// fullAdder returns (sum, carry) for x + y + cin.
func (b *blaster) fullAdder(x, y, cin sat.Lit) (sum, cout sat.Lit) {
	return b.gateXor(b.gateXor(x, y), cin), b.gateMaj(x, y, cin)
}

// adder returns x + y + cin over equal-length vectors, plus the carry out.
func (b *blaster) adder(x, y []sat.Lit, cin sat.Lit) ([]sat.Lit, sat.Lit) {
	out := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out, c
}

func flipAll(xs []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(xs))
	for i, x := range xs {
		out[i] = x.Flip()
	}
	return out
}

// negate returns the two's complement of x.
func (b *blaster) negate(x []sat.Lit) []sat.Lit {
	zero := make([]sat.Lit, len(x))
	for i := range zero {
		zero[i] = b.litFalse
	}
	out, _ := b.adder(flipAll(x), zero, b.litTrue)
	return out
}

// eqVec returns a literal for x = y: one n-ary AND over the bitwise
// equivalences, which against a constant are the bits themselves.
func (b *blaster) eqVec(x, y []sat.Lit) sat.Lit {
	same := make([]sat.Lit, len(x))
	for i := range x {
		same[i] = b.gateXor(x[i], y[i]).Flip()
	}
	return b.gateAndN(same)
}

// ultVec returns a literal for x <u y: the borrow of x - y, i.e. the
// complement of the carry out of x + ~y + 1. Only the carry chain is built;
// the difference bits would be dead gates.
func (b *blaster) ultVec(x, y []sat.Lit) sat.Lit {
	carry := b.litTrue
	for i := range x {
		carry = b.gateMaj(x[i], y[i].Flip(), carry)
	}
	return carry.Flip()
}

// sltVec returns a literal for signed x < y: flip the sign bits and compare
// unsigned.
func (b *blaster) sltVec(x, y []sat.Lit) sat.Lit {
	n := len(x)
	x2 := append(append([]sat.Lit{}, x[:n-1]...), x[n-1].Flip())
	y2 := append(append([]sat.Lit{}, y[:n-1]...), y[n-1].Flip())
	return b.ultVec(x2, y2)
}

// muxVec returns c ? t : f elementwise.
func (b *blaster) muxVec(c sat.Lit, t, f []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(t))
	for i := range t {
		out[i] = b.gateIte(c, t[i], f[i])
	}
	return out
}

// shiftConstVec shifts x left (dir>0) or logically right (dir<0) by k,
// filling with fill.
func (b *blaster) shiftConstVec(x []sat.Lit, k int, left bool, fill sat.Lit) []sat.Lit {
	n := len(x)
	out := make([]sat.Lit, n)
	for i := range out {
		var src int
		if left {
			src = i - k
		} else {
			src = i + k
		}
		if src >= 0 && src < n {
			out[i] = x[src]
		} else {
			out[i] = fill
		}
	}
	return out
}

// barrelShift builds a barrel shifter for a symbolic shift amount.
func (b *blaster) barrelShift(x, amt []sat.Lit, left bool, fill sat.Lit) []sat.Lit {
	n := len(x)
	out := x
	// Stage i shifts by 2^i when amt[i] is set.
	for i := 0; i < len(amt) && (1<<i) < 2*n; i++ {
		shifted := b.shiftConstVec(out, 1<<i, left, fill)
		out = b.muxVec(amt[i], shifted, out)
	}
	// If any higher amt bit is set, the result is all fill.
	anyHigh := b.litFalse
	for i := 0; i < len(amt); i++ {
		if 1<<i >= 2*n {
			anyHigh = b.gateOr(anyHigh, amt[i])
		}
	}
	if anyHigh != b.litFalse {
		allFill := make([]sat.Lit, n)
		for i := range allFill {
			allFill[i] = fill
		}
		out = b.muxVec(anyHigh, allFill, out)
	}
	// Shift amounts in [n, 2n) also saturate; handle amounts ≥ n.
	geN := b.ultVec(amt, b.constVec(uint64(n), uint8(len(amt)))).Flip()
	allFill := make([]sat.Lit, n)
	for i := range allFill {
		allFill[i] = fill
	}
	return b.muxVec(geN, allFill, out)
}

func (b *blaster) constVec(v uint64, w uint8) []sat.Lit {
	out := make([]sat.Lit, w)
	for i := range out {
		out[i] = b.constLit(v>>uint(i)&1 == 1)
	}
	return out
}

// mulVec builds a shift-and-add multiplier.
func (b *blaster) mulVec(x, y []sat.Lit) []sat.Lit {
	n := len(x)
	acc := b.constVec(0, uint8(n))
	for i := 0; i < n; i++ {
		// partial = y[i] ? (x << i) : 0
		shifted := b.shiftConstVec(x, i, true, b.litFalse)
		partial := make([]sat.Lit, n)
		for j := range partial {
			partial[j] = b.gateAnd(y[i], shifted[j])
		}
		acc, _ = b.adder(acc, partial, b.litFalse)
	}
	return acc
}

// udivVec returns (quotient, remainder) of x ÷ y; the caller muxes in the
// SMT-LIB values for y = 0. A constant divisor c sizes the circuit to c:
// c = 0 builds nothing, c = 2^k is wiring (x >> k and the low k bits), and
// any other c below 2^(n-1) keeps the partial remainder to bits.Len64(c)
// bits. A symbolic divisor, or one that fills the width, gets the full
// n-bit divider.
func (b *blaster) udivVec(x, y []sat.Lit) (quot, rem []sat.Lit) {
	n := len(x)
	c, ok := b.constValue(y)
	switch {
	case !ok:
		return b.restoringDiv(x, y, n)
	case c == 0:
		return b.constVec(^uint64(0), uint8(n)), x
	case c&(c-1) == 0:
		k := bits.TrailingZeros64(c)
		rem = b.constVec(0, uint8(n))
		copy(rem, x[:k])
		return b.shiftConstVec(x, k, false, b.litFalse), rem
	case bits.Len64(c) < n:
		w := bits.Len64(c)
		quot, rem = b.restoringDiv(x, b.constVec(c, uint8(w+1)), w)
		return quot, append(rem, b.constVec(0, uint8(n-w))...)
	}
	return b.restoringDiv(x, y, n)
}

// restoringDiv is a restoring divider over x whose partial remainder holds
// w bits: it stays below the divisor d, so w = len(d) = len(x) for the
// general divider and w = len(d)-1 when d's top bit is clear. Each stage
// shifts in the next dividend bit, subtracts d on len(d) bits, and keeps
// the difference iff the subtractor's carry out says the shifted remainder
// was ≥ d. The general divider drops the shifted-out top bit, which is 0:
// the partial remainder before stage i is at most x >> (i+1).
func (b *blaster) restoringDiv(x, d []sat.Lit, w int) (quot, rem []sat.Lit) {
	n := len(x)
	notD := flipAll(d)
	rem = b.constVec(0, uint8(w))
	quot = make([]sat.Lit, n)
	diff := make([]sat.Lit, w)
	for i := n - 1; i >= 0; i-- {
		r := append([]sat.Lit{x[i]}, rem...)[:len(d)]
		carry := b.litTrue
		for j := range r {
			if j < w {
				diff[j] = b.gateXor(b.gateXor(r[j], notD[j]), carry)
			}
			carry = b.gateMaj(r[j], notD[j], carry)
		}
		// The carry out of r + ~d + 1 is r ≥ d.
		rem = b.muxVec(carry, diff, r[:w])
		quot[i] = carry
	}
	return quot, rem
}

// constValue returns the value of xs when every literal is a constant.
func (b *blaster) constValue(xs []sat.Lit) (uint64, bool) {
	var v uint64
	for i, x := range xs {
		switch x {
		case b.litTrue:
			v |= 1 << uint(i)
		case b.litFalse:
		default:
			return 0, false
		}
	}
	return v, true
}

// blastBool translates a boolean expression to a literal.
func (b *blaster) blastBool(e *expr.Expr) sat.Lit {
	if !e.IsBool() {
		panic(fmt.Sprintf("solver: blastBool on %s", e))
	}
	if ls := b.blasted(e); ls != nil {
		return ls[0]
	}
	var l sat.Lit
	switch e.Kind {
	case expr.KConst:
		l = b.constLit(e.Val == 1)
	case expr.KVar:
		l = b.fresh()
	case expr.KNot:
		l = b.blastBool(e.Kids[0]).Flip()
	case expr.KAnd, expr.KOr:
		// N-ary connectives blast to one clause group per distinct node;
		// the memo above makes that "once per node" DAG-wide.
		lits := make([]sat.Lit, len(e.Kids))
		for i, k := range e.Kids {
			lits[i] = b.blastBool(k)
		}
		if e.Kind == expr.KAnd {
			l = b.gateAndN(lits)
		} else {
			l = b.gateOrN(lits)
		}
	case expr.KEq:
		if e.Kids[0].IsBool() {
			l = b.gateXor(b.blastBool(e.Kids[0]), b.blastBool(e.Kids[1])).Flip()
		} else {
			l = b.eqVec(b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1]))
		}
	case expr.KUlt:
		l = b.ultVec(b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1]))
	case expr.KUle:
		l = b.ultVec(b.blastBV(e.Kids[1]), b.blastBV(e.Kids[0])).Flip()
	case expr.KSlt:
		l = b.sltVec(b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1]))
	case expr.KSle:
		l = b.sltVec(b.blastBV(e.Kids[1]), b.blastBV(e.Kids[0])).Flip()
	case expr.KIte:
		l = b.gateIte(b.blastBool(e.Kids[0]), b.blastBool(e.Kids[1]), b.blastBool(e.Kids[2]))
	default:
		panic(fmt.Sprintf("solver: unexpected bool kind %v", e.Kind))
	}
	b.keep(e, l)
	return l
}

// blastBV translates a bitvector expression to its literal vector.
func (b *blaster) blastBV(e *expr.Expr) []sat.Lit {
	if e.IsBool() {
		panic(fmt.Sprintf("solver: blastBV on bool %s", e))
	}
	if ls := b.blasted(e); ls != nil {
		return ls
	}
	var out []sat.Lit
	switch e.Kind {
	case expr.KConst:
		out = b.constVec(e.Val, e.Width)
	case expr.KVar:
		out = make([]sat.Lit, e.Width)
		for i := range out {
			out[i] = b.fresh()
		}
	case expr.KAdd:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		out, _ = b.adder(x, y, b.litFalse)
	case expr.KSub:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		out, _ = b.adder(x, flipAll(y), b.litTrue)
	case expr.KMul:
		out = b.mulVec(b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1]))
	case expr.KUDiv, expr.KURem:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		quot, rem := b.udivVec(x, y)
		yZero := b.eqVec(y, b.constVec(0, e.Width))
		if e.Kind == expr.KUDiv {
			// SMT-LIB: x udiv 0 = all ones.
			ones := b.constVec(^uint64(0), e.Width)
			out = b.muxVec(yZero, ones, quot)
		} else {
			// SMT-LIB: x urem 0 = x.
			out = b.muxVec(yZero, x, rem)
		}
	case expr.KSDiv, expr.KSRem:
		out = b.blastSigned(e)
	case expr.KBAnd:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		out = make([]sat.Lit, len(x))
		for i := range x {
			out[i] = b.gateAnd(x[i], y[i])
		}
	case expr.KBOr:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		out = make([]sat.Lit, len(x))
		for i := range x {
			out[i] = b.gateOr(x[i], y[i])
		}
	case expr.KBXor:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		out = make([]sat.Lit, len(x))
		for i := range x {
			out[i] = b.gateXor(x[i], y[i])
		}
	case expr.KBNot:
		out = flipAll(b.blastBV(e.Kids[0]))
	case expr.KNeg:
		out = b.negate(b.blastBV(e.Kids[0]))
	case expr.KShl:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		out = b.barrelShift(x, y, true, b.litFalse)
	case expr.KLShr:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		out = b.barrelShift(x, y, false, b.litFalse)
	case expr.KAShr:
		x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
		sign := x[len(x)-1]
		// Arithmetic shift saturates at width-1, which the fill
		// already realizes (all bits become the sign).
		out = b.barrelShift(x, y, false, sign)
	case expr.KZExt:
		x := b.blastBV(e.Kids[0])
		out = make([]sat.Lit, e.Width)
		for i := range out {
			if i < len(x) {
				out[i] = x[i]
			} else {
				out[i] = b.litFalse
			}
		}
	case expr.KExtract:
		x := b.blastBV(e.Kids[0])
		out = make([]sat.Lit, e.Width)
		copy(out, x[e.Aux:int(e.Aux)+int(e.Width)])
	case expr.KIte:
		c := b.blastBool(e.Kids[0])
		out = b.muxVec(c, b.blastBV(e.Kids[1]), b.blastBV(e.Kids[2]))
	default:
		panic(fmt.Sprintf("solver: unexpected bv kind %v", e.Kind))
	}
	if len(out) != int(e.Width) {
		panic(fmt.Sprintf("solver: blast width mismatch for %s: got %d", e, len(out)))
	}
	b.keep(e, out...)
	return out
}

// blastSigned encodes sdiv/srem via unsigned division on magnitudes,
// following the SMT-LIB sign conventions.
func (b *blaster) blastSigned(e *expr.Expr) []sat.Lit {
	x, y := b.blastBV(e.Kids[0]), b.blastBV(e.Kids[1])
	n := len(x)
	sx, sy := x[n-1], y[n-1]
	absX := b.muxVec(sx, b.negate(x), x)
	absY := b.muxVec(sy, b.negate(y), y)
	quot, rem := b.udivVec(absX, absY)
	yZero := b.eqVec(y, b.constVec(0, e.Width))
	if e.Kind == expr.KSDiv {
		// Sign of quotient: sx ⊕ sy.
		neg := b.gateXor(sx, sy)
		q := b.muxVec(neg, b.negate(quot), quot)
		// SMT-LIB: sdiv by 0 is 1 if x < 0 else -1.
		one := b.constVec(1, e.Width)
		ones := b.constVec(^uint64(0), e.Width)
		div0 := b.muxVec(sx, one, ones)
		return b.muxVec(yZero, div0, q)
	}
	// srem: sign follows the dividend; srem by 0 = x.
	r := b.muxVec(sx, b.negate(rem), rem)
	return b.muxVec(yZero, x, r)
}

// varBits returns the literals of input variable v, LSB first, or nil when
// v is not a variable or was never blasted.
func (b *blaster) varBits(v *expr.Expr) []sat.Lit {
	if v.Kind != expr.KVar {
		return nil
	}
	return b.blasted(v)
}

// modelValue reads variable v's value out of the SAT model; a variable the
// blaster never saw reads 0.
func (b *blaster) modelValue(v *expr.Expr) uint64 {
	var out uint64
	for i, l := range b.varBits(v) {
		if b.s.ValueLit(l) {
			out |= 1 << uint(i)
		}
	}
	return out
}
