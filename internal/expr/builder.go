package expr

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Builder constructs hash-consed expressions. A Builder is safe for
// concurrent use: one mutex guards the intern table, and the activity
// counters are atomic. Expression identity — pointer equality and
// builder-unique IDs — holds within one Builder; each engine owns one. A
// Builder refuses operands that another Builder interned.
type Builder struct {
	mu     sync.Mutex
	table  map[uint64][]*Expr // structural hash -> nodes with that hash
	nextID uint64             // the next node's ID; guarded by mu
	home   uint32             // serial stamped on every node this builder interns

	true_  *Expr
	false_ *Expr

	// ruleHits counts applications per rewrite rule (see rules.go);
	// RuleHits returns the nonzero entries by name.
	ruleHits [numRules]atomic.Uint64

	// Stats counts the nodes the builder interned.
	Stats BuilderStats
}

// BuilderStats counts what a builder has interned. Tests read Nodes to
// check that a decode or a rebuild minted no node.
type BuilderStats struct {
	Nodes atomic.Uint64 // distinct nodes created
}

// builderSerial numbers builders from 1, so that a node's home tells its
// builder apart from every other builder a process makes (up to 2^32 of
// them) and 0 can mean "no builder" (NodeMap).
var builderSerial atomic.Uint32

// NewBuilder returns an empty builder with the boolean constants interned.
func NewBuilder() *Builder {
	b := &Builder{home: builderSerial.Add(1), table: map[uint64][]*Expr{}}
	b.false_ = b.mk(&Expr{Kind: KConst, Width: 0, Val: 0})
	b.true_ = b.mk(&Expr{Kind: KConst, Width: 0, Val: 1})
	return b
}

func hashExpr(e *Expr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(e.Kind))
	mix(uint64(e.Width))
	mix(e.Val)
	mix(uint64(e.Aux))
	for i := 0; i < len(e.Name); i++ {
		h ^= uint64(e.Name[i])
		h *= prime64
	}
	for _, k := range e.Kids {
		mix(k.id)
	}
	return h
}

func sameExpr(a, e *Expr) bool {
	if a.Kind != e.Kind || a.Width != e.Width || a.Val != e.Val ||
		a.Aux != e.Aux || a.Name != e.Name || len(a.Kids) != len(e.Kids) {
		return false
	}
	for i := range a.Kids {
		if a.Kids[i] != e.Kids[i] {
			return false
		}
	}
	return true
}

// mk interns the node that the probe p describes and returns the canonical
// node. p is a template the caller may keep on its stack: a hit allocates
// nothing, and only a miss copies p and its operand list into a fresh node.
// All of the node's derived fields are filled in before it is published into
// the table, so every reader — whether it got the pointer from this call or
// from a later lookup under the lock — sees a fully initialized, immutable
// node.
func (b *Builder) mk(p *Expr) *Expr {
	h := hashExpr(p)
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, cand := range b.table[h] {
		if sameExpr(cand, p) {
			return cand
		}
	}
	// Copying the name's bytes, not only its header, keeps p's contents
	// from escaping: escape analysis does not tell p's fields apart, so a
	// stored name would move the caller's operand list to the heap too.
	e := &Expr{Kind: p.Kind, Width: p.Width, Val: p.Val, Aux: p.Aux, Name: strings.Clone(p.Name),
		symbolic: p.Kind == KVar}
	if len(p.Kids) > 0 {
		e.Kids = append([]*Expr(nil), p.Kids...)
	}
	for _, k := range e.Kids {
		if k.home != b.home {
			// A walk down from a node must stay in its builder: tables
			// indexed by ID bind to one builder (NodeMap), and their
			// owners check only the node a walk starts from.
			panic(fmt.Sprintf("expr: %s operand %d (%s) belongs to another builder", e.Kind, k.id, k.Kind))
		}
		e.symbolic = e.symbolic || k.symbolic
	}
	e.id = b.nextID
	b.nextID++
	e.home = b.home
	b.table[h] = append(b.table[h], e)
	b.Stats.Nodes.Add(1)
	return e
}

// --- Leaves ---

// True returns the boolean constant true.
func (b *Builder) True() *Expr { return b.true_ }

// False returns the boolean constant false.
func (b *Builder) False() *Expr { return b.false_ }

// Bool returns the boolean constant for v.
func (b *Builder) Bool(v bool) *Expr {
	if v {
		return b.true_
	}
	return b.false_
}

// Const returns the w-bit constant v (truncated to w bits). w must be 1..64.
func (b *Builder) Const(v uint64, w uint8) *Expr {
	if w == 0 || w > 64 {
		panic(fmt.Sprintf("expr: Const width %d out of range", w))
	}
	return b.mk(&Expr{Kind: KConst, Width: w, Val: truncate(v, w)})
}

// Var returns the w-bit input variable with the given name. w==0 makes a
// boolean variable. Variables are identified by name: two calls with the
// same name and width return the same node.
func (b *Builder) Var(name string, w uint8) *Expr {
	if w > 64 {
		panic(fmt.Sprintf("expr: Var width %d out of range", w))
	}
	return b.mk(&Expr{Kind: KVar, Width: w, Name: name})
}

// --- Boolean connectives ---

func (b *Builder) checkBool(op string, es ...*Expr) {
	for _, e := range es {
		if !e.IsBool() {
			panic(fmt.Sprintf("expr: %s applied to non-bool %s", op, e))
		}
	}
}

// Not returns the boolean negation of x.
func (b *Builder) Not(x *Expr) *Expr {
	b.checkBool("not", x)
	if x.IsConst() {
		return b.Bool(x.Val == 0)
	}
	if x.Kind == KNot {
		b.hit(rNotNot) // ¬¬a → a
		return x.Kids[0]
	}
	return b.mk(&Expr{Kind: KNot, Kids: []*Expr{x}})
}

// And returns the boolean conjunction of x and y. Conjunctions are n-ary
// and canonical: see AndN.
func (b *Builder) And(x, y *Expr) *Expr {
	b.checkBool("and", x, y)
	return b.naryBool(KAnd, []*Expr{x, y})
}

// Or returns the boolean disjunction of x and y. Disjunctions are n-ary
// and canonical: see OrN.
func (b *Builder) Or(x, y *Expr) *Expr {
	b.checkBool("or", x, y)
	return b.naryBool(KOr, []*Expr{x, y})
}

// AndN returns the canonical n-ary conjunction of es: nested conjunctions
// flatten, kids sort by node ID, duplicates and absorbed members drop, a
// complementary pair collapses the whole term to ⊥. The empty conjunction
// is ⊤. The slice is not retained.
func (b *Builder) AndN(es []*Expr) *Expr {
	b.checkBool("and", es...)
	return b.naryBool(KAnd, es)
}

// OrN returns the canonical n-ary disjunction of es, dual to AndN, with
// one extra rule: disjuncts sharing common conjuncts factor them out
// ((p∧a) ∨ (p∧b) → p ∧ (a∨b)), which keeps merged-state guards small. The
// empty disjunction is ⊥. The slice is not retained.
func (b *Builder) OrN(es []*Expr) *Expr {
	b.checkBool("or", es...)
	return b.naryBool(KOr, es)
}

// orderPair orders a commutative pair by node ID for canonical form.
func orderPair(x, y *Expr) (*Expr, *Expr) {
	if y.id < x.id {
		return y, x
	}
	return x, y
}

// --- Comparisons ---

func (b *Builder) checkSameBV(op string, x, y *Expr) {
	if x.Width == 0 || y.Width == 0 || x.Width != y.Width {
		panic(fmt.Sprintf("expr: %s width mismatch: %s vs %s", op, x, y))
	}
}

// Eq returns x = y. Operands must share a sort (bool or same-width BV).
func (b *Builder) Eq(x, y *Expr) *Expr {
	if x.Width != y.Width {
		panic(fmt.Sprintf("expr: = width mismatch: %s vs %s", x, y))
	}
	if x.IsConst() && y.IsConst() {
		return b.Bool(x.Val == y.Val)
	}
	x, y = orderPair(x, y)
	return b.mk(&Expr{Kind: KEq, Kids: []*Expr{x, y}})
}

// Ne returns ¬(x = y).
func (b *Builder) Ne(x, y *Expr) *Expr { return b.Not(b.Eq(x, y)) }

func (b *Builder) cmp(k Kind, x, y *Expr, fold func(a, c uint64, w uint8) bool) *Expr {
	b.checkSameBV(k.String(), x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(fold(x.Val, y.Val, x.Width))
	}
	return b.mk(&Expr{Kind: k, Kids: []*Expr{x, y}})
}

// Ult returns the unsigned comparison x < y.
func (b *Builder) Ult(x, y *Expr) *Expr {
	return b.cmp(KUlt, x, y, func(a, c uint64, _ uint8) bool { return a < c })
}

// Ule returns the unsigned comparison x ≤ y.
func (b *Builder) Ule(x, y *Expr) *Expr {
	return b.cmp(KUle, x, y, func(a, c uint64, _ uint8) bool { return a <= c })
}

// Slt returns the signed comparison x < y.
func (b *Builder) Slt(x, y *Expr) *Expr {
	return b.cmp(KSlt, x, y, func(a, c uint64, w uint8) bool {
		return int64(signExtend(a, w)) < int64(signExtend(c, w))
	})
}

// Sle returns the signed comparison x ≤ y.
func (b *Builder) Sle(x, y *Expr) *Expr {
	return b.cmp(KSle, x, y, func(a, c uint64, w uint8) bool {
		return int64(signExtend(a, w)) <= int64(signExtend(c, w))
	})
}

// Ugt returns x > y (unsigned), encoded as Ult(y, x).
func (b *Builder) Ugt(x, y *Expr) *Expr { return b.Ult(y, x) }

// Uge returns x ≥ y (unsigned), encoded as Ule(y, x).
func (b *Builder) Uge(x, y *Expr) *Expr { return b.Ule(y, x) }

// --- Arithmetic ---

func (b *Builder) arith(k Kind, x, y *Expr, fold func(a, c uint64, w uint8) uint64) *Expr {
	b.checkSameBV(k.String(), x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(fold(x.Val, y.Val, x.Width), x.Width)
	}
	return b.mk(&Expr{Kind: k, Width: x.Width, Kids: []*Expr{x, y}})
}

// Add returns x + y (modular).
func (b *Builder) Add(x, y *Expr) *Expr {
	if !(x.IsConst() && y.IsConst()) {
		if x.IsConst() && x.Val == 0 {
			b.hit(rAddZero) // 0 + a → a
			return y
		}
		if y.IsConst() && y.Val == 0 {
			b.hit(rAddZero)
			return x
		}
	}
	if !x.IsConst() && y.IsConst() || (!x.IsConst() && !y.IsConst() && y.id < x.id) {
		x, y = y, x // canonical: constant or lower-id first
	}
	return b.arith(KAdd, x, y, func(a, c uint64, _ uint8) uint64 { return a + c })
}

// Sub returns x − y (modular).
func (b *Builder) Sub(x, y *Expr) *Expr {
	if !(x.IsConst() && y.IsConst()) {
		if y.IsConst() && y.Val == 0 {
			b.hit(rSubZero) // a − 0 → a
			return x
		}
		if x == y {
			b.hit(rSubSelf) // a − a → 0
			return b.Const(0, x.Width)
		}
	}
	return b.arith(KSub, x, y, func(a, c uint64, _ uint8) uint64 { return a - c })
}

// Mul returns x × y (modular).
func (b *Builder) Mul(x, y *Expr) *Expr {
	if x.IsConst() && x.Val == 0 || y.IsConst() && y.Val == 0 {
		return b.Const(0, x.Width)
	}
	x, y = orderPair(x, y)
	return b.arith(KMul, x, y, func(a, c uint64, _ uint8) uint64 { return a * c })
}

// UDiv returns x ÷ y unsigned; division by zero yields all-ones (SMT-LIB).
func (b *Builder) UDiv(x, y *Expr) *Expr {
	return b.arith(KUDiv, x, y, func(a, c uint64, w uint8) uint64 {
		if c == 0 {
			return mask(w)
		}
		return a / c
	})
}

// URem returns x mod y unsigned; x mod 0 = x (SMT-LIB).
func (b *Builder) URem(x, y *Expr) *Expr {
	return b.arith(KURem, x, y, func(a, c uint64, _ uint8) uint64 {
		if c == 0 {
			return a
		}
		return a % c
	})
}

// SDiv returns x ÷ y signed (truncating); ÷0 yields 1 or −1 per SMT-LIB.
func (b *Builder) SDiv(x, y *Expr) *Expr {
	return b.arith(KSDiv, x, y, func(a, c uint64, w uint8) uint64 {
		sa, sc := int64(signExtend(a, w)), int64(signExtend(c, w))
		if sc == 0 {
			if sa < 0 {
				return 1
			}
			return mask(w) // -1
		}
		if sa == -1<<63 && sc == -1 {
			return a
		}
		return uint64(sa / sc)
	})
}

// SRem returns x mod y signed (sign of dividend); mod 0 = x per SMT-LIB.
func (b *Builder) SRem(x, y *Expr) *Expr {
	return b.arith(KSRem, x, y, func(a, c uint64, w uint8) uint64 {
		sa, sc := int64(signExtend(a, w)), int64(signExtend(c, w))
		if sc == 0 {
			return a
		}
		if sa == -1<<63 && sc == -1 {
			return 0
		}
		return uint64(sa % sc)
	})
}

// Neg returns −x (two's complement).
func (b *Builder) Neg(x *Expr) *Expr {
	if x.IsConst() {
		return b.Const(-x.Val, x.Width)
	}
	return b.mk(&Expr{Kind: KNeg, Width: x.Width, Kids: []*Expr{x}})
}

// --- Bitwise and shifts ---

// BAnd returns the bitwise conjunction x & y.
func (b *Builder) BAnd(x, y *Expr) *Expr {
	x, y = orderPair(x, y)
	return b.arith(KBAnd, x, y, func(a, c uint64, _ uint8) uint64 { return a & c })
}

// BOr returns the bitwise disjunction x | y.
func (b *Builder) BOr(x, y *Expr) *Expr {
	x, y = orderPair(x, y)
	return b.arith(KBOr, x, y, func(a, c uint64, _ uint8) uint64 { return a | c })
}

// BXor returns the bitwise exclusive or x ^ y.
func (b *Builder) BXor(x, y *Expr) *Expr {
	x, y = orderPair(x, y)
	return b.arith(KBXor, x, y, func(a, c uint64, _ uint8) uint64 { return a ^ c })
}

// BNot returns the bitwise complement of x.
func (b *Builder) BNot(x *Expr) *Expr {
	if x.IsConst() {
		return b.Const(^x.Val, x.Width)
	}
	return b.mk(&Expr{Kind: KBNot, Width: x.Width, Kids: []*Expr{x}})
}

// Shl returns x << y; shifts ≥ width yield zero.
func (b *Builder) Shl(x, y *Expr) *Expr {
	return b.arith(KShl, x, y, func(a, c uint64, w uint8) uint64 {
		if c >= uint64(w) {
			return 0
		}
		return a << c
	})
}

// LShr returns the logical right shift x >> y; shifts ≥ width yield zero.
func (b *Builder) LShr(x, y *Expr) *Expr {
	return b.arith(KLShr, x, y, func(a, c uint64, w uint8) uint64 {
		if c >= uint64(w) {
			return 0
		}
		return a >> c
	})
}

// AShr returns the arithmetic right shift x >> y (sign filling).
func (b *Builder) AShr(x, y *Expr) *Expr {
	return b.arith(KAShr, x, y, func(a, c uint64, w uint8) uint64 {
		sa := int64(signExtend(a, w))
		if c >= uint64(w) {
			c = uint64(w) - 1
		}
		return truncate(uint64(sa>>c), w)
	})
}

// --- Width changing ---

// ZExt zero-extends x to width w (w ≥ x.Width). Extending to the same width
// returns x unchanged.
func (b *Builder) ZExt(x *Expr, w uint8) *Expr {
	if w < x.Width || x.Width == 0 || w > 64 {
		panic(fmt.Sprintf("expr: zext %d -> %d invalid", x.Width, w))
	}
	if w == x.Width {
		return x
	}
	if x.IsConst() {
		return b.Const(x.Val, w)
	}
	return b.mk(&Expr{Kind: KZExt, Width: w, Aux: uint16(x.Width), Kids: []*Expr{x}})
}

// Extract returns bits [lo+w-1 : lo] of x as a w-bit value.
func (b *Builder) Extract(x *Expr, lo, w uint8) *Expr {
	if w == 0 || int(lo)+int(w) > int(x.Width) {
		panic(fmt.Sprintf("expr: extract [%d+%d] of width-%d", lo, w, x.Width))
	}
	if lo == 0 && w == x.Width {
		return x
	}
	if x.IsConst() {
		return b.Const(x.Val>>lo, w)
	}
	if x.Kind == KZExt {
		src := x.Kids[0]
		if int(lo)+int(w) <= int(src.Width) {
			b.hit(rExtractExt)
			return b.Extract(src, lo, w)
		}
	}
	return b.mk(&Expr{Kind: KExtract, Width: w, Aux: uint16(lo), Kids: []*Expr{x}})
}

// --- Ite ---

// Ite returns if-then-else over booleans or same-width bitvectors.
func (b *Builder) Ite(c, t, f *Expr) *Expr {
	b.checkBool("ite", c)
	if t.Width != f.Width {
		panic(fmt.Sprintf("expr: ite arm width mismatch: %s vs %s", t, f))
	}
	if c.IsTrue() {
		return t
	}
	if c.IsFalse() {
		return f
	}
	if t == f {
		b.hit(rIteSameArms)
		return t
	}
	if c.Kind == KNot {
		b.hit(rIteNotCond)
		c, t, f = c.Kids[0], f, t
	}
	if t.Width == 0 {
		// Boolean ite simplifications.
		switch {
		case t.IsTrue() && f.IsFalse():
			b.hit(rIteBoolLower)
			return c
		case t.IsFalse() && f.IsTrue():
			b.hit(rIteBoolLower)
			return b.Not(c)
		case t.IsTrue():
			b.hit(rIteBoolLower)
			return b.Or(c, f)
		case t.IsFalse():
			b.hit(rIteBoolLower)
			return b.And(b.Not(c), f)
		case f.IsTrue():
			b.hit(rIteBoolLower)
			return b.Or(b.Not(c), t)
		case f.IsFalse():
			b.hit(rIteBoolLower)
			return b.And(c, t)
		}
	}
	// ite(c, ite(c, a, _), f) = ite(c, a, f), same for the else arm.
	if t.Kind == KIte && t.Kids[0] == c {
		b.hit(rIteNested)
		t = t.Kids[1]
	}
	if f.Kind == KIte && f.Kids[0] == c {
		b.hit(rIteNested)
		f = f.Kids[2]
	}
	if t == f {
		return t
	}
	return b.mk(&Expr{Kind: KIte, Width: t.Width, Kids: []*Expr{c, t, f}})
}

// SelectIte builds the read of cells[idx] as an ite chain over the cells,
// mirroring how the engine lowers a symbolic-index array read. Reads out of
// bounds evaluate to the given out-of-bounds value. Cells must share a width.
func (b *Builder) SelectIte(cells []*Expr, idx *Expr, oob *Expr) *Expr {
	if idx.IsConst() {
		i := int(idx.Val)
		if i >= 0 && i < len(cells) {
			return cells[i]
		}
		return oob
	}
	res := oob
	// Build from the highest index down so low indices end up outermost,
	// which keeps common small-index reads cheap after simplification.
	for i := len(cells) - 1; i >= 0; i-- {
		res = b.Ite(b.Eq(idx, b.Const(uint64(i), idx.Width)), cells[i], res)
	}
	return res
}
