// Package expr implements the hash-consed symbolic expression language shared
// by the symbolic executor, the QCE static analysis, and the constraint
// solver.
//
// Expressions form the quantifier-free theory of fixed-width bitvectors plus
// booleans (QF_BV). Every expression is built through a Builder, which
// hash-conses: structurally identical expressions are represented by the same
// *Expr pointer. This makes structural equality a pointer comparison, lets
// constructor-time flags (such as "contains a symbolic variable") be computed
// once, and gives every expression a small integer ID, dense per builder,
// that orders n-ary operands and indexes the per-node tables of the
// evaluator and the solver (NodeMap).
//
// Builders also perform constant folding and a fixed set of named local
// rewrites (n-ary flattening, absorption and guard factoring, ite
// collapsing, double negation, ...; see rules.go), each applied by its
// constructor and charged to a per-rule hit counter. Simplify rebuilds whole
// expressions bottom-up through the constructors. Simplification is
// semantics-preserving; the evaluator in eval.go is the reference semantics
// and the property/fuzz tests check the two agree.
package expr

import (
	"fmt"
	"strings"
)

// Kind identifies the operator of an expression node.
type Kind uint8

// Expression kinds. Boolean connectives operate on width-0 (boolean)
// expressions; bitvector operators on width 1..64 expressions. Comparisons
// take bitvectors and yield booleans. Ite is polymorphic: its condition is
// boolean and its arms share the result sort.
//
// A kind's number is its wire form (Node.K in snapshots), so numbers never
// move: the four blank entries are kinds no constructor builds any more,
// whose numbers stay reserved (see retiredKinds).
const (
	KConst Kind = iota // constant (Val, Width; Width==0 means boolean 0/1)
	KVar               // named input variable

	// Boolean connectives. KAnd and KOr are n-ary (Kids holds two or more
	// operands) in canonical form: flattened, ID-sorted, duplicate-free,
	// with no complementary pair and no absorbed member — see
	// Builder.AndN/OrN and naryBool in rules.go.
	KNot
	KAnd
	KOr
	_ // 5: retired boolean xor
	_ // 6: retired implication

	// Comparisons (bitvector × bitvector → bool).
	KEq
	KUlt
	KUle
	KSlt
	KSle

	// Bitvector arithmetic.
	KAdd
	KSub
	KMul
	KUDiv
	KURem
	KSDiv
	KSRem

	// Bitvector bitwise / shifts.
	KBAnd
	KBOr
	KBXor
	KBNot
	KNeg
	KShl
	KLShr
	KAShr

	// Width changing.
	KZExt    // Aux = original width, Width = new width
	_        // 28: retired sign extension
	KExtract // Aux = low bit, Width = number of bits
	_        // 30: retired concatenation

	// Polymorphic if-then-else: Kids[0] bool, Kids[1], Kids[2] same sort.
	KIte

	numKinds
)

var kindNames = [numKinds]string{
	KConst: "const", KVar: "var",
	KNot: "not", KAnd: "and", KOr: "or",
	KEq: "=", KUlt: "bvult", KUle: "bvule", KSlt: "bvslt", KSle: "bvsle",
	KAdd: "bvadd", KSub: "bvsub", KMul: "bvmul",
	KUDiv: "bvudiv", KURem: "bvurem", KSDiv: "bvsdiv", KSRem: "bvsrem",
	KBAnd: "bvand", KBOr: "bvor", KBXor: "bvxor", KBNot: "bvnot",
	KNeg: "bvneg", KShl: "bvshl", KLShr: "bvlshr", KAShr: "bvashr",
	KZExt: "zext", KExtract: "extract",
	KIte: "ite",
}

// String returns the SMT-LIB-flavoured operator name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// retiredKinds names the reserved numbers of kinds that were removed, so
// that Intern can refuse a snapshot naming one.
var retiredKinds = map[Kind]string{5: "xor", 6: "implies", 28: "sext", 30: "concat"}

// Expr is an immutable, hash-consed expression node. Two expressions built by
// the same Builder are structurally equal iff they are the same pointer.
//
// Width 0 denotes the boolean sort; widths 1..64 denote bitvectors.
type Expr struct {
	Kind  Kind
	Width uint8   // result width; 0 = bool
	Val   uint64  // constant value (KConst), truncated to Width
	Aux   uint16  // KExtract: low bit; KZExt: source width
	Name  string  // variable name (KVar)
	Kids  []*Expr // operands

	id       uint64 // unique per builder, assigned at construction
	symbolic bool   // contains at least one KVar
	home     uint32 // the interning builder's serial (Builder.home)
}

// ID returns the builder-unique identifier of the node. IDs increase in
// construction order, so they induce a deterministic total order. They are
// dense, from 0, so tables indexed by ID (NodeMap) stay small; nodes of two
// builders share IDs.
func (e *Expr) ID() uint64 { return e.id }

// IsBool reports whether the expression has the boolean sort.
func (e *Expr) IsBool() bool { return e.Width == 0 }

// IsConst reports whether the expression is a literal constant.
func (e *Expr) IsConst() bool { return e.Kind == KConst }

// IsTrue reports whether the expression is the boolean constant true.
func (e *Expr) IsTrue() bool { return e.Kind == KConst && e.Width == 0 && e.Val == 1 }

// IsFalse reports whether the expression is the boolean constant false.
func (e *Expr) IsFalse() bool { return e.Kind == KConst && e.Width == 0 && e.Val == 0 }

// IsSymbolic reports whether the expression contains any input variable.
// Concrete expressions always fold to constants, so in practice this is
// equivalent to !IsConst, but the flag is tracked independently for safety.
func (e *Expr) IsSymbolic() bool { return e.symbolic }

// mask returns the w-bit mask (w in 1..64).
func mask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// truncate reduces v to w bits. For booleans (w==0) it normalizes to 0/1.
func truncate(v uint64, w uint8) uint64 {
	if w == 0 {
		if v != 0 {
			return 1
		}
		return 0
	}
	return v & mask(w)
}

// signExtend interprets v as a w-bit two's-complement value and returns it
// sign-extended to 64 bits.
func signExtend(v uint64, w uint8) uint64 {
	if w == 0 || w >= 64 {
		return v
	}
	signBit := uint64(1) << (w - 1)
	if v&signBit != 0 {
		return v | ^mask(w)
	}
	return v & mask(w)
}

// Vars appends every distinct variable reachable from e to the set. The map
// is keyed by the variable node itself.
func (e *Expr) Vars(set map[*Expr]bool) {
	if !e.symbolic || set[e] {
		return
	}
	if e.Kind == KVar {
		set[e] = true
		return
	}
	// Mark interior nodes visited using a separate traversal to avoid
	// polluting the result set: use an explicit stack with a seen map
	// local to this call for interiors.
	seen := map[*Expr]bool{}
	var walk func(x *Expr)
	walk = func(x *Expr) {
		if !x.symbolic || seen[x] {
			return
		}
		seen[x] = true
		if x.Kind == KVar {
			set[x] = true
			return
		}
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(e)
}

// String renders the expression as an SMT-LIB-style s-expression.
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b, 0)
	return b.String()
}

const maxPrintDepth = 64

func (e *Expr) write(b *strings.Builder, depth int) {
	if depth > maxPrintDepth {
		b.WriteString("...")
		return
	}
	switch e.Kind {
	case KConst:
		if e.Width == 0 {
			if e.Val == 1 {
				b.WriteString("true")
			} else {
				b.WriteString("false")
			}
			return
		}
		fmt.Fprintf(b, "#x%0*x", (int(e.Width)+3)/4, e.Val)
	case KVar:
		b.WriteString(e.Name)
	case KExtract:
		fmt.Fprintf(b, "((_ extract %d %d) ", int(e.Aux)+int(e.Width)-1, e.Aux)
		e.Kids[0].write(b, depth+1)
		b.WriteByte(')')
	case KZExt:
		fmt.Fprintf(b, "((_ %s %d) ", e.Kind, int(e.Width)-int(e.Aux))
		e.Kids[0].write(b, depth+1)
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(e.Kind.String())
		for _, k := range e.Kids {
			b.WriteByte(' ')
			k.write(b, depth+1)
		}
		b.WriteByte(')')
	}
}
