package expr

// rules.go names the Builder's rewrite rules and applies the structural
// ones. Every constructor-time rewrite beyond literal constant folding is a
// named rule with its own hit counter, and every rule is applied by the
// constructor whose shape it matches, which charges it through Builder.hit:
// double negation by Not, the identities of addition and subtraction by Add
// and Sub, extract over zext by Extract, the ite rules by Ite, and the
// structural rules of the n-ary connectives (flattening, unit and zero
// elements, duplicate and complement elimination, absorption, guard
// factoring) by naryBool below.
//
// The set is what the engine's queries use: a rule that fires in none of
// the engine's configurations is deleted rather than kept for completeness
// (the n-ary rules keep both duals, which share their code). All rules are
// local and semantics-preserving: eval.go is the reference semantics, and
// the property/fuzz tests check agreement on random expressions. Simplify
// rebuilds an existing expression bottom-up through the constructors.

import (
	"cmp"
	"slices"
	"sort"
)

// Rule indices: each names one hit counter.
const (
	rNotNot = iota

	// n-ary conjunction (structural, applied by naryBool).
	rAndFlatten
	rAndUnit
	rAndZero
	rAndDup
	rAndCompl
	rAndAbsorb

	// n-ary disjunction (structural, applied by naryBool).
	rOrFlatten
	rOrUnit
	rOrOne
	rOrDup
	rOrCompl
	rOrAbsorb
	rOrFactor

	// Arithmetic identities (applied by Add and Sub).
	rAddZero
	rSubZero
	rSubSelf

	// Width changing (applied by Extract).
	rExtractExt

	// Ite rules (applied by Ite).
	rIteSameArms
	rIteNotCond
	rIteBoolLower
	rIteNested

	numRules
)

// ruleNames are the counter names RuleHits reports.
var ruleNames = [numRules]string{
	rNotNot: "not/involution", // ¬¬a → a

	rAndFlatten: "and/flatten",
	rAndUnit:    "and/unit",       // drop ⊤ conjuncts
	rAndZero:    "and/zero",       // … ∧ ⊥ → ⊥
	rAndDup:     "and/dup",        // x ∧ x → x
	rAndCompl:   "and/complement", // x ∧ ¬x → ⊥
	rAndAbsorb:  "and/absorb",     // x ∧ (x ∨ y) → x

	rOrFlatten: "or/flatten",
	rOrUnit:    "or/unit",       // drop ⊥ disjuncts
	rOrOne:     "or/one",        // … ∨ ⊤ → ⊤
	rOrDup:     "or/dup",        // x ∨ x → x
	rOrCompl:   "or/complement", // x ∨ ¬x → ⊤
	rOrAbsorb:  "or/absorb",     // x ∨ (x ∧ y) → x
	rOrFactor:  "or/factor",     // (p∧a) ∨ (p∧b) → p ∧ (a∨b)

	rAddZero: "add/zero", // a + 0 → a
	rSubZero: "sub/zero", // a − 0 → a
	rSubSelf: "sub/self", // a − a → 0

	rExtractExt: "extract/ext", // extract of zext's source bits

	rIteSameArms:  "ite/same-arms", // ite(c, a, a) → a
	rIteNotCond:   "ite/not-cond",  // ite(¬c, a, b) → ite(c, b, a)
	rIteBoolLower: "ite/bool-lower",
	rIteNested:    "ite/nested",
}

// hit charges one application to a rule's counter.
func (b *Builder) hit(ri int) { b.ruleHits[ri].Add(1) }

// RuleHit is one rule's activity snapshot.
type RuleHit struct {
	Name string
	Hits uint64
}

// RuleHits returns the rules that fired at least once, most active first
// (ties broken by name for determinism). Safe to call concurrently with
// construction; counts are a consistent-enough snapshot for reporting.
func (b *Builder) RuleHits() []RuleHit {
	out := make([]RuleHit, 0, numRules)
	for ri, name := range ruleNames {
		if h := b.ruleHits[ri].Load(); h > 0 {
			out = append(out, RuleHit{Name: name, Hits: h})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// --- n-ary connective normalization ---

// naryBool builds the canonical n-ary conjunction (KAnd) or disjunction
// (KOr) of es. Canonical form: kids are flattened (no nested node of the
// same kind), sorted by node ID, duplicate-free, contain no complementary
// pair, no kid absorbed by another, and — for disjunctions — share no
// common conjunct (guard factoring hoists it). Zero kids yield the unit
// element, one kid yields the kid itself.
func (b *Builder) naryBool(k Kind, es []*Expr) *Expr {
	if len(es) == 2 {
		if r, ok := b.bool2(k, es[0], es[1]); ok {
			return r
		}
	}
	unit, zero := b.true_, b.false_
	flatten, unitR, zeroR, dupR, complR, absorbR := rAndFlatten, rAndUnit, rAndZero, rAndDup, rAndCompl, rAndAbsorb
	dual := KOr
	if k == KOr {
		unit, zero = b.false_, b.true_
		flatten, unitR, zeroR, dupR, complR, absorbR = rOrFlatten, rOrUnit, rOrOne, rOrDup, rOrCompl, rOrAbsorb
		dual = KAnd
	}

	// Flatten nested nodes of the same kind and strip unit elements; the
	// zero element annihilates immediately. The list starts on the stack:
	// mk copies it only when the node is new.
	var buf [8]*Expr
	kids := buf[:0]
	for _, e := range es {
		switch {
		case e == zero:
			b.hit(zeroR)
			return zero
		case e == unit:
			b.hit(unitR)
		case e.Kind == k:
			b.hit(flatten)
			kids = append(kids, e.Kids...)
		default:
			kids = append(kids, e)
		}
	}

	// Canonical commutative order + duplicate elimination. Nested kids are
	// already duplicate-free, but flattening two sets can re-introduce
	// overlaps, so the scan runs over the merged list.
	slices.SortFunc(kids, func(x, y *Expr) int { return cmp.Compare(x.id, y.id) })
	w := 0
	for i, e := range kids {
		if i > 0 && e == kids[i-1] {
			b.hit(dupR)
			continue
		}
		kids[w] = e
		w++
	}
	kids = kids[:w]

	// Complementary pair: x and ¬x together collapse to the zero element.
	for _, e := range kids {
		if e.Kind == KNot && containsNode(kids, e.Kids[0]) {
			b.hit(complR)
			return zero
		}
	}

	// Absorption: a dual-kind kid one of whose operands already appears in
	// the set is redundant (x ∧ (x∨y) → x; x ∨ (x∧y) → x). Absorbers are
	// never dual-kind themselves (dual kids are flattened), so dropping
	// absorbed kids cannot invalidate earlier absorption decisions.
	w = 0
	for _, e := range kids {
		absorbed := false
		if e.Kind == dual {
			for _, c := range e.Kids {
				if containsNode(kids, c) {
					absorbed = true
					break
				}
			}
		}
		if absorbed {
			b.hit(absorbR)
			continue
		}
		kids[w] = e
		w++
	}
	kids = kids[:w]

	switch len(kids) {
	case 0:
		return unit
	case 1:
		return kids[0]
	}

	// Guard factoring (disjunctions only): when every disjunct is a
	// conjunction and all share common conjuncts, hoist the shared part —
	// (p∧a) ∨ (p∧b) → p ∧ (a∨b). This is the structure of merged-state
	// guards: path-condition suffixes that re-conjoin a shared prefix
	// factor back out, so the bit-blaster encodes the prefix once.
	// (After absorption a surviving non-conjunction kid can never be a
	// conjunct of every other kid, so all-KAnd is a complete gate.)
	if k == KOr {
		all := true
		for _, e := range kids {
			if e.Kind != KAnd {
				all = false
				break
			}
		}
		if all {
			common := append([]*Expr(nil), kids[0].Kids...)
			for _, e := range kids[1:] {
				common = intersectSorted(common, e.Kids)
				if len(common) == 0 {
					break
				}
			}
			if len(common) > 0 {
				b.hit(rOrFactor)
				parts := make([]*Expr, 0, len(kids))
				for _, e := range kids {
					parts = append(parts, b.AndN(subtractSorted(e.Kids, common)))
				}
				return b.AndN(append(common, b.OrN(parts)))
			}
		}
	}

	return b.mk(&Expr{Kind: k, Kids: kids})
}

// bool2 is the allocation-free fast path for the binary case — the
// engine's hottest constructor call (one per executed branch). It handles
// units, zeros, duplicates, and complements directly, and reports !ok to
// route to the general slice path whenever a same-kind kid (flattening) or
// dual-kind kid (absorption, factoring) makes the full normalization
// necessary. Results are identical to the slice path by construction.
func (b *Builder) bool2(k Kind, x, y *Expr) (*Expr, bool) {
	unit, zero := b.true_, b.false_
	unitR, zeroR, dupR, complR := rAndUnit, rAndZero, rAndDup, rAndCompl
	dual := KOr
	if k == KOr {
		unit, zero = b.false_, b.true_
		unitR, zeroR, dupR, complR = rOrUnit, rOrOne, rOrDup, rOrCompl
		dual = KAnd
	}
	switch {
	case x == zero || y == zero:
		b.hit(zeroR)
		return zero, true
	case x == unit:
		b.hit(unitR)
		return y, true
	case y == unit:
		b.hit(unitR)
		return x, true
	case x == y:
		b.hit(dupR)
		return x, true
	}
	if x.Kind == k || y.Kind == k || x.Kind == dual || y.Kind == dual {
		return nil, false
	}
	if x.Kind == KNot && x.Kids[0] == y || y.Kind == KNot && y.Kids[0] == x {
		b.hit(complR)
		return zero, true
	}
	if y.id < x.id {
		x, y = y, x
	}
	return b.mk(&Expr{Kind: k, Kids: []*Expr{x, y}}), true
}

// containsNode reports membership of e in an ID-sorted node list.
func containsNode(sorted []*Expr, e *Expr) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid].id < e.id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == e
}

// intersectSorted intersects two ID-sorted node lists into a fresh slice
// reusing a's backing array (a is owned by the caller).
func intersectSorted(a, bs []*Expr) []*Expr {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(bs) {
		switch {
		case a[i].id < bs[j].id:
			i++
		case bs[j].id < a[i].id:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// subtractSorted returns a \ bs over ID-sorted node lists.
func subtractSorted(a, bs []*Expr) []*Expr {
	out := make([]*Expr, 0, len(a))
	j := 0
	for _, e := range a {
		for j < len(bs) && bs[j].id < e.id {
			j++
		}
		if j < len(bs) && bs[j] == e {
			continue
		}
		out = append(out, e)
	}
	return out
}

// --- Whole-expression simplification ---

// Simplify rebuilds e bottom-up through the rule-applying constructors,
// returning the canonical equivalent. On expressions already built by this
// Builder the walk is the identity (constructors are idempotent), which the
// tests use as the canonical-form check; it pays off on terms assembled
// before a rule existed. The memoized walk is linear in the DAG size.
func (b *Builder) Simplify(e *Expr) *Expr {
	return b.simplifyMemo(e, make(map[*Expr]*Expr, 64))
}

func (b *Builder) simplifyMemo(e *Expr, memo map[*Expr]*Expr) *Expr {
	if e.Kind == KConst || e.Kind == KVar {
		return e
	}
	if r, ok := memo[e]; ok {
		return r
	}
	kids := make([]*Expr, len(e.Kids))
	changed := false
	for i, k := range e.Kids {
		kids[i] = b.simplifyMemo(k, memo)
		changed = changed || kids[i] != k
	}
	r := e
	if changed {
		r = b.Rebuild(e, kids)
	}
	memo[e] = r
	return r
}

// Rebuild reconstructs a node with new children through the Builder so
// that constant folding and every rule apply. Kids must be
// sort-compatible with the original node.
func (b *Builder) Rebuild(e *Expr, k []*Expr) *Expr {
	switch e.Kind {
	case KNot:
		return b.Not(k[0])
	case KAnd:
		return b.AndN(k)
	case KOr:
		return b.OrN(k)
	case KEq:
		return b.Eq(k[0], k[1])
	case KUlt:
		return b.Ult(k[0], k[1])
	case KUle:
		return b.Ule(k[0], k[1])
	case KSlt:
		return b.Slt(k[0], k[1])
	case KSle:
		return b.Sle(k[0], k[1])
	case KAdd:
		return b.Add(k[0], k[1])
	case KSub:
		return b.Sub(k[0], k[1])
	case KMul:
		return b.Mul(k[0], k[1])
	case KUDiv:
		return b.UDiv(k[0], k[1])
	case KURem:
		return b.URem(k[0], k[1])
	case KSDiv:
		return b.SDiv(k[0], k[1])
	case KSRem:
		return b.SRem(k[0], k[1])
	case KBAnd:
		return b.BAnd(k[0], k[1])
	case KBOr:
		return b.BOr(k[0], k[1])
	case KBXor:
		return b.BXor(k[0], k[1])
	case KBNot:
		return b.BNot(k[0])
	case KNeg:
		return b.Neg(k[0])
	case KShl:
		return b.Shl(k[0], k[1])
	case KLShr:
		return b.LShr(k[0], k[1])
	case KAShr:
		return b.AShr(k[0], k[1])
	case KZExt:
		return b.ZExt(k[0], e.Width)
	case KExtract:
		return b.Extract(k[0], uint8(e.Aux), e.Width)
	case KIte:
		return b.Ite(k[0], k[1], k[2])
	}
	panic("expr: Rebuild of unexpected kind " + e.Kind.String())
}
