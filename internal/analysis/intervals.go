package analysis

import (
	"symmerge/internal/cfg"
	"symmerge/internal/ir"
)

// Interval is an inclusive integer range over the *semantic* value of a
// scalar local: Int locals range over signed 32-bit values, Byte over
// [0,255], Bool over [0,1], Ptr over unsigned 32-bit addresses. Lo > Hi is
// the empty interval (statically unreachable).
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval contains no value.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Const reports whether the interval pins a single value.
func (iv Interval) Const() bool { return iv.Lo == iv.Hi }

// Contains reports v ∈ iv.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Within reports iv ⊆ [lo,hi]; empty intervals are within everything.
func (iv Interval) Within(lo, hi int64) bool {
	return iv.Empty() || (iv.Lo >= lo && iv.Hi <= hi)
}

func (iv Interval) join(o Interval) Interval {
	if iv.Empty() {
		return o
	}
	if o.Empty() {
		return iv
	}
	return Interval{Lo: min64(iv.Lo, o.Lo), Hi: max64(iv.Hi, o.Hi)}
}

func (iv Interval) meet(o Interval) Interval {
	return Interval{Lo: max64(iv.Lo, o.Lo), Hi: min64(iv.Hi, o.Hi)}
}

// Origin tracks where a pointer value came from: the allocation site that
// minted it plus the accumulated cell-offset range. Site -1 means unknown
// (parameter, constant, merged across sites, or arithmetic we don't model);
// only OpAlloc destinations and values derived from them by ± constant-range
// arithmetic carry a site.
type Origin struct {
	Site int
	Off  Interval
}

var unknownOrigin = Origin{Site: -1}

func (o Origin) join(p Origin) Origin {
	if o.Site < 0 || p.Site < 0 || o.Site != p.Site {
		return unknownOrigin
	}
	return Origin{Site: o.Site, Off: o.Off.join(p.Off)}
}

// Type bounds: the semantic range of each scalar kind.
const (
	minInt32  = -1 << 31
	maxInt32  = 1<<31 - 1
	maxUint32 = 1<<32 - 1
)

// typeTop returns the full semantic range of a scalar type; arrays get the
// element range (an array local's interval stands for "any element").
func typeTop(t ir.Type) Interval {
	switch t.Kind {
	case ir.Bool:
		return Interval{0, 1}
	case ir.Byte, ir.ArrayByte:
		return Interval{0, 255}
	case ir.Ptr:
		return Interval{0, maxUint32}
	default:
		return Interval{minInt32, maxInt32}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ivFact is the forward fact: per-local intervals plus pointer origins.
// A nil fact is bottom (point not yet proven reachable).
type ivFact struct {
	iv  []Interval
	org []Origin
}

// intervalProblem implements Problem[*ivFact] for one function.
type intervalProblem struct {
	fn *ir.Func
	g  *cfg.FuncCFG
}

func (p *intervalProblem) Direction() Direction { return Forward }

func (p *intervalProblem) Bottom() *ivFact { return nil }

func (p *intervalProblem) Boundary() *ivFact {
	f := &ivFact{
		iv:  make([]Interval, len(p.fn.Locals)),
		org: make([]Origin, len(p.fn.Locals)),
	}
	for i, l := range p.fn.Locals {
		switch {
		case i < p.fn.Params:
			// Parameters are bound by arbitrary callers.
			f.iv[i] = typeTop(l.Type)
		case l.Type.Scalar():
			// Non-parameter scalars are zero-initialized by the engine.
			f.iv[i] = Interval{0, 0}
		default:
			// Array intervals stand for "any element" and stores never
			// narrow them, so they must start (and stay) at the element top.
			f.iv[i] = typeTop(l.Type)
		}
		f.org[i] = unknownOrigin
	}
	return f
}

func (p *intervalProblem) Join(a, b *ivFact) *ivFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &ivFact{iv: make([]Interval, len(a.iv)), org: make([]Origin, len(a.org))}
	for i := range a.iv {
		out.iv[i] = a.iv[i].join(b.iv[i])
		out.org[i] = a.org[i].join(b.org[i])
	}
	return out
}

func (p *intervalProblem) Equal(a, b *ivFact) bool {
	if a == nil || b == nil {
		return a == b
	}
	for i := range a.iv {
		if a.iv[i] != b.iv[i] || a.org[i] != b.org[i] {
			return false
		}
	}
	return true
}

// Widen jumps still-climbing bounds to the local's type extremes. Pointer
// origins have no branch refinement to recover precision from, so a
// still-climbing offset range drops the origin to unknown outright —
// otherwise a pointer-increment loop ascends one cell per round and the
// fixpoint never closes.
func (p *intervalProblem) Widen(prev, next *ivFact) *ivFact {
	if prev == nil || next == nil {
		return next
	}
	out := &ivFact{iv: make([]Interval, len(next.iv)), org: make([]Origin, len(next.org))}
	copy(out.org, next.org)
	for i := range next.iv {
		w := next.iv[i]
		top := typeTop(p.fn.Locals[i].Type)
		if !prev.iv[i].Empty() {
			if w.Lo < prev.iv[i].Lo {
				w.Lo = top.Lo
			}
			if w.Hi > prev.iv[i].Hi {
				w.Hi = top.Hi
			}
		}
		out.iv[i] = w
		if po, no := prev.org[i], next.org[i]; no.Site >= 0 && po.Site == no.Site &&
			(no.Off.Lo < po.Off.Lo || no.Off.Hi > po.Off.Hi) {
			out.org[i] = unknownOrigin
		}
	}
	return out
}

// operand returns the interval of an operand under the fact.
func (f *ivFact) operand(o ir.Operand) Interval {
	if o.IsConst {
		return Interval{o.Const, o.Const}
	}
	return f.iv[o.Local]
}

func (f *ivFact) origin(o ir.Operand) Origin {
	if o.IsConst {
		return unknownOrigin
	}
	return f.org[o.Local]
}

func (f *ivFact) clone() *ivFact {
	out := &ivFact{iv: make([]Interval, len(f.iv)), org: make([]Origin, len(f.org))}
	copy(out.iv, f.iv)
	copy(out.org, f.org)
	return out
}

// set returns a copy of f with dst's interval (and origin) replaced. The
// interval is clamped to the destination's type range: the engine's
// arithmetic is width-wrapping, so any candidate outside the range means
// the transfer must give up to the type top, which the callers pass.
func (p *intervalProblem) set(f *ivFact, dst int, iv Interval, org Origin) *ivFact {
	out := f.clone()
	out.iv[dst] = iv
	out.org[dst] = org
	return out
}

// fit returns cand when it lies inside dst's type range (no wraparound
// possible), and the type top otherwise.
func (p *intervalProblem) fit(dst int, cand Interval) Interval {
	top := typeTop(p.fn.Locals[dst].Type)
	if cand.Empty() {
		return cand
	}
	if cand.Lo >= top.Lo && cand.Hi <= top.Hi {
		return cand
	}
	return top
}

func (p *intervalProblem) Transfer(pc int, f *ivFact) *ivFact {
	if f == nil {
		return nil
	}
	in := &p.fn.Instrs[pc]
	if in.Dst < 0 || in.Op == ir.OpStore {
		// No scalar destination (OpStore's Dst names the array, not a
		// def): assume/assert/out/store/br/... leave the fact unchanged
		// (ignoring assume/assert constraints is a sound
		// over-approximation).
		return f
	}
	dst := in.Dst
	top := typeTop(p.fn.Locals[dst].Type)
	a := f.operand(in.A)
	b := f.operand(in.B)
	switch in.Op {
	case ir.OpMov:
		return p.set(f, dst, p.fit(dst, a), f.origin(in.A))
	case ir.OpAdd:
		iv := p.fit(dst, Interval{a.Lo + b.Lo, a.Hi + b.Hi})
		org := unknownOrigin
		if oa := f.origin(in.A); oa.Site >= 0 && !b.Empty() {
			org = Origin{Site: oa.Site, Off: Interval{oa.Off.Lo + b.Lo, oa.Off.Hi + b.Hi}}
		} else if ob := f.origin(in.B); ob.Site >= 0 && !a.Empty() {
			org = Origin{Site: ob.Site, Off: Interval{ob.Off.Lo + a.Lo, ob.Off.Hi + a.Hi}}
		}
		return p.set(f, dst, iv, org)
	case ir.OpSub:
		iv := p.fit(dst, Interval{a.Lo - b.Hi, a.Hi - b.Lo})
		org := unknownOrigin
		if oa := f.origin(in.A); oa.Site >= 0 && !b.Empty() {
			org = Origin{Site: oa.Site, Off: Interval{oa.Off.Lo - b.Hi, oa.Off.Hi - b.Lo}}
		}
		return p.set(f, dst, iv, org)
	case ir.OpMul:
		if a.Empty() || b.Empty() {
			return p.set(f, dst, top, unknownOrigin)
		}
		p1, p2, p3, p4 := a.Lo*b.Lo, a.Lo*b.Hi, a.Hi*b.Lo, a.Hi*b.Hi
		// Bail on 64-bit overflow of the candidate products themselves.
		if abs64(a.Lo) > 1<<31 || abs64(a.Hi) > 1<<31 || abs64(b.Lo) > 1<<31 || abs64(b.Hi) > 1<<31 {
			return p.set(f, dst, top, unknownOrigin)
		}
		lo := min64(min64(p1, p2), min64(p3, p4))
		hi := max64(max64(p1, p2), max64(p3, p4))
		return p.set(f, dst, p.fit(dst, Interval{lo, hi}), unknownOrigin)
	case ir.OpDiv:
		if !a.Empty() && !b.Empty() && a.Lo >= 0 && b.Lo >= 1 {
			return p.set(f, dst, p.fit(dst, Interval{a.Lo / b.Hi, a.Hi / b.Lo}), unknownOrigin)
		}
		return p.set(f, dst, top, unknownOrigin)
	case ir.OpRem:
		if !a.Empty() && !b.Empty() && a.Lo >= 0 && b.Lo >= 1 {
			return p.set(f, dst, p.fit(dst, Interval{0, min64(a.Hi, b.Hi-1)}), unknownOrigin)
		}
		return p.set(f, dst, top, unknownOrigin)
	case ir.OpAnd:
		if !a.Empty() && !b.Empty() && a.Lo >= 0 && b.Lo >= 0 {
			return p.set(f, dst, p.fit(dst, Interval{0, min64(a.Hi, b.Hi)}), unknownOrigin)
		}
		return p.set(f, dst, top, unknownOrigin)
	case ir.OpOrB, ir.OpXor:
		if !a.Empty() && !b.Empty() && a.Lo >= 0 && b.Lo >= 0 {
			hi := roundUpPow2(max64(a.Hi, b.Hi))
			lo := int64(0)
			if in.Op == ir.OpOrB {
				lo = max64(a.Lo, b.Lo)
			}
			return p.set(f, dst, p.fit(dst, Interval{lo, hi}), unknownOrigin)
		}
		return p.set(f, dst, top, unknownOrigin)
	case ir.OpShl:
		if !a.Empty() && !b.Empty() && a.Lo >= 0 && b.Lo >= 0 && b.Hi <= 31 {
			return p.set(f, dst, p.fit(dst, Interval{a.Lo << uint(b.Lo), a.Hi << uint(b.Hi)}), unknownOrigin)
		}
		return p.set(f, dst, top, unknownOrigin)
	case ir.OpShr:
		if !a.Empty() && !b.Empty() && a.Lo >= 0 && b.Lo >= 0 && b.Hi <= 63 {
			return p.set(f, dst, p.fit(dst, Interval{a.Lo >> uint(b.Hi), a.Hi >> uint(b.Lo)}), unknownOrigin)
		}
		return p.set(f, dst, top, unknownOrigin)
	case ir.OpNeg:
		return p.set(f, dst, p.fit(dst, Interval{-a.Hi, -a.Lo}), unknownOrigin)
	case ir.OpBNot:
		switch in.T.Kind {
		case ir.Byte:
			return p.set(f, dst, p.fit(dst, Interval{255 - a.Hi, 255 - a.Lo}), unknownOrigin)
		case ir.Int:
			return p.set(f, dst, p.fit(dst, Interval{-a.Hi - 1, -a.Lo - 1}), unknownOrigin)
		}
		return p.set(f, dst, top, unknownOrigin)
	case ir.OpNot:
		if a.Empty() {
			return p.set(f, dst, a, unknownOrigin)
		}
		return p.set(f, dst, Interval{1 - min64(a.Hi, 1), 1 - max64(a.Lo, 0)}, unknownOrigin)
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe:
		return p.set(f, dst, compareInterval(in.Op, a, b), unknownOrigin)
	case ir.OpBoolAnd:
		switch {
		case a.Empty() || b.Empty():
			return p.set(f, dst, Interval{0, 1}, unknownOrigin)
		case a.Lo >= 1 && b.Lo >= 1:
			return p.set(f, dst, Interval{1, 1}, unknownOrigin)
		case a.Hi <= 0 || b.Hi <= 0:
			return p.set(f, dst, Interval{0, 0}, unknownOrigin)
		}
		return p.set(f, dst, Interval{0, 1}, unknownOrigin)
	case ir.OpBoolOr:
		switch {
		case a.Empty() || b.Empty():
			return p.set(f, dst, Interval{0, 1}, unknownOrigin)
		case a.Lo >= 1 || b.Lo >= 1:
			return p.set(f, dst, Interval{1, 1}, unknownOrigin)
		case a.Hi <= 0 && b.Hi <= 0:
			return p.set(f, dst, Interval{0, 0}, unknownOrigin)
		}
		return p.set(f, dst, Interval{0, 1}, unknownOrigin)
	case ir.OpIntToByte:
		if a.Within(0, 255) {
			return p.set(f, dst, a, unknownOrigin)
		}
		return p.set(f, dst, Interval{0, 255}, unknownOrigin)
	case ir.OpByteToInt, ir.OpBoolToInt:
		return p.set(f, dst, p.fit(dst, a), unknownOrigin)
	case ir.OpLoad:
		// Element range of the source array's type: byte arrays load [0,255].
		if !in.A.IsConst {
			return p.set(f, dst, typeTop(p.fn.Locals[in.A.Local].Type), unknownOrigin)
		}
		return p.set(f, dst, top, unknownOrigin)
	case ir.OpAlloc:
		return p.set(f, dst, top, Origin{Site: in.Site, Off: Interval{0, 0}})
	case ir.OpArgChar, ir.OpStdin, ir.OpSymByte:
		return p.set(f, dst, Interval{0, 255}, unknownOrigin)
	case ir.OpSymBool:
		return p.set(f, dst, Interval{0, 1}, unknownOrigin)
	case ir.OpArgc, ir.OpStdinLen:
		return p.set(f, dst, Interval{0, maxInt32}, unknownOrigin)
	default:
		// OpPtrLoad, OpCall, OpSymInt, and anything unmodelled: type top.
		return p.set(f, dst, top, unknownOrigin)
	}
}

// abs64 is |v| without the math import.
func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// roundUpPow2 returns 2^k-1 covering v (the OR/XOR upper bound for
// non-negative operands).
func roundUpPow2(v int64) int64 {
	out := int64(1)
	for out-1 < v && out < 1<<62 {
		out <<= 1
	}
	return out - 1
}

// compareInterval statically decides a comparison where possible; the
// operands' semantic domains already encode signedness, so numeric
// comparison of the bounds is exact.
func compareInterval(op ir.Op, a, b Interval) Interval {
	if a.Empty() || b.Empty() {
		return Interval{0, 1}
	}
	switch op {
	case ir.OpLt:
		if a.Hi < b.Lo {
			return Interval{1, 1}
		}
		if a.Lo >= b.Hi {
			return Interval{0, 0}
		}
	case ir.OpLe:
		if a.Hi <= b.Lo {
			return Interval{1, 1}
		}
		if a.Lo > b.Hi {
			return Interval{0, 0}
		}
	case ir.OpEq:
		if a.Const() && b.Const() && a.Lo == b.Lo {
			return Interval{1, 1}
		}
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return Interval{0, 0}
		}
	case ir.OpNe:
		if a.Const() && b.Const() && a.Lo == b.Lo {
			return Interval{0, 0}
		}
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return Interval{1, 1}
		}
	}
	return Interval{0, 1}
}

// RefineEdge sharpens facts along branch edges: the condition local becomes
// 1/0, and when the condition was defined by a comparison in the same block
// (with operands untouched since), the compared locals' intervals narrow.
// An edge whose refinement empties an interval is statically infeasible and
// propagates bottom.
func (p *intervalProblem) RefineEdge(pc, succ int, f *ivFact) *ivFact {
	if f == nil {
		return nil
	}
	in := &p.fn.Instrs[pc]
	if in.Op != ir.OpCondBr || in.A.IsConst || in.Target == in.FTarget {
		return f
	}
	var taken bool
	switch succ {
	case in.Target:
		taken = true
	case in.FTarget:
		taken = false
	default:
		return f
	}
	out := f.clone()
	cond := in.A.Local
	if taken {
		out.iv[cond] = out.iv[cond].meet(Interval{1, 1})
	} else {
		out.iv[cond] = out.iv[cond].meet(Interval{0, 0})
	}
	if out.iv[cond].Empty() {
		return nil
	}
	if cmp := p.definingCompare(pc, cond); cmp != nil {
		refineCompare(out, cmp, taken)
		for _, iv := range out.iv {
			if iv.Empty() {
				return nil
			}
		}
	}
	return out
}

// definingCompare finds the comparison defining the branch condition inside
// the branch's block, provided neither the condition nor the compared
// locals are redefined between the comparison and the branch.
func (p *intervalProblem) definingCompare(branchPC, cond int) *ir.Instr {
	b := p.g.Blocks[p.g.BlockOf[branchPC]]
	defPC := -1
	for pc := branchPC - 1; pc >= b.Start; pc-- {
		if p.fn.Instrs[pc].Dst == cond {
			defPC = pc
			break
		}
	}
	if defPC < 0 {
		return nil
	}
	cmp := &p.fn.Instrs[defPC]
	switch cmp.Op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe:
	default:
		return nil
	}
	for pc := defPC + 1; pc < branchPC; pc++ {
		d := p.fn.Instrs[pc].Dst
		if d < 0 {
			continue
		}
		if (!cmp.A.IsConst && d == cmp.A.Local) || (!cmp.B.IsConst && d == cmp.B.Local) {
			return nil
		}
	}
	return cmp
}

// refineCompare narrows the compared operands' intervals in place on out.
func refineCompare(out *ivFact, cmp *ir.Instr, taken bool) {
	a := out.operand(cmp.A)
	b := out.operand(cmp.B)
	op := cmp.Op
	if !taken {
		// Negate: !(a<b) = b<=a, !(a<=b) = b<a, !(a==b) = a!=b, !(a!=b) = a==b.
		switch op {
		case ir.OpLt:
			op, a, b = ir.OpLe, b, a
			defer func() { writeBack(out, cmp.B, cmp.A, a, b) }()
		case ir.OpLe:
			op, a, b = ir.OpLt, b, a
			defer func() { writeBack(out, cmp.B, cmp.A, a, b) }()
		case ir.OpEq:
			op = ir.OpNe
			defer func() { writeBack(out, cmp.A, cmp.B, a, b) }()
		case ir.OpNe:
			op = ir.OpEq
			defer func() { writeBack(out, cmp.A, cmp.B, a, b) }()
		}
	} else {
		defer func() { writeBack(out, cmp.A, cmp.B, a, b) }()
	}
	switch op {
	case ir.OpLt: // a < b
		a = a.meet(Interval{a.Lo, b.Hi - 1})
		b = b.meet(Interval{a.Lo + 1, b.Hi})
	case ir.OpLe: // a <= b
		a = a.meet(Interval{a.Lo, b.Hi})
		b = b.meet(Interval{a.Lo, b.Hi})
	case ir.OpEq:
		m := a.meet(b)
		a, b = m, m
	case ir.OpNe:
		if b.Const() {
			if a.Lo == b.Lo {
				a.Lo++
			}
			if a.Hi == b.Lo {
				a.Hi--
			}
		}
		if a.Const() {
			if b.Lo == a.Lo {
				b.Lo++
			}
			if b.Hi == a.Lo {
				b.Hi--
			}
		}
	}
}

// writeBack stores refined operand intervals into the fact (constants have
// no slot to refine).
func writeBack(out *ivFact, oa, ob ir.Operand, a, b Interval) {
	if !oa.IsConst {
		out.iv[oa.Local] = a
	}
	if !ob.IsConst {
		out.iv[ob.Local] = b
	}
}
