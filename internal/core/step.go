package core

import (
	"fmt"

	"symmerge/internal/analysis"
	"symmerge/internal/expr"
	"symmerge/internal/ir"
)

// stepBlock executes the state up to the next basic-block boundary (branch
// taken, call, return, halt) and returns the successor states. The input
// state is reused as one of the successors whenever possible.
func (e *Engine) stepBlock(s *State) []*State {
	s.justRet = false
	for {
		f := s.top()
		fn := e.prog.Funcs[f.Fn]
		if f.PC >= len(fn.Instrs) {
			// Fell off the function end; treat as return (main: halt).
			if done := e.doReturnValue(s, nil); done {
				return []*State{s}
			}
			return e.blockBoundary(s)
		}
		loc := ir.Loc{Fn: f.Fn, PC: f.PC}
		in := &fn.Instrs[f.PC]
		e.markCovered(loc)
		e.stats.Instructions++

		switch in.Op {
		case ir.OpNop:
			f.PC++
		case ir.OpMov, ir.OpNot, ir.OpNeg, ir.OpBNot,
			ir.OpIntToByte, ir.OpByteToInt, ir.OpBoolToInt:
			f.Locals[in.Dst] = Value{E: e.evalUnary(s, in)}
			f.PC++
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOrB, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpBoolAnd, ir.OpBoolOr:
			f.Locals[in.Dst] = Value{E: e.evalBinary(s, in)}
			f.PC++
		case ir.OpLoad:
			v, err := e.doLoad(s, in)
			if err != nil {
				e.failPath(s, loc, in.Pos, err.Error())
				return []*State{s}
			}
			f.Locals[in.Dst] = Value{E: v}
			f.PC++
		case ir.OpStore:
			if err := e.doStore(s, in); err != nil {
				e.failPath(s, loc, in.Pos, err.Error())
				return []*State{s}
			}
			f.PC++
		case ir.OpAlloc:
			v, err := e.doAlloc(s, in)
			if err != nil {
				e.failPath(s, loc, in.Pos, err.Error())
				return []*State{s}
			}
			f.Locals[in.Dst] = Value{E: v}
			f.PC++
		case ir.OpPtrLoad:
			v, err := e.doPtrLoad(s, in)
			if err != nil {
				e.failPath(s, loc, in.Pos, err.Error())
				return []*State{s}
			}
			f.Locals[in.Dst] = Value{E: v}
			f.PC++
		case ir.OpPtrStore:
			if err := e.doPtrStore(s, in); err != nil {
				e.failPath(s, loc, in.Pos, err.Error())
				return []*State{s}
			}
			f.PC++
		case ir.OpArgc:
			f.Locals[in.Dst] = Value{E: e.build.Const(uint64(e.cfg.NArgs+1), 32)}
			f.PC++
		case ir.OpArgChar:
			f.Locals[in.Dst] = Value{E: e.doArgChar(s, in)}
			f.PC++
		case ir.OpStdin:
			idx := e.operand(s, in.A, ir.Type{Kind: ir.Int})
			f.Locals[in.Dst] = Value{E: e.build.SelectIte(e.stdin, idx, e.zero8)}
			f.PC++
		case ir.OpStdinLen:
			f.Locals[in.Dst] = Value{E: e.build.Const(uint64(e.cfg.StdinLen), 32)}
			f.PC++
		case ir.OpOut:
			v := e.operand(s, in.A, in.T)
			if in.T.Kind == ir.Int {
				v = e.build.Extract(v, 0, 8)
			}
			s.Output = putOut(s.Output, v)
			f.PC++
		case ir.OpSymInt, ir.OpSymByte, ir.OpSymBool:
			f.Locals[in.Dst] = Value{E: e.freshInput(s, in.Op)}
			f.PC++
		case ir.OpMakeSymArr:
			e.doMakeSymbolic(s, in)
			f.PC++
		case ir.OpAssume:
			cond := e.operand(s, in.A, ir.Type{Kind: ir.Bool})
			if !e.assume(s, cond) {
				s.Halt = HaltSilent // path contradiction: drop
				return []*State{s}
			}
			f.PC++
		case ir.OpAssert:
			return e.doAssert(s, in, loc)
		case ir.OpBr:
			f.PC = in.Target
			return e.blockBoundary(s)
		case ir.OpCondBr:
			return e.doBranch(s, in, loc)
		case ir.OpCall:
			e.doCall(s, in)
			return e.blockBoundary(s)
		case ir.OpRet:
			var rv *expr.Expr
			if in.HasVal {
				rv = e.operand(s, in.A, in.T)
			}
			if done := e.doReturnValue(s, rv); done {
				return []*State{s}
			}
			return e.blockBoundary(s)
		case ir.OpHalt:
			s.Halt = HaltExit
			if in.HasVal {
				s.ExitCode = e.operand(s, in.A, in.T)
			}
			return []*State{s}
		default:
			panic(fmt.Sprintf("core: unknown opcode %v", in.Op))
		}
	}
}

// blockBoundary finalizes a step that ended at a new block: DSM history and
// current-hash maintenance happen here.
func (e *Engine) blockBoundary(s *State) []*State {
	if e.cfg.Merge == MergeDSM {
		h := e.simHash(s)
		s.pushHistory(h, e.cfg.DSMDelta)
	}
	return []*State{s}
}

// operand evaluates an operand in the current frame.
func (e *Engine) operand(s *State, o ir.Operand, t ir.Type) *expr.Expr {
	if o.IsConst {
		switch t.Kind {
		case ir.Bool:
			return e.build.Bool(o.Const != 0)
		case ir.Byte:
			return e.build.Const(uint64(o.Const), 8)
		default:
			return e.build.Const(uint64(o.Const), 32)
		}
	}
	v := s.top().Locals[o.Local]
	if v.E == nil {
		panic(fmt.Sprintf("core: scalar read of array local %d", o.Local))
	}
	return v.E
}

func (e *Engine) evalUnary(s *State, in *ir.Instr) *expr.Expr {
	b := e.build
	switch in.Op {
	case ir.OpMov:
		return e.operand(s, in.A, in.T)
	case ir.OpNot:
		return b.Not(e.operand(s, in.A, ir.Type{Kind: ir.Bool}))
	case ir.OpNeg:
		return b.Neg(e.operand(s, in.A, in.T))
	case ir.OpBNot:
		return b.BNot(e.operand(s, in.A, in.T))
	case ir.OpIntToByte:
		return b.Extract(e.operand(s, in.A, ir.Type{Kind: ir.Int}), 0, 8)
	case ir.OpByteToInt:
		return b.ZExt(e.operand(s, in.A, ir.Type{Kind: ir.Byte}), 32)
	case ir.OpBoolToInt:
		c := e.operand(s, in.A, ir.Type{Kind: ir.Bool})
		return b.Ite(c, b.Const(1, 32), e.zero32)
	}
	panic("core: evalUnary on " + in.Op.String())
}

func (e *Engine) evalBinary(s *State, in *ir.Instr) *expr.Expr {
	b := e.build
	t := in.T
	x := e.operand(s, in.A, t)
	y := e.operand(s, in.B, t)
	signed := t.Kind == ir.Int // bytes are unsigned, ints signed
	switch in.Op {
	case ir.OpAdd:
		return b.Add(x, y)
	case ir.OpSub:
		return b.Sub(x, y)
	case ir.OpMul:
		return b.Mul(x, y)
	case ir.OpDiv:
		if signed {
			return b.SDiv(x, y)
		}
		return b.UDiv(x, y)
	case ir.OpRem:
		if signed {
			return b.SRem(x, y)
		}
		return b.URem(x, y)
	case ir.OpAnd:
		return b.BAnd(x, y)
	case ir.OpOrB:
		return b.BOr(x, y)
	case ir.OpXor:
		return b.BXor(x, y)
	case ir.OpShl:
		return b.Shl(x, y)
	case ir.OpShr:
		if signed {
			return b.AShr(x, y)
		}
		return b.LShr(x, y)
	case ir.OpEq:
		return b.Eq(x, y)
	case ir.OpNe:
		return b.Ne(x, y)
	case ir.OpLt:
		if signed {
			return b.Slt(x, y)
		}
		return b.Ult(x, y)
	case ir.OpLe:
		if signed {
			return b.Sle(x, y)
		}
		return b.Ule(x, y)
	case ir.OpBoolAnd:
		return b.And(x, y)
	case ir.OpBoolOr:
		return b.Or(x, y)
	}
	panic("core: evalBinary on " + in.Op.String())
}

// arrayRef returns the object reference held by an array-typed operand.
func (s *State) arrayRef(o ir.Operand) ObjRef {
	v := s.top().Locals[o.Local]
	if v.E != nil {
		panic("core: array operand holds scalar")
	}
	return v.Ref
}

// doLoad implements Dst = Arr[Idx]. A symbolic index expands to an ite chain
// over the cells — exactly the cost the paper attributes to merged states
// whose indices became symbolic (§3.1). Out of bounds reads 0 unless
// CheckBounds is set.
func (e *Engine) doLoad(s *State, in *ir.Instr) (*expr.Expr, error) {
	obj := s.object(s.arrayRef(in.A), false)
	idx := e.operand(s, in.B, ir.Type{Kind: ir.Int})
	oob := e.zero8
	if obj.Width == 32 {
		oob = e.zero32
	}
	if e.cfg.CheckBounds {
		if e.indexElidable(s, in.B, len(obj.Cells)) {
			e.noteElided(s, "bounds")
		} else if err := e.checkIndex(s, idx, len(obj.Cells)); err != nil {
			return nil, err
		}
	}
	return e.build.SelectIte(obj.Cells, idx, oob), nil
}

// doStore implements Arr[Idx] = Val. A symbolic index rewrites every cell
// with a guarded ite. Out of bounds is a no-op unless CheckBounds is set.
func (e *Engine) doStore(s *State, in *ir.Instr) error {
	ref := s.arrayRef(ir.LocalOp(in.Dst))
	idx := e.operand(s, in.A, ir.Type{Kind: ir.Int})
	val := e.operand(s, in.B, in.T)
	obj := s.object(ref, true)
	if e.cfg.CheckBounds {
		if e.indexElidable(s, in.A, len(obj.Cells)) {
			e.noteElided(s, "bounds")
		} else if err := e.checkIndex(s, idx, len(obj.Cells)); err != nil {
			return err
		}
	}
	if idx.IsConst() {
		i := int(int32(idx.Val))
		if i >= 0 && i < len(obj.Cells) {
			obj.Cells[i] = val
		}
		return nil
	}
	for i := range obj.Cells {
		c := e.build.Eq(idx, e.build.Const(uint64(i), 32))
		obj.Cells[i] = e.build.Ite(c, val, obj.Cells[i])
	}
	return nil
}

// doAlloc implements Dst = alloc(A): a fresh zero-initialized heap object at
// the instruction's allocation site. The size must have folded to a constant
// — a genuinely symbolic size is a path error (concretization policies are a
// deliberate non-goal for now; see ROADMAP). The returned address is
// allocation-site-canonical (ir.HeapBase), so it depends only on the path,
// not on scheduling.
func (e *Engine) doAlloc(s *State, in *ir.Instr) (*expr.Expr, error) {
	size := e.operand(s, in.A, ir.Type{Kind: ir.Int})
	if !size.IsConst() {
		return nil, fmt.Errorf("symbolic allocation size at site %d", in.Site)
	}
	n := int(int32(size.Val))
	if n < 0 || n > ir.HeapMaxCells {
		return nil, fmt.Errorf("allocation size %d out of range [0,%d]", n, ir.HeapMaxCells)
	}
	count := int(s.allocs[in.Site])
	if count >= ir.HeapSiteSpan || in.Site*ir.HeapSiteSpan+count > ir.HeapMaxID {
		return nil, fmt.Errorf("allocation site %d executed %d times (max %d)",
			in.Site, count, ir.HeapSiteSpan)
	}
	s.allocs[in.Site]++
	base := ir.HeapBase(in.Site, count)
	cells := make([]*expr.Expr, n)
	for i := range cells {
		cells[i] = e.zero32
	}
	s.insertHeap(ir.HeapObjField(base), &Object{Cells: cells, Width: 32})
	return e.build.Const(uint64(base), 32), nil
}

// heapAddrParts splits an address expression into its object field and cell
// offset (both 32-bit; constant addresses fold at the builder).
func (e *Engine) heapAddrParts(addr *expr.Expr) (objF, off *expr.Expr) {
	objF = e.build.LShr(addr, e.build.Const(ir.HeapOffBits, 32))
	off = e.build.BAnd(addr, e.build.Const(ir.HeapMaxCells-1, 32))
	return objF, off
}

// doPtrLoad implements Dst = *(A). A concrete address reads its cell
// directly; a symbolic address lowers to nested guarded selects — one
// object-identity guard per live heap object, each wrapping the familiar
// SelectIte over that object's cells — exactly the ite expansion the paper
// charges to merged states whose addresses went symbolic (§3.1). Unmapped or
// out-of-bounds reads yield 0 unless CheckBounds is set.
func (e *Engine) doPtrLoad(s *State, in *ir.Instr) (*expr.Expr, error) {
	addr := e.operand(s, in.A, ir.Type{Kind: ir.Ptr})
	if e.cfg.CheckBounds {
		if e.heapElidable(s, in.A) {
			e.noteElided(s, "heap")
		} else if err := e.checkHeapAddr(s, addr); err != nil {
			return nil, err
		}
	}
	if addr.IsConst() {
		a := uint32(addr.Val)
		obj := s.heapObjByAddr(a)
		if obj == nil {
			return e.zero32, nil
		}
		off := int(ir.HeapOffset(a))
		if off >= len(obj.Cells) {
			return e.zero32, nil
		}
		return obj.Cells[off], nil
	}
	objF, off := e.heapAddrParts(addr)
	res := e.zero32
	for _, h := range s.heap {
		g := e.build.Eq(objF, e.build.Const(uint64(h.id), 32))
		if g.IsFalse() {
			continue
		}
		sel := e.build.SelectIte(h.obj.Cells, off, e.zero32)
		if g.IsTrue() {
			// The object field was concrete after all: no other object
			// can match, and earlier guards all folded to false.
			return sel, nil
		}
		res = e.build.Ite(g, sel, res)
	}
	return res, nil
}

// doPtrStore implements *(A) = B with the same lowering as doPtrLoad: a
// concrete address writes one cell of one (copy-on-write) object; a symbolic
// address rewrites every cell of every possibly-matching object under an
// object-identity ∧ offset guard. Unmapped or out-of-bounds writes are
// dropped unless CheckBounds is set.
func (e *Engine) doPtrStore(s *State, in *ir.Instr) error {
	addr := e.operand(s, in.A, ir.Type{Kind: ir.Ptr})
	val := e.operand(s, in.B, ir.Type{Kind: ir.Int})
	if e.cfg.CheckBounds {
		if e.heapElidable(s, in.A) {
			e.noteElided(s, "heap")
		} else if err := e.checkHeapAddr(s, addr); err != nil {
			return err
		}
	}
	if addr.IsConst() {
		a := uint32(addr.Val)
		i := s.findHeap(ir.HeapObjField(a))
		if i < 0 {
			return nil
		}
		off := int(ir.HeapOffset(a))
		if off >= len(s.heap[i].obj.Cells) {
			return nil
		}
		s.heapObjectAt(i, true).Cells[off] = val
		return nil
	}
	objF, off := e.heapAddrParts(addr)
	for i := range s.heap {
		g := e.build.Eq(objF, e.build.Const(uint64(s.heap[i].id), 32))
		if g.IsFalse() {
			continue
		}
		obj := s.heapObjectAt(i, true)
		for ci := range obj.Cells {
			cond := e.build.And(g, e.build.Eq(off, e.build.Const(uint64(ci), 32)))
			obj.Cells[ci] = e.build.Ite(cond, val, obj.Cells[ci])
		}
		if g.IsTrue() {
			return nil // concrete object field: no other object can match
		}
	}
	return nil
}

// checkHeapAddr reports an error if the address can fall outside every live
// heap object (the heap counterpart of checkIndex, for CheckBounds runs).
func (e *Engine) checkHeapAddr(s *State, addr *expr.Expr) error {
	objF, off := e.heapAddrParts(addr)
	valid := e.build.Bool(false)
	for _, h := range s.heap {
		g := e.build.And(
			e.build.Eq(objF, e.build.Const(uint64(h.id), 32)),
			e.build.Ult(off, e.build.Const(uint64(len(h.obj.Cells)), 32)))
		valid = e.build.Or(valid, g)
	}
	may, err := e.solv.MayBeTrueIn(s.sess, s.PC, e.build.Not(valid))
	if err != nil {
		return err
	}
	if may {
		return fmt.Errorf("heap access can fall outside every allocation")
	}
	return nil
}

// checkIndex reports an error if the index can fall outside [0, n).
func (e *Engine) checkIndex(s *State, idx *expr.Expr, n int) error {
	inBounds := e.build.Ult(idx, e.build.Const(uint64(n), 32)) // unsigned: negative is huge
	may, err := e.solv.MayBeTrueIn(s.sess, s.PC, e.build.Not(inBounds))
	if err != nil {
		return err
	}
	if may {
		return fmt.Errorf("array index can exceed bounds [0,%d)", n)
	}
	return nil
}

// indexElidable reports whether interval analysis proves the index operand
// lies in [0, n) at the current location. The bound holds over every
// execution reaching this pc, so checkIndex's query is fixed at unsat and
// skipping it cannot change the solution set.
func (e *Engine) indexElidable(s *State, o ir.Operand, n int) bool {
	if e.an == nil {
		return false
	}
	f := s.top()
	return e.an.Funcs[f.Fn].IndexInBounds(f.PC, o, n)
}

// heapElidable reports whether pointer analysis pins the address operand to
// a single allocation site with an in-object offset range. The site's object
// is live (never freed) on every path reaching the dereference, so
// checkHeapAddr would always pass.
func (e *Engine) heapElidable(s *State, o ir.Operand) bool {
	if e.an == nil {
		return false
	}
	f := s.top()
	return e.an.PtrSite(e.an.Funcs[f.Fn], f.PC, o) >= 0
}

// noteElided attributes one statically-discharged bounds/heap check.
func (e *Engine) noteElided(s *State, kind string) {
	f := s.top()
	e.stats.BoundsElided++
	e.obs.PruneStatic(s.ID, f.Fn, f.PC, kind)
}

// doArgChar reads argv[A][B]. argv[0] is the concrete program name; symbolic
// arguments are byte cells with a forced zero terminator (paper §3.1's input
// preconditions).
func (e *Engine) doArgChar(s *State, in *ir.Instr) *expr.Expr {
	b := e.build
	ai := e.operand(s, in.A, ir.Type{Kind: ir.Int})
	ci := e.operand(s, in.B, ir.Type{Kind: ir.Int})
	// Build per-argument reads, then select over the argument index.
	readArg := func(arg int) *expr.Expr {
		if arg == 0 {
			cells := make([]*expr.Expr, len(e.argv0)+1)
			for i, c := range e.argv0 {
				cells[i] = b.Const(uint64(c), 8)
			}
			cells[len(e.argv0)] = e.zero8
			return b.SelectIte(cells, ci, e.zero8)
		}
		if arg-1 < len(e.argv) {
			return b.SelectIte(e.argv[arg-1], ci, e.zero8)
		}
		return e.zero8
	}
	if ai.IsConst() {
		return readArg(int(int32(ai.Val)))
	}
	res := e.zero8
	for arg := e.cfg.NArgs; arg >= 0; arg-- {
		res = b.Ite(b.Eq(ai, b.Const(uint64(arg), 32)), readArg(arg), res)
	}
	return res
}

// freshInput introduces a new symbolic input variable on this path.
func (e *Engine) freshInput(s *State, op ir.Op) *expr.Expr {
	name := fmt.Sprintf("sym%d", s.nSyms)
	s.nSyms++
	switch op {
	case ir.OpSymInt:
		return e.build.Var(name, 32)
	case ir.OpSymByte:
		return e.build.Var(name, 8)
	default:
		return e.build.Var(name, 0)
	}
}

// doMakeSymbolic replaces every cell of the array with fresh inputs.
func (e *Engine) doMakeSymbolic(s *State, in *ir.Instr) {
	obj := s.object(s.arrayRef(in.A), true)
	for i := range obj.Cells {
		name := fmt.Sprintf("sym%d", s.nSyms)
		s.nSyms++
		obj.Cells[i] = e.build.Var(name, obj.Width)
	}
}

// assume conjoins cond to the path condition, returning false when the path
// becomes infeasible. The census narrows with it: a constituent path that
// cannot satisfy cond dies here.
func (e *Engine) assume(s *State, cond *expr.Expr) bool {
	if cond.IsTrue() {
		return true
	}
	if cond.IsFalse() {
		return false
	}
	may, err := e.solv.MayBeTrueIn(s.sess, s.PC, cond)
	if err != nil || !may {
		return false
	}
	s.PC = appendPC(s.PC, cond)
	s.sess.NoteConjunct(cond)
	if s.Shadow != nil {
		e.splitShadow(s, nil, cond)
	}
	return true
}

// appendPC appends a conjunct, forcing a copy boundary so sibling states keep
// sharing the prefix array.
func appendPC(pc []*expr.Expr, c *expr.Expr) []*expr.Expr {
	out := make([]*expr.Expr, len(pc)+1)
	copy(out, pc)
	out[len(pc)] = c
	return out
}

// failPath marks the state as an error path.
func (e *Engine) failPath(s *State, loc ir.Loc, pos ir.Pos, msg string) {
	s.Halt = HaltError
	s.Err = &PathError{Loc: loc, Pos: pos, Msg: msg}
}

// doAssert checks an assertion: if it can fail, an error state is recorded;
// if it can also hold, exploration continues under the assertion.
func (e *Engine) doAssert(s *State, in *ir.Instr, loc ir.Loc) []*State {
	cond := e.operand(s, in.A, ir.Type{Kind: ir.Bool})
	f := s.top()
	if cond.IsTrue() {
		f.PC++
		return []*State{s}
	}
	mayFail, err := e.solv.MayBeTrueIn(s.sess, s.PC, e.build.Not(cond))
	if err != nil {
		e.failPath(s, loc, in.Pos, "solver budget exhausted at assert")
		return []*State{s}
	}
	if !mayFail {
		f.PC++
		return []*State{s}
	}
	mayHold := false
	if !cond.IsFalse() {
		mayHold, _ = e.solv.MayBeTrueIn(s.sess, s.PC, cond)
	}
	if !mayHold {
		// Assertion always fails here.
		e.failPath(s, loc, in.Pos, in.Msg)
		s.Err.Assert = true
		return []*State{s}
	}
	// Both possible: fork an error state, continue the main state.
	errState := s.fork(e.nextID)
	e.nextID++
	e.stats.Forks++
	e.obs.Fork(s.ID, errState.ID, loc.Fn, loc.PC)
	errState.PC = appendPC(errState.PC, e.build.Not(cond))
	errState.sess.NoteConjunct(e.build.Not(cond))
	e.failPath(errState, loc, in.Pos, in.Msg)
	errState.Err.Assert = true
	s.PC = appendPC(s.PC, cond)
	s.sess.NoteConjunct(cond)
	f.PC++
	if s.Shadow != nil {
		e.splitShadow(s, errState, cond)
	}
	return []*State{s, errState}
}

// doBranch implements the paper's branch rule (Algorithm 1 lines 7–11):
// check feasibility of each side, forking when both are possible.
func (e *Engine) doBranch(s *State, in *ir.Instr, loc ir.Loc) []*State {
	cond := e.operand(s, in.A, ir.Type{Kind: ir.Bool})
	f := s.top()
	if cond.IsConst() {
		if cond.IsTrue() {
			f.PC = in.Target
		} else {
			f.PC = in.FTarget
		}
		return e.blockBoundary(s)
	}
	if e.an != nil {
		if v := e.an.Funcs[loc.Fn].Branch[loc.PC]; v != analysis.VUnknown {
			// The interval analysis proved the condition constant over every
			// execution reaching this pc, so the other side is unsat for this
			// state too, and — since the state's path condition already
			// implies the condition — the conjunct is redundant: the solution
			// set, and with it models, tests, and the shadow census, is
			// unchanged by skipping it. Both feasibility queries are saved.
			if e.cfg.CrossCheckAnalysis {
				pruned := cond
				if v == analysis.VTrue {
					pruned = e.build.Not(cond)
				}
				if may, err := e.solv.MayBeTrueIn(s.sess, s.PC, pruned); err == nil && may {
					panic(fmt.Sprintf("analysis cross-check: pruned branch side is satisfiable at fn %d pc %d (verdict %v)",
						loc.Fn, loc.PC, v))
				}
			}
			e.stats.PrunedStatic++
			e.obs.PruneStatic(s.ID, loc.Fn, loc.PC, "branch")
			if v == analysis.VTrue {
				f.PC = in.Target
			} else {
				f.PC = in.FTarget
			}
			return e.blockBoundary(s)
		}
	}
	mayTrue, err1 := e.solv.MayBeTrueIn(s.sess, s.PC, cond)
	notCond := e.build.Not(cond)
	mayFalse, err2 := e.solv.MayBeTrueIn(s.sess, s.PC, notCond)
	if err1 != nil || err2 != nil {
		// Solver budget: be conservative, follow both without narrowing
		// is unsound; instead kill the path silently.
		s.Halt = HaltSilent
		return []*State{s}
	}
	switch {
	case mayTrue && mayFalse:
		other := s.fork(e.nextID)
		e.nextID++
		e.stats.Forks++
		e.obs.Fork(s.ID, other.ID, loc.Fn, loc.PC)
		s.PC = appendPC(s.PC, cond)
		s.sess.NoteConjunct(cond)
		f.PC = in.Target
		other.PC = appendPC(other.PC, notCond)
		other.sess.NoteConjunct(notCond)
		other.top().PC = in.FTarget
		if s.Shadow != nil {
			e.splitShadow(s, other, cond)
		}
		return append(e.blockBoundary(s), e.blockBoundary(other)...)
	case mayTrue:
		s.PC = appendPC(s.PC, cond)
		s.sess.NoteConjunct(cond)
		f.PC = in.Target
	case mayFalse:
		s.PC = appendPC(s.PC, notCond)
		s.sess.NoteConjunct(notCond)
		f.PC = in.FTarget
	default:
		// Path condition itself became unsat (possible after merges
		// with approximate feasibility): drop.
		s.Halt = HaltSilent
		return []*State{s}
	}
	return e.blockBoundary(s)
}

// splitShadow distributes the exact-path census across a fork: each shadow
// path goes to the side(s) it can feasibly follow (paper §5.2: "maintaining
// all the original single-path states along with the merged states"). A nil
// sFalse makes the split one-sided, as at an assume: paths that can only
// follow ¬cond die.
//
// A shadow path is satisfiable, so a known witness settles one side by
// evaluation: the side it satisfies inherits the path and the witness, and
// only the other side costs a query, whose model becomes that side's
// witness. A path without a witness asks both sides.
func (e *Engine) splitShadow(sTrue, sFalse *State, cond *expr.Expr) {
	paths, wits := sTrue.Shadow, sTrue.shadowWit
	sTrue.Shadow, sTrue.shadowWit = nil, nil
	if sFalse != nil {
		sFalse.Shadow, sFalse.shadowWit = nil, nil
	}
	notCond := e.build.Not(cond)
	for i, p := range paths {
		switch w := witnessAt(wits, i); {
		case w == nil:
			e.shadowSide(sTrue, p, cond)
			e.shadowSide(sFalse, p, notCond)
		case expr.EvalBool(cond, expr.Env(w)):
			// A fresh evaluator: a memo kept with a shared witness
			// would be written by every state holding it.
			sTrue.addShadow(appendPC(p, cond), w)
			e.shadowSide(sFalse, p, notCond)
		default:
			e.shadowSide(sTrue, p, cond)
			if sFalse != nil {
				sFalse.addShadow(appendPC(p, notCond), w)
			}
		}
	}
}

// shadowSide files shadow path p ∧ c on s, with the model that shows it
// satisfiable, when the solver finds it so. A nil s is a side nobody
// follows. Shadow paths are built from the same conjuncts as the real path
// conditions, so they ride the same session's blasted set.
func (e *Engine) shadowSide(s *State, p []*expr.Expr, c *expr.Expr) {
	if s == nil {
		return
	}
	q := appendPC(p, c)
	if ok, m, err := e.solv.CheckSatIn(s.sess, q); err == nil && ok {
		s.addShadow(q, m)
	}
}

// doCall pushes a callee frame, binding arguments.
func (e *Engine) doCall(s *State, in *ir.Instr) {
	f := s.top()
	callee := e.prog.Funcs[in.Callee]
	nf := e.newFrame(callee, in.Dst)
	// Bind parameters before pushing (operands read the caller frame).
	args := make([]Value, len(in.Args))
	for i, a := range in.Args {
		pt := callee.Locals[i].Type
		if pt.Array() {
			args[i] = Value{Ref: s.arrayRef(a)}
		} else {
			args[i] = Value{E: e.operand(s, a, pt)}
		}
	}
	f.PC++ // return address
	s.pushFrame(nf)
	nf = s.top()
	for i := range args {
		if args[i].E == nil {
			// Parameter references the caller's object: clear the
			// own-object slot so resolveRef follows the reference.
			nf.Objects[i] = nil
		}
		nf.Locals[i] = args[i]
	}
}

// doReturnValue pops the top frame, delivering rv to the caller. It returns
// true when the program terminated (bottom frame returned).
func (e *Engine) doReturnValue(s *State, rv *expr.Expr) bool {
	top := s.Frames[len(s.Frames)-1]
	if len(s.Frames) == 1 {
		s.Halt = HaltExit
		s.ExitCode = rv
		return true
	}
	s.Frames = s.Frames[:len(s.Frames)-1]
	if top.RetDst >= 0 && rv != nil {
		s.top().Locals[top.RetDst] = Value{E: rv}
	}
	s.justRet = true
	return false
}
