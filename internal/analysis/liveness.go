package analysis

import (
	"slices"

	"symmerge/internal/cfg"
	"symmerge/internal/ir"
)

// Liveness computes per-location may-liveness of locals: live[pc][v] is
// true when v's value at pc may still be read before being overwritten.
// This is the analysis QCE uses to mask Qadd (a dead variable cannot
// influence any future query through its current value) and the one the
// engine's merge consults to skip building ite selectors for dead slots.
//
// Scalars are killed at full definitions as before. Arrays are normally
// only killed by OpMakeSymArr (stores are partial defs), with one
// sharpening over the historic QCE-private analysis: when a canonical
// counted loop provably overwrites an entire array — init 0, step 1,
// bound = len, a single unconditional `arr[i] = v` store, and no other
// use of arr inside the loop — the array is additionally dead in the
// straight-line prefix leading into the loop. Only those pre-loop points
// are cleared: inside the loop the partially-written array is live (its
// low elements survive to the post-loop reads), so a per-instruction kill
// there would be unsound.
func Liveness(fn *ir.Func, g *cfg.FuncCFG) [][]bool {
	n := len(fn.Instrs)
	nl := len(fn.Locals)
	cells := make([]bool, (n+1)*nl)
	live := make([][]bool, n+1)
	for pc := range live {
		live[pc] = cells[pc*nl : (pc+1)*nl : (pc+1)*nl]
	}
	if n == 0 {
		return live
	}
	ud := buildUseDef(fn)
	ud.solve(fn, g, live)
	killFullOverwrites(fn, g, ud, live)
	return live
}

// useDef holds the per-instruction use and def sets of one function.
type useDef struct {
	use [][]int
	def []int // killed local per pc, -1 if none
}

// solve runs the backward fixpoint into live, which must start all false:
// live[pc] becomes the set of locals read before being overwritten on some
// path from pc. Blocks are visited in reverse RPO and instructions last to
// first, in repeated rounds until nothing changes; the result is the least
// fixpoint, a pure function of the program. Blocks unreachable from the
// entry, and the trailing end row, stay all dead.
func (ud *useDef) solve(fn *ir.Func, g *cfg.FuncCFG, live [][]bool) {
	n := len(fn.Instrs)
	out := make([]bool, len(fn.Locals))
	var succ []int
	for changed := true; changed; {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.Blocks[g.RPO[i]]
			for pc := b.End - 1; pc >= b.Start; pc-- {
				in := &fn.Instrs[pc]
				if in.IsTerminator() {
					clear(out)
					succ = in.Successors(pc, succ[:0])
					for _, s := range succ {
						if s > n {
							continue
						}
						for v, l := range live[s] {
							out[v] = out[v] || l
						}
					}
				} else {
					copy(out, live[pc+1])
				}
				if d := ud.def[pc]; d >= 0 {
					out[d] = false
				}
				for _, u := range ud.use[pc] {
					out[u] = true
				}
				if !slices.Equal(live[pc], out) {
					copy(live[pc], out)
					changed = true
				}
			}
		}
	}
}

// buildUseDef fills the per-instruction use/def tables (shared with the
// full-overwrite detection, which needs the use sets to prove an array
// untouched inside a loop).
func buildUseDef(fn *ir.Func) *useDef {
	n := len(fn.Instrs)
	ud := &useDef{use: make([][]int, n), def: make([]int, n)}
	addUse := func(pc int, o ir.Operand) {
		if !o.IsConst {
			ud.use[pc] = append(ud.use[pc], o.Local)
		}
	}
	for pc := 0; pc < n; pc++ {
		in := &fn.Instrs[pc]
		ud.def[pc] = -1
		switch in.Op {
		case ir.OpBr, ir.OpNop:
		case ir.OpCondBr, ir.OpAssert, ir.OpAssume, ir.OpOut:
			addUse(pc, in.A)
		case ir.OpRet, ir.OpHalt:
			if in.HasVal {
				addUse(pc, in.A)
			}
		case ir.OpArgc, ir.OpStdinLen, ir.OpSymInt, ir.OpSymByte, ir.OpSymBool:
			ud.def[pc] = in.Dst
		case ir.OpStdin:
			addUse(pc, in.A)
			ud.def[pc] = in.Dst
		case ir.OpArgChar:
			addUse(pc, in.A)
			addUse(pc, in.B)
			ud.def[pc] = in.Dst
		case ir.OpLoad:
			addUse(pc, in.A)
			addUse(pc, in.B)
			ud.def[pc] = in.Dst
		case ir.OpStore:
			// Partial def: the array stays live; index and value read.
			ud.use[pc] = append(ud.use[pc], in.Dst)
			addUse(pc, in.A)
			addUse(pc, in.B)
		case ir.OpAlloc:
			addUse(pc, in.A)
			ud.def[pc] = in.Dst
		case ir.OpPtrLoad:
			addUse(pc, in.A)
			ud.def[pc] = in.Dst
		case ir.OpPtrStore:
			// Partial def of the pointed-to object (proxied by the
			// pointer local, which the address read keeps live anyway).
			addUse(pc, in.A)
			addUse(pc, in.B)
		case ir.OpCall:
			for _, a := range in.Args {
				addUse(pc, a)
			}
			if in.Dst >= 0 {
				ud.def[pc] = in.Dst
			}
		case ir.OpMakeSymArr:
			// Overwrites the whole array: kill (and no use).
			if !in.A.IsConst {
				ud.def[pc] = in.A.Local
			}
		case ir.OpMov, ir.OpNot, ir.OpNeg, ir.OpBNot,
			ir.OpIntToByte, ir.OpByteToInt, ir.OpBoolToInt:
			// Unary: B is not a real operand.
			addUse(pc, in.A)
			ud.def[pc] = in.Dst
		default: // binary value ops
			addUse(pc, in.A)
			addUse(pc, in.B)
			ud.def[pc] = in.Dst
		}
	}
	return ud
}

// killFullOverwrites clears array liveness at the straight-line points
// leading into loops that provably overwrite the whole array before any
// other use. Proof obligations (all checked, conservative on any doubt):
//
//   - counted loop with init 0, step 1, `i < bound` exit — every index in
//     [0,bound) is visited exactly once;
//   - the loop body is the canonical two-block shape {header, body} whose
//     body's only successor is the header: no break-style early exits, and
//     every instruction in the body executes on every iteration;
//   - exactly one store to the array in the body, indexed by the induction
//     variable, placed before the increment (so it sees 0..bound-1);
//   - bound equals the array length, and nothing else in the loop reads or
//     passes the array.
//
// At any point that executes only before such a loop (the straight-line
// prefix up to the first other mention of the array), the array's current
// contents can never be read again — pre-loop merge keys and QCE hot sets
// may ignore it.
func killFullOverwrites(fn *ir.Func, g *cfg.FuncCFG, ud *useDef, live [][]bool) {
	for _, l := range g.Loops {
		if l.TripCount == 0 || l.IVar < 0 || l.Init != 0 || l.Step != 1 || l.CmpOp != ir.OpLt {
			continue
		}
		if len(l.Body) != 2 {
			continue
		}
		bodyIdx := -1
		for bi := range l.Body {
			if bi != l.Header {
				bodyIdx = bi
			}
		}
		if bodyIdx < 0 {
			continue
		}
		body := g.Blocks[bodyIdx]
		if len(body.Succs) != 1 || body.Succs[0] != l.Header {
			continue
		}
		// Find the single increment of the induction variable in the body.
		incPC := -1
		for pc := body.Start; pc < body.End; pc++ {
			if fn.Instrs[pc].Dst == l.IVar {
				incPC = pc
			}
		}
		if incPC < 0 {
			continue
		}
		// Candidate arrays: full-length store at an eligible position and
		// no other use anywhere in the loop.
		hdr := g.Blocks[l.Header]
		for arr, loc := range fn.Locals {
			if !loc.Type.Array() || int64(loc.Type.Len) != l.Bound {
				continue
			}
			storePC := -1
			sound := true
			scan := func(b *cfg.Block) {
				for pc := b.Start; pc < b.End && sound; pc++ {
					in := &fn.Instrs[pc]
					if in.Op == ir.OpStore && in.Dst == arr {
						if storePC >= 0 || in.A.IsConst || in.A.Local != l.IVar {
							sound = false
							break
						}
						storePC = pc
						continue
					}
					for _, u := range ud.use[pc] {
						if u == arr {
							sound = false
							break
						}
					}
					if ud.def[pc] == arr {
						sound = false
					}
				}
			}
			scan(hdr)
			scan(body)
			if !sound || storePC < 0 || storePC > incPC || g.BlockOf[storePC] != bodyIdx {
				continue
			}
			// Clear the straight-line prefix before the header.
			for pc := hdr.Start - 1; pc >= 0; pc-- {
				in := &fn.Instrs[pc]
				if in.IsTerminator() || ud.def[pc] == arr {
					break
				}
				touches := false
				for _, u := range ud.use[pc] {
					if u == arr {
						touches = true
					}
				}
				if touches {
					break
				}
				live[pc][arr] = false
			}
		}
	}
}
