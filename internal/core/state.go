// Package core implements the merging symbolic execution engine: the
// generic worklist exploration of the paper's Algorithm 1 with selectable
// state merging (none / static / dynamic), query count estimation as the
// similarity relation, state multiplicity accounting, and the shadow
// exact-path census used to validate multiplicity against true path counts
// (paper §5.2).
package core

import (
	"fmt"
	"math/big"

	"symmerge/internal/expr"
	"symmerge/internal/ir"
	"symmerge/internal/solver"
)

// Object is a fixed-size array of scalar cells living in a stack frame.
// Objects are copy-on-write: forking marks them shared, and the first write
// afterwards clones.
type Object struct {
	Cells  []*expr.Expr
	Width  uint8 // element width in bits (8 or 32)
	shared bool
}

func (o *Object) clone() *Object {
	cells := make([]*expr.Expr, len(o.Cells))
	copy(cells, o.Cells)
	return &Object{Cells: cells, Width: o.Width}
}

// Value is the content of a local register: either a scalar expression or a
// reference to an array object. Array locals declared in the frame own their
// object (Ref.Depth == own depth); array parameters reference the declaring
// ancestor frame.
type Value struct {
	E   *expr.Expr // scalar value; nil for arrays
	Ref ObjRef     // array reference; valid when E == nil
}

// ObjRef names an array object by the frame that owns it and the local slot
// it occupies there.
type ObjRef struct {
	Depth int // frame index from the bottom of the stack
	Local int
}

// heapEntry pairs a heap object with its identity. The object field is the
// high half of every address into the object (ir.HeapObjField: objectID+1),
// which is allocation-site-canonical — two states forked from a common
// prefix give "the n-th allocation at site s" the same field value, so their
// heaps stay positionally alignable and mergeable.
type heapEntry struct {
	id  uint32 // ir.HeapObjField of every address into the object
	obj *Object
}

// Frame is one activation record.
type Frame struct {
	Fn     int
	PC     int
	RetDst int // caller register receiving the return value; -1 if none
	Locals []Value
	// Objects[i] is the array storage for array-typed local i owned by
	// this frame (nil for scalars and parameters).
	Objects []*Object
}

func (f *Frame) clone() *Frame {
	nf := &Frame{Fn: f.Fn, PC: f.PC, RetDst: f.RetDst}
	nf.Locals = make([]Value, len(f.Locals))
	copy(nf.Locals, f.Locals)
	nf.Objects = make([]*Object, len(f.Objects))
	copy(nf.Objects, f.Objects)
	return nf
}

// HaltKind describes why a state stopped.
type HaltKind uint8

// Halt kinds.
const (
	HaltNone   HaltKind = iota
	HaltExit            // program halted normally
	HaltError           // assertion failure or memory error
	HaltSilent          // infeasible path or resource pruning
)

// PathError describes an error found on a path.
type PathError struct {
	Loc  ir.Loc
	Pos  ir.Pos
	Msg  string
	Args [][]byte // concrete argv reproducing the error (excluding argv[0])
	// Assert marks a genuine assert failure (program semantics, concretely
	// replayable) as opposed to an engine-side analysis error like a bounds
	// violation or an exhausted solver budget.
	Assert bool
}

func (e *PathError) Error() string {
	return fmt.Sprintf("%s at %s (loc %s)", e.Msg, e.Pos, e.Loc)
}

// State is one symbolic execution state: the paper's (ℓ, pc, s) plus the
// bookkeeping that merging and DSM need.
type State struct {
	ID     uint64
	Frames []*Frame
	// PC is the path condition as a conjunct list. Forked children share
	// the prefix slices structurally, which merging exploits to factor
	// the common prefix out of the disjunction.
	PC []*expr.Expr

	// heap is the dynamically allocated memory segment: copy-on-write
	// objects sorted by id. allocs counts executed allocations per site
	// (indexed by ir.Instr.Site), which makes fresh addresses a function of
	// the path alone — independent of scheduling and sibling states.
	heap   []heapEntry
	allocs []uint16

	// Mult is the state multiplicity: 1 for a single-path state, the sum
	// of the merged states' multiplicities after a merge (paper §5.2).
	Mult *big.Int

	// Output is the last node of the persistent byte stream putchar wrote
	// along this path (nil = nothing yet). A merge joins the two streams
	// after their shared prefix, guarding each side's part with that
	// side's path-condition suffix, so merged outputs stay fully precise:
	// a model of the path prints exactly the bytes its path printed.
	Output *OutEntry

	Halt     HaltKind
	ExitCode *expr.Expr
	Err      *PathError

	// nSyms numbers sym_* intrinsic inputs along this path.
	nSyms int

	// history is the DSM predecessor ring: similarity hashes at the last
	// δ basic-block boundaries (paper §4.3).
	history []uint64
	histPos int

	// Shadow is the exact-path census (nil unless enabled): the path
	// conditions of the unmerged single-path states this merged state
	// stands for. Every shadow path is satisfiable.
	Shadow [][]*expr.Expr
	// shadowWit keeps a model beside each shadow path, nil where none is
	// known: satisfying the path under expr.Env's don't-care convention,
	// it answers one side of every split (splitShadow). The slice is nil
	// or as long as Shadow; it is nil after a checkpoint or snapshot
	// restore, since witnesses are not persisted. Witnesses are never
	// mutated: forks and merges share them.
	shadowWit []solver.Model

	// curHash caches the similarity hash at the last block boundary; it
	// is maintained by the engine's DSM bookkeeping.
	curHash uint64

	// ff marks a state picked from the fast-forwarding set during the
	// current step, for the merge-success statistic of §5.5.
	ff bool

	// justRet marks that the last executed step popped a stack frame, so
	// the state now sits at a function-exit join point. MergeFunc merges
	// only such states.
	justRet bool

	// sess is the state lineage's incremental solver session: the path
	// condition is blasted into it exactly once, and feasibility queries
	// reuse the encoding via assumptions. Forks share the blasted prefix.
	sess *solver.Session
}

func (s *State) top() *Frame { return s.Frames[len(s.Frames)-1] }

// Loc returns the state's current location.
func (s *State) Loc() ir.Loc {
	t := s.top()
	return ir.Loc{Fn: t.Fn, PC: t.PC}
}

// fork deep-copies control state and marks all objects shared (copy-on-write).
func (s *State) fork(newID uint64) *State {
	ns := &State{
		ID:      newID,
		Frames:  make([]*Frame, len(s.Frames)),
		PC:      s.PC[:len(s.PC):len(s.PC)],
		Mult:    new(big.Int).Set(s.Mult),
		Output:  s.Output,
		nSyms:   s.nSyms,
		histPos: s.histPos,
		ff:      s.ff,
		sess:    s.sess.Fork(),
	}
	for i, f := range s.Frames {
		for _, o := range f.Objects {
			if o != nil {
				o.shared = true
			}
		}
		ns.Frames[i] = f.clone()
	}
	if s.heap != nil {
		ns.heap = make([]heapEntry, len(s.heap))
		copy(ns.heap, s.heap)
		for _, h := range s.heap {
			h.obj.shared = true
		}
	}
	if s.allocs != nil {
		ns.allocs = make([]uint16, len(s.allocs))
		copy(ns.allocs, s.allocs)
	}
	if s.history != nil {
		ns.history = make([]uint64, len(s.history))
		copy(ns.history, s.history)
	}
	if s.Shadow != nil {
		ns.Shadow = make([][]*expr.Expr, len(s.Shadow))
		for i, p := range s.Shadow {
			ns.Shadow[i] = p[:len(p):len(p)]
		}
		ns.shadowWit = s.shadowWit[:len(s.shadowWit):len(s.shadowWit)]
	}
	return ns
}

// witnessAt returns shadow path i's witness model from a state's shadowWit,
// nil when none is known.
func witnessAt(wits []solver.Model, i int) solver.Model {
	if i < len(wits) {
		return wits[i]
	}
	return nil
}

// addShadow files a shadow path with its witness (nil when unknown).
func (s *State) addShadow(p []*expr.Expr, w solver.Model) {
	s.Shadow = append(s.Shadow, p)
	s.shadowWit = append(s.shadowWit, w)
}

// resolveRef walks parameter references to the owning frame's object.
func (s *State) resolveRef(r ObjRef) ObjRef {
	for {
		f := s.Frames[r.Depth]
		if f.Objects[r.Local] != nil {
			return r
		}
		// The slot is a parameter holding a further reference.
		v := f.Locals[r.Local]
		if v.E != nil {
			panic("core: array reference resolves to scalar")
		}
		r = v.Ref
	}
}

// object returns the array object for a reference, cloning first if the
// object is shared and forWrite is set.
func (s *State) object(r ObjRef, forWrite bool) *Object {
	r = s.resolveRef(r)
	o := s.Frames[r.Depth].Objects[r.Local]
	if forWrite && o.shared {
		o = o.clone()
		s.Frames[r.Depth].Objects[r.Local] = o
	}
	return o
}

// findHeap returns the index of the heap entry with the given object field,
// or -1. The heap is sorted by id, so a binary search suffices.
func (s *State) findHeap(id uint32) int {
	lo, hi := 0, len(s.heap)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.heap[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.heap) && s.heap[lo].id == id {
		return lo
	}
	return -1
}

// insertHeap adds a fresh object, keeping the segment sorted by id.
func (s *State) insertHeap(id uint32, o *Object) {
	i := len(s.heap)
	for i > 0 && s.heap[i-1].id > id {
		i--
	}
	s.heap = append(s.heap, heapEntry{})
	copy(s.heap[i+1:], s.heap[i:])
	s.heap[i] = heapEntry{id: id, obj: o}
}

// heapObjectAt returns the object at heap index i, cloning first if it is
// shared and forWrite is set (the same copy-on-write discipline as frame
// objects).
func (s *State) heapObjectAt(i int, forWrite bool) *Object {
	o := s.heap[i].obj
	if forWrite && o.shared {
		o = o.clone()
		s.heap[i].obj = o
	}
	return o
}

// heapObjByAddr resolves a concrete address to its object, or nil.
func (s *State) heapObjByAddr(addr uint32) *Object {
	if i := s.findHeap(ir.HeapObjField(addr)); i >= 0 {
		return s.heap[i].obj
	}
	return nil
}

// sameHeapShape reports whether two states hold the same heap objects with
// the same sizes — the precondition for merging their heaps cell-wise.
func sameHeapShape(a, b *State) bool {
	if len(a.heap) != len(b.heap) {
		return false
	}
	for i := range a.heap {
		if a.heap[i].id != b.heap[i].id ||
			len(a.heap[i].obj.Cells) != len(b.heap[i].obj.Cells) {
			return false
		}
	}
	return true
}

// stackHash summarizes the control state two merge candidates must share
// exactly: the call stack (functions, PCs, return slots) plus the heap shape
// (object identities and sizes).
func (s *State) stackHash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, f := range s.Frames {
		h = (h ^ uint64(f.Fn)) * prime
		h = (h ^ uint64(f.PC)) * prime
		h = (h ^ uint64(f.RetDst+1)) * prime
	}
	for _, he := range s.heap {
		h = (h ^ uint64(he.id)) * prime
		h = (h ^ uint64(len(he.obj.Cells))) * prime
	}
	return h
}

// sameStack reports whether two states have identical call stacks.
func sameStack(a, b *State) bool {
	if len(a.Frames) != len(b.Frames) {
		return false
	}
	for i := range a.Frames {
		fa, fb := a.Frames[i], b.Frames[i]
		if fa.Fn != fb.Fn || fa.PC != fb.PC || fa.RetDst != fb.RetDst {
			return false
		}
	}
	return true
}

// pushHistory records the current similarity hash in the DSM ring.
func (s *State) pushHistory(h uint64, delta int) {
	if delta <= 0 {
		return
	}
	if len(s.history) < delta {
		s.history = append(s.history, h)
		return
	}
	s.history[s.histPos] = h
	s.histPos = (s.histPos + 1) % delta
}

// String renders a compact state description for debugging.
func (s *State) String() string {
	return fmt.Sprintf("state#%d@%s pc=%d conj mult=%s", s.ID, s.Loc(), len(s.PC), s.Mult)
}
