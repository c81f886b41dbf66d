package core

// Wire form of an execution state, for checkpoint/resume. StateWire is the
// exported, validated intermediate between a live *State (whose heap,
// allocation counters, and solver session are unexported or engine-bound)
// and the on-disk snapshot the internal/checkpoint package encodes: every
// expression stays a *expr.Expr here — the checkpoint layer is what maps
// pointers to topologically ordered node-table indices and back.
//
// What a StateWire captures: the call stack with locals and array objects,
// the path condition, the copy-on-write heap segment with its per-site
// allocation counters, multiplicity, the guarded output stream, the shadow
// exact-path census, and the DSM bookkeeping a resumed engine needs
// (predecessor-hash ring, sym_* input numbering, function-exit flag).
//
// What it deliberately drops: the engine-assigned state ID (Inject
// renumbers migrants into the receiving engine's ID space), the solver
// session (worker-local; the path condition re-blasts on demand in the
// resumed engine, exactly as it does for a cross-worker migrant), and the
// transient fast-forward pick flag.

import (
	"fmt"
	"math/big"
	"sort"

	"symmerge/internal/expr"
)

// WireObject is a serialized array object (frame-local or heap).
type WireObject struct {
	Cells []*expr.Expr
	Width uint8
}

// WireValue is a serialized local: a scalar expression, or (when E is nil)
// a reference to the array object owned by frame Depth at slot Local.
type WireValue struct {
	E     *expr.Expr
	Depth int
	Local int
}

// WireFrame is a serialized activation record.
type WireFrame struct {
	Fn      int
	PC      int
	RetDst  int
	Locals  []WireValue
	Objects []*WireObject // index-aligned with Locals; nil for scalars
}

// WireHeapEntry is a serialized heap object with its address identity
// (ir.HeapObjField of every address into the object).
type WireHeapEntry struct {
	ID  uint32
	Obj WireObject
}

// WireOut is one serialized guarded output byte.
type WireOut struct {
	Guard *expr.Expr // nil = unconditional
	Val   *expr.Expr
}

// StateWire is the serializable form of a live (non-halted) worklist state.
type StateWire struct {
	Frames  []WireFrame
	PC      []*expr.Expr
	Heap    []WireHeapEntry
	Allocs  []uint16
	Mult    string // decimal big.Int
	Output  []WireOut
	NSyms   int
	History []uint64
	HistPos int
	Shadow  [][]*expr.Expr
	JustRet bool
}

// ToWire serializes the state. Every slice is copied (expressions are
// immutable and stay shared), so the wire form is immune to the engine's
// later in-place mutations of the live state — Snapshot is non-destructive.
// The output stream is flattened into guarded entries, building each
// entry's guard through b, the builder the state's expressions live in.
func (s *State) ToWire(b *expr.Builder) *StateWire {
	w := &StateWire{
		Mult:    s.Mult.String(),
		NSyms:   s.nSyms,
		HistPos: s.histPos,
		JustRet: s.justRet,
		PC:      append([]*expr.Expr(nil), s.PC...),
	}
	w.Frames = make([]WireFrame, len(s.Frames))
	for i, f := range s.Frames {
		wf := WireFrame{Fn: f.Fn, PC: f.PC, RetDst: f.RetDst}
		wf.Locals = make([]WireValue, len(f.Locals))
		for j, v := range f.Locals {
			wf.Locals[j] = WireValue{E: v.E, Depth: v.Ref.Depth, Local: v.Ref.Local}
		}
		wf.Objects = make([]*WireObject, len(f.Objects))
		for j, o := range f.Objects {
			if o != nil {
				wf.Objects[j] = &WireObject{Cells: append([]*expr.Expr(nil), o.Cells...), Width: o.Width}
			}
		}
		w.Frames[i] = wf
	}
	if len(s.heap) > 0 {
		w.Heap = make([]WireHeapEntry, len(s.heap))
		for i, he := range s.heap {
			w.Heap[i] = WireHeapEntry{
				ID:  he.id,
				Obj: WireObject{Cells: append([]*expr.Expr(nil), he.obj.Cells...), Width: he.obj.Width},
			}
		}
	}
	if s.allocs != nil {
		w.Allocs = append([]uint16(nil), s.allocs...)
	}
	w.Output = wireOut(b, s.Output)
	if s.history != nil {
		w.History = append([]uint64(nil), s.history...)
	}
	if s.Shadow != nil {
		w.Shadow = make([][]*expr.Expr, len(s.Shadow))
		for i, p := range s.Shadow {
			w.Shadow[i] = append([]*expr.Expr(nil), p...)
		}
	}
	return w
}

// Snapshot serializes every live worklist state, ordered by state ID (the
// deterministic engine-assigned order). The engine is untouched: Snapshot
// can run mid-exploration between StepN quanta and the run continues.
func (e *Engine) Snapshot() []*StateWire {
	states := make([]*State, 0, len(e.worklist))
	for s := range e.worklist {
		states = append(states, s)
	}
	sortStatesByID(states)
	out := make([]*StateWire, len(states))
	for i, s := range states {
		out[i] = s.ToWire(e.build)
	}
	return out
}

// Restore validates and injects previously snapshotted states into the
// engine's worklist (after Begin(false)): the resume counterpart of
// Snapshot. Injection renumbers each state into this engine's ID space and
// attaches a fresh solver session, exactly as for a cross-worker migrant;
// an injected state may immediately merge with a resident one.
func (e *Engine) Restore(wires []*StateWire) error {
	states, err := e.MaterializeStates(wires)
	if err != nil {
		return err
	}
	for _, s := range states {
		e.Inject(s)
	}
	return nil
}

// MaterializeStates rebuilds live, detached states from wire form without
// injecting them anywhere — the checkpoint driver uses it to hand a resumed
// frontier to the parallel pool as seeds (the claiming worker's Inject does
// the renumbering and session attach). The receiver only supplies the
// program the wires are validated against.
func (e *Engine) MaterializeStates(wires []*StateWire) ([]*State, error) {
	out := make([]*State, len(wires))
	for i, w := range wires {
		s, err := e.stateFromWire(w)
		if err != nil {
			return nil, fmt.Errorf("state %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// stateFromWire rebuilds a live state, validating every program-relative
// field against this engine's program: a snapshot from a different program
// (or a corrupted one) must be refused here, not crash the stepper later.
func (e *Engine) stateFromWire(w *StateWire) (*State, error) {
	if len(w.Frames) == 0 {
		return nil, fmt.Errorf("no frames")
	}
	mult, ok := new(big.Int).SetString(w.Mult, 10)
	if !ok || mult.Sign() <= 0 {
		return nil, fmt.Errorf("bad multiplicity %q", w.Mult)
	}
	s := &State{
		Mult:    mult,
		nSyms:   w.NSyms,
		histPos: w.HistPos,
		justRet: w.JustRet,
		PC:      append([]*expr.Expr(nil), w.PC...),
	}
	for i, c := range w.PC {
		if c == nil || !c.IsBool() {
			return nil, fmt.Errorf("path conjunct %d is not boolean", i)
		}
	}
	s.Frames = make([]*Frame, len(w.Frames))
	for i, wf := range w.Frames {
		if wf.Fn < 0 || wf.Fn >= len(e.prog.Funcs) {
			return nil, fmt.Errorf("frame %d: function %d out of range", i, wf.Fn)
		}
		fn := e.prog.Funcs[wf.Fn]
		if wf.PC < 0 || wf.PC >= len(fn.Instrs) {
			return nil, fmt.Errorf("frame %d: pc %d out of range for %s", i, wf.PC, fn.Name)
		}
		if len(wf.Locals) != len(fn.Locals) || len(wf.Objects) != len(fn.Locals) {
			return nil, fmt.Errorf("frame %d: %d locals serialized, %s has %d", i, len(wf.Locals), fn.Name, len(fn.Locals))
		}
		f := &Frame{Fn: wf.Fn, PC: wf.PC, RetDst: wf.RetDst}
		f.Locals = make([]Value, len(wf.Locals))
		f.Objects = make([]*Object, len(wf.Objects))
		for j, wv := range wf.Locals {
			if wv.E != nil {
				f.Locals[j] = Value{E: wv.E}
				continue
			}
			if wv.Depth < 0 || wv.Depth >= len(w.Frames) {
				return nil, fmt.Errorf("frame %d local %d: ref depth %d out of range", i, j, wv.Depth)
			}
			if wv.Local < 0 || wv.Local >= len(w.Frames[wv.Depth].Locals) {
				return nil, fmt.Errorf("frame %d local %d: ref slot %d out of range", i, j, wv.Local)
			}
			f.Locals[j] = Value{Ref: ObjRef{Depth: wv.Depth, Local: wv.Local}}
		}
		for j, wo := range wf.Objects {
			if wo == nil {
				continue
			}
			o, err := objectFromWire(wo)
			if err != nil {
				return nil, fmt.Errorf("frame %d object %d: %w", i, j, err)
			}
			f.Objects[j] = o
		}
		s.Frames[i] = f
	}
	if len(w.Heap) > 0 {
		s.heap = make([]heapEntry, len(w.Heap))
		for i, wh := range w.Heap {
			if i > 0 && w.Heap[i-1].ID >= wh.ID {
				return nil, fmt.Errorf("heap not sorted by object id at entry %d", i)
			}
			o, err := objectFromWire(&wh.Obj)
			if err != nil {
				return nil, fmt.Errorf("heap object %d: %w", i, err)
			}
			s.heap[i] = heapEntry{id: wh.ID, obj: o}
		}
	}
	if want := e.prog.AllocSites; want > 0 || len(w.Allocs) > 0 {
		if len(w.Allocs) != want {
			return nil, fmt.Errorf("%d allocation counters serialized, program has %d sites", len(w.Allocs), want)
		}
		s.allocs = append([]uint16(nil), w.Allocs...)
	}
	// The stream comes back as a chain: an unguarded entry is a leaf, and
	// a guarded one a join whose only part is that leaf.
	for i, o := range w.Output {
		if o.Val == nil {
			return nil, fmt.Errorf("output entry %d has no value", i)
		}
		if o.Val.Width != 8 {
			return nil, fmt.Errorf("output entry %d: value width %d (want 8)", i, o.Val.Width)
		}
		if o.Guard != nil && !o.Guard.IsBool() {
			return nil, fmt.Errorf("output entry %d: non-boolean guard", i)
		}
		if o.Guard == nil {
			s.Output = putOut(s.Output, o.Val)
		} else {
			s.Output = joinOut(putOut(s.Output, o.Val), s.Output, o.Guard, nil)
		}
	}
	if len(w.History) > 0 {
		if w.HistPos < 0 || w.HistPos >= len(w.History) {
			return nil, fmt.Errorf("history position %d out of range", w.HistPos)
		}
		s.history = append([]uint64(nil), w.History...)
	} else if w.HistPos != 0 {
		return nil, fmt.Errorf("history position %d with empty history", w.HistPos)
	}
	if w.Shadow != nil {
		s.Shadow = make([][]*expr.Expr, len(w.Shadow))
		for i, p := range w.Shadow {
			for j, c := range p {
				if c == nil || !c.IsBool() {
					return nil, fmt.Errorf("shadow path %d conjunct %d is not boolean", i, j)
				}
			}
			s.Shadow[i] = append([]*expr.Expr(nil), p...)
		}
	}
	return s, nil
}

func objectFromWire(wo *WireObject) (*Object, error) {
	if wo.Width != 8 && wo.Width != 32 {
		return nil, fmt.Errorf("cell width %d (want 8 or 32)", wo.Width)
	}
	for i, c := range wo.Cells {
		if c == nil || c.Width != wo.Width {
			return nil, fmt.Errorf("cell %d does not have width %d", i, wo.Width)
		}
	}
	return &Object{Cells: append([]*expr.Expr(nil), wo.Cells...), Width: wo.Width}, nil
}

func sortStatesByID(ss []*State) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].ID < ss[j].ID })
}
