package core

// Wire form of an exploration, for checkpoint/resume. A Frontier is the
// engine's live worklist in serializable form: one expression node table
// (expr.Table) shared by every state, and a StateWire per state whose
// expressions are references into that table (0 = nil, r = entry r-1).
// A Progress is everything the engine has counted and recorded so far.
// Snapshot writes the table and the states in one pass; Restore re-interns
// the table through the engine's builder, validates every state against
// the program and the progress against the program's locations, and only
// then continues the exploration from them. internal/checkpoint persists a
// Frontier and a Progress inside its file envelope, and the JSON tags here
// are that file's keys.
//
// What a StateWire captures: the call stack with locals and array objects,
// the path condition, the copy-on-write heap segment with its per-site
// allocation counters, multiplicity, the guarded output stream, the shadow
// exact-path census, and the DSM bookkeeping a resumed engine needs
// (predecessor-hash ring, sym_* input numbering, function-exit flag).
//
// What it deliberately drops: the engine-assigned state ID (Restore
// renumbers states into the resuming engine's ID space), the solver
// session (engine-local; the path condition re-blasts on demand in the
// resumed engine), and the transient fast-forward pick flag.

import (
	"fmt"
	"math/big"
	"sort"

	"symmerge/internal/corpus"
	"symmerge/internal/expr"
)

// Frontier is the wire form of an engine's live states: the node table
// their expressions reference, and the states in state-ID order.
type Frontier struct {
	Exprs  []expr.Node `json:"exprs,omitempty"`
	States []StateWire `json:"states"`
}

// Progress is the wire form of an exploration's cumulative result so far:
// the statistics with the solver's counters, the coverage, and the
// recorded tests and errors. Stats.Rules is always nil: the rewrite
// counters belong to the builder, and a restored engine's fresh builder
// counts its own.
type Progress struct {
	Stats Stats `json:"stats"`
	// Covered is the coverage bitmap as a sorted range list over LocIndex
	// values (the corpus manifest encoding).
	Covered string      `json:"covered"`
	Tests   []TestCase  `json:"tests,omitempty"`
	Errors  []PathError `json:"errors,omitempty"`
}

// WireObject is a serialized array object (frame-local or heap).
type WireObject struct {
	Cells []uint32 `json:"cells"`
	Width uint8    `json:"width"`
}

// WireValue is a serialized local: a scalar expression, or (when E is 0)
// a reference to the array object owned by frame Depth at slot Local.
type WireValue struct {
	E     uint32 `json:"e,omitempty"`
	Depth int    `json:"d,omitempty"`
	Local int    `json:"l,omitempty"`
}

// WireFrame is a serialized activation record.
type WireFrame struct {
	Fn      int           `json:"fn"`
	PC      int           `json:"pc"`
	RetDst  int           `json:"ret"`
	Locals  []WireValue   `json:"locals,omitempty"`
	Objects []*WireObject `json:"objects,omitempty"` // index-aligned with Locals; nil for scalars
}

// WireHeapEntry is a serialized heap object with its address identity
// (ir.HeapObjField of every address into the object).
type WireHeapEntry struct {
	ID  uint32     `json:"id"`
	Obj WireObject `json:"obj"`
}

// WireOut is one serialized guarded output byte.
type WireOut struct {
	Guard uint32 `json:"g,omitempty"` // 0 = unconditional
	Val   uint32 `json:"v"`
}

// StateWire is the serializable form of a live (non-halted) worklist state.
type StateWire struct {
	Frames  []WireFrame     `json:"frames"`
	PC      []uint32        `json:"pc,omitempty"`
	Heap    []WireHeapEntry `json:"heap,omitempty"`
	Allocs  []uint16        `json:"allocs,omitempty"`
	Mult    string          `json:"mult"` // decimal big.Int
	Output  []WireOut       `json:"output,omitempty"`
	NSyms   int             `json:"nsyms,omitempty"`
	History []uint64        `json:"history,omitempty"`
	HistPos int             `json:"histpos,omitempty"`
	Shadow  [][]uint32      `json:"shadow,omitempty"`
	JustRet bool            `json:"justret,omitempty"`
}

// toWire serializes the state, adding its expressions to t. Every slice is
// fresh, so later steps of the live state cannot change the wire form. The
// output stream is flattened into guarded entries, building each entry's
// guard through b, the builder the state's expressions live in.
func (s *State) toWire(b *expr.Builder, t *expr.Table) StateWire {
	w := StateWire{
		Mult:    s.Mult.String(),
		NSyms:   s.nSyms,
		HistPos: s.histPos,
		JustRet: s.justRet,
	}
	w.Frames = make([]WireFrame, len(s.Frames))
	for i, f := range s.Frames {
		wf := WireFrame{Fn: f.Fn, PC: f.PC, RetDst: f.RetDst}
		wf.Locals = make([]WireValue, len(f.Locals))
		for j, v := range f.Locals {
			wf.Locals[j] = WireValue{E: t.Ref(v.E), Depth: v.Ref.Depth, Local: v.Ref.Local}
		}
		wf.Objects = make([]*WireObject, len(f.Objects))
		for j, o := range f.Objects {
			if o != nil {
				wf.Objects[j] = &WireObject{Cells: refs(t, o.Cells), Width: o.Width}
			}
		}
		w.Frames[i] = wf
	}
	w.PC = refs(t, s.PC)
	if len(s.heap) > 0 {
		w.Heap = make([]WireHeapEntry, len(s.heap))
		for i, he := range s.heap {
			w.Heap[i] = WireHeapEntry{ID: he.id, Obj: WireObject{Cells: refs(t, he.obj.Cells), Width: he.obj.Width}}
		}
	}
	if s.allocs != nil {
		w.Allocs = append([]uint16(nil), s.allocs...)
	}
	w.Output = wireOut(b, t, s.Output)
	if s.history != nil {
		w.History = append([]uint64(nil), s.history...)
	}
	if s.Shadow != nil {
		w.Shadow = make([][]uint32, len(s.Shadow))
		for i, p := range s.Shadow {
			w.Shadow[i] = refs(t, p)
		}
	}
	return w
}

// refs returns the table references of es.
func refs(t *expr.Table, es []*expr.Expr) []uint32 {
	out := make([]uint32, len(es))
	for i, e := range es {
		out[i] = t.Ref(e)
	}
	return out
}

// Snapshot serializes every live worklist state, ordered by state ID (the
// deterministic engine-assigned order). The engine's states are untouched:
// Snapshot runs mid-exploration between StepN quanta and the run
// continues. Only the builder changes, since flattening the output streams
// can intern new guard nodes.
func (e *Engine) Snapshot() Frontier {
	states := make([]*State, 0, len(e.worklist))
	for s := range e.worklist {
		states = append(states, s)
	}
	sortStatesByID(states)
	return e.frontier(states)
}

// frontier serializes states, in order, over one node table.
func (e *Engine) frontier(states []*State) Frontier {
	var t expr.Table
	f := Frontier{States: make([]StateWire, len(states))}
	for i, s := range states {
		f.States[i] = s.toWire(e.build, &t)
	}
	f.Exprs = t.Nodes
	return f
}

// Progress returns the cumulative progress so far, the counterpart of
// Snapshot that a checkpoint stores next to the frontier. The exploration
// is untouched and continues.
func (e *Engine) Progress() Progress {
	st := e.statsNow()
	st.Rules = nil
	if st.PathsMult != nil {
		// Detach from the live counter, which later steps mutate in place.
		st.PathsMult = new(big.Int).Set(st.PathsMult)
	}
	return Progress{
		Stats:   st,
		Covered: corpus.MaskToRanges(e.coverage),
		Tests:   e.testCases,
		Errors:  e.errors,
	}
}

// Restore continues a snapshotted exploration in this engine (after
// Begin(false)): the resume counterpart of Snapshot and Progress. It
// decodes f through the engine's builder and validates f's states and p's
// coverage against the program; a refused snapshot leaves the engine as it
// was. The engine then counts on from p (this invocation's MaxSteps and
// MaxTime bound only the work beyond it), and the states join the
// worklist as they left the snapshotted one, without a merge attempt:
// each gets the next ID of this engine and a lineage of its root solver
// session, where its path condition re-blasts on demand.
func (e *Engine) Restore(f *Frontier, p *Progress) error {
	states, err := e.statesFromWire(f)
	if err != nil {
		return err
	}
	coverage, err := corpus.RangesToMask(p.Covered, len(e.coverage))
	if err != nil {
		return fmt.Errorf("progress coverage: %w", err)
	}
	mult := new(big.Int)
	if m := p.Stats.PathsMult; m != nil {
		if m.Sign() < 0 {
			return fmt.Errorf("progress: negative path count %s", m)
		}
		mult.Set(m)
	}

	e.stats = p.Stats
	e.stats.PathsMult = mult
	e.stats.TotalInstrs = e.prog.NumLocations()
	e.solv.Stats = p.Stats.Solver
	e.stepBase, e.elapsedBase = p.Stats.Steps, p.Stats.ElapsedSeconds
	e.coverage, e.covered = coverage, 0
	for _, c := range coverage {
		if c {
			e.covered++
		}
	}
	// Cut at MaxTests, and at capacity so that appends never write into
	// p's arrays.
	nt, ne := min(len(p.Tests), e.cfg.MaxTests), min(len(p.Errors), e.cfg.MaxTests)
	e.testCases, e.errors = p.Tests[:nt:nt], p.Errors[:ne:ne]
	for _, s := range states {
		s.ID = e.nextID
		e.nextID++
		s.sess = e.forkRootSession()
		e.addState(s)
	}
	e.publishProgress()
	return nil
}

// statesFromWire re-interns f's node table through the engine's builder
// and rebuilds every state of f.
func (e *Engine) statesFromWire(f *Frontier) ([]*State, error) {
	exprs, err := expr.DecodeTable(e.build, f.Exprs)
	if err != nil {
		return nil, fmt.Errorf("expression table: %w", err)
	}
	states := make([]*State, len(f.States))
	for i := range f.States {
		s, err := e.stateFromWire(&f.States[i], exprs)
		if err != nil {
			return nil, fmt.Errorf("state %d: %w", i, err)
		}
		states[i] = s
	}
	return states, nil
}

// nodeRefs is a decoded node table, the target of a StateWire's references.
type nodeRefs []*expr.Expr

// get resolves one reference: 0 is nil, r is table entry r-1.
func (n nodeRefs) get(r uint32) (*expr.Expr, error) {
	if int64(r) > int64(len(n)) {
		return nil, fmt.Errorf("expression reference %d out of range (table has %d nodes)", r, len(n))
	}
	if r == 0 {
		return nil, nil
	}
	return n[r-1], nil
}

// conjuncts resolves a list of boolean conjuncts; nil when empty.
func (n nodeRefs) conjuncts(rs []uint32) ([]*expr.Expr, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	out := make([]*expr.Expr, len(rs))
	for i, r := range rs {
		c, err := n.get(r)
		if err != nil {
			return nil, fmt.Errorf("conjunct %d: %w", i, err)
		}
		if c == nil || !c.IsBool() {
			return nil, fmt.Errorf("conjunct %d is not boolean", i)
		}
		out[i] = c
	}
	return out, nil
}

// stateFromWire rebuilds a live state over the decoded table n, validating
// every reference and every program-relative field against this engine's
// program: a snapshot from a different program (or a corrupted one) must
// be refused here, not crash the stepper later.
func (e *Engine) stateFromWire(w *StateWire, n nodeRefs) (*State, error) {
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
	}
	var err error
	if s.PC, err = n.conjuncts(w.PC); err != nil {
		return nil, fmt.Errorf("path %w", err)
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
			if wv.E != 0 {
				v, err := n.get(wv.E)
				if err != nil {
					return nil, fmt.Errorf("frame %d local %d: %w", i, j, err)
				}
				f.Locals[j] = Value{E: v}
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
			o, err := objectFromWire(wo, n)
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
			o, err := objectFromWire(&wh.Obj, n)
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
		guard, err := n.get(o.Guard)
		if err != nil {
			return nil, fmt.Errorf("output entry %d guard: %w", i, err)
		}
		val, err := n.get(o.Val)
		if err != nil {
			return nil, fmt.Errorf("output entry %d value: %w", i, err)
		}
		if val == nil {
			return nil, fmt.Errorf("output entry %d has no value", i)
		}
		if val.Width != 8 {
			return nil, fmt.Errorf("output entry %d: value width %d (want 8)", i, val.Width)
		}
		if guard != nil && !guard.IsBool() {
			return nil, fmt.Errorf("output entry %d: non-boolean guard", i)
		}
		if guard == nil {
			s.Output = putOut(s.Output, val)
		} else {
			s.Output = joinOut(putOut(s.Output, val), s.Output, guard, nil)
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
			if s.Shadow[i], err = n.conjuncts(p); err != nil {
				return nil, fmt.Errorf("shadow path %d %w", i, err)
			}
		}
	}
	return s, nil
}

func objectFromWire(wo *WireObject, n nodeRefs) (*Object, error) {
	if wo.Width != 8 && wo.Width != 32 {
		return nil, fmt.Errorf("cell width %d (want 8 or 32)", wo.Width)
	}
	o := &Object{Width: wo.Width}
	if len(wo.Cells) > 0 {
		o.Cells = make([]*expr.Expr, len(wo.Cells))
	}
	for i, r := range wo.Cells {
		c, err := n.get(r)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		if c == nil || c.Width != wo.Width {
			return nil, fmt.Errorf("cell %d does not have width %d", i, wo.Width)
		}
		o.Cells[i] = c
	}
	return o, nil
}

func sortStatesByID(ss []*State) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].ID < ss[j].ID })
}
