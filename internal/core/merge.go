package core

import (
	"math/big"
	"time"

	"symmerge/internal/checkpoint/faultinject"
	"symmerge/internal/expr"
	"symmerge/internal/ir"
)

// globalQt computes the interprocedural query-count estimate Qt_global for
// a state: the local Qt of every return location on the stack plus the
// current frame's Qt (paper §3.2). Zero when QCE is disabled.
func (e *Engine) globalQt(s *State) float64 {
	if e.qce == nil {
		return 0
	}
	total := 0.0
	for i, f := range s.Frames {
		fq := e.qce.PerFunc[f.Fn]
		if i < len(s.Frames)-1 {
			// Return location: the PC already points past the call.
			total += fq.QtAt(f.PC)
		} else if f.PC < len(fq.Qt) {
			total += fq.Qt[f.PC]
		}
	}
	return total
}

// hotLocals computes the hot-variable set for a frame (Equation 2):
// v is hot at ℓ iff Qadd(ℓ,v) > α·Qt_global. When QCE is disabled, no
// variable is hot and every same-location pair may merge.
func (e *Engine) hotLocals(s *State, depth int, out []int) []int {
	if e.qce == nil {
		return out[:0]
	}
	globalQt := e.globalQt(s)
	f := s.Frames[depth]
	fq := e.qce.PerFunc[f.Fn]
	pc := f.PC
	if pc >= len(fq.Qadd) {
		pc = len(fq.Qadd) - 1
	}
	return fq.HotSet(pc, globalQt, e.qce.Params.Alpha, out)
}

// simHash computes the state-similarity hash of §4.3: the call stack plus,
// for every hot variable, h(v) = ⋆ if symbolic else its concrete value.
// States with equal hashes are candidates for merging or fast-forwarding.
func (e *Engine) simHash(s *State) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(s.stackHash())
	for depth := range s.Frames {
		hot := e.hotLocals(s, depth, e.hotBuf)
		e.hotBuf = hot[:0]
		f := s.Frames[depth]
		fn := e.prog.Funcs[f.Fn]
		for _, v := range hot {
			val := f.Locals[v]
			if val.E != nil {
				mix(filterHash(val.E))
				// Hot pointers carry the heap cells addressed through
				// them into the similarity hash (paper §3.1).
				if fn.Locals[v].Type.Kind == ir.Ptr && val.E.IsConst() {
					if obj := s.heapObjByAddr(uint32(val.E.Val)); obj != nil {
						for _, c := range obj.Cells {
							mix(filterHash(c))
						}
					}
				}
				continue
			}
			obj := s.object(val.Ref, false)
			for _, c := range obj.Cells {
				mix(filterHash(c))
			}
		}
	}
	return h
}

// filterHash maps symbolic expressions to a single marker value (the paper's
// h(v) = ite(I◁v, ⋆, v)) and concrete expressions to their value.
func filterHash(v *expr.Expr) uint64 {
	if v.IsSymbolic() {
		return 0x5bd1e995 // ⋆
	}
	return v.Val*2 + uint64(v.Width) + 1
}

// similar implements the similarity relation ∼qce of Equation (1): every hot
// variable must be equal in both states or symbolic in at least one. When
// ζ > 1 the full cost model of §3.3 (Equation 7) is used instead, which
// additionally charges queries that gain ite expressions — the variant the
// paper describes but leaves out of its prototype.
func (e *Engine) similar(a, b *State) bool {
	if !sameStack(a, b) {
		return false
	}
	// Heap shapes must be positionally alignable for a cell-wise merge —
	// a state that allocated and one that did not never merge.
	if !sameHeapShape(a, b) {
		return false
	}
	if e.qce == nil {
		return true // merge-everything baseline
	}
	if e.qce.Params.Zeta > 1 {
		return e.similarFullVariant(a, b)
	}
	for depth := range a.Frames {
		hot := e.hotLocals(a, depth, e.hotBuf)
		e.hotBuf = hot[:0]
		fa, fb := a.Frames[depth], b.Frames[depth]
		fn := e.prog.Funcs[fa.Fn]
		for _, v := range hot {
			va, vb := fa.Locals[v], fb.Locals[v]
			if va.E != nil {
				if !mergeableScalar(va.E, vb.E) {
					return false
				}
				// A hot pointer stands for the heap cells addressed
				// through it (paper §3.1: queries reach the pointed-to
				// data): when both sides agree on a concrete address,
				// the object's cells must themselves be mergeable.
				if fn.Locals[v].Type.Kind == ir.Ptr && va.E.IsConst() && va.E == vb.E {
					oa := a.heapObjByAddr(uint32(va.E.Val))
					ob := b.heapObjByAddr(uint32(vb.E.Val))
					if oa != nil && ob != nil {
						for i := range oa.Cells {
							if !mergeableScalar(oa.Cells[i], ob.Cells[i]) {
								return false
							}
						}
					}
				}
				continue
			}
			oa := a.object(va.Ref, false)
			ob := b.object(vb.Ref, false)
			if len(oa.Cells) != len(ob.Cells) {
				return false
			}
			for i := range oa.Cells {
				if !mergeableScalar(oa.Cells[i], ob.Cells[i]) {
					return false
				}
			}
		}
	}
	return true
}

// mergeableScalar is the per-variable condition of Equation (1):
// s1[v] = s2[v] ∨ I◁s1[v] ∨ I◁s2[v].
func mergeableScalar(x, y *expr.Expr) bool {
	return x == y || x.IsSymbolic() || y.IsSymbolic()
}

// similarFullVariant implements Equation (7) of §3.3:
//
//	(ζ−1)·max{v: s1[v]≠ₛs2[v]} Qite(ℓ,v) + max{v: s1[v]≠ᶜs2[v]} Qadd(ℓ,v) < α·Qt
//
// where ≠ₛ marks differing values with a symbolic side (merging wraps them
// in new ite expressions) and ≠ᶜ differing concrete values (merging makes
// previously-concrete branches query the solver). The per-variable counts
// coincide (Qite(ℓ,v) = Qadd(ℓ,v), §3.3), so one table serves both terms.
func (e *Engine) similarFullVariant(a, b *State) bool {
	p := e.qce.Params
	globalQt := 0.0
	for _, f := range a.Frames {
		fq := e.qce.PerFunc[f.Fn]
		if pc := f.PC; pc < len(fq.Qt) {
			globalQt += fq.Qt[pc]
		}
	}
	maxIte, maxAdd := 0.0, 0.0
	scan := func(q float64, x, y *expr.Expr) {
		if x == y {
			return
		}
		if x.IsSymbolic() || y.IsSymbolic() {
			if q > maxIte {
				maxIte = q
			}
		} else if q > maxAdd {
			maxAdd = q
		}
	}
	for depth := range a.Frames {
		fa, fb := a.Frames[depth], b.Frames[depth]
		fq := e.qce.PerFunc[fa.Fn]
		pc := fa.PC
		if pc >= len(fq.Qadd) {
			pc = len(fq.Qadd) - 1
		}
		for v := range fa.Locals {
			q := fq.Qadd[pc][v]
			if q == 0 {
				continue
			}
			va, vb := fa.Locals[v], fb.Locals[v]
			if va.E != nil {
				scan(q, va.E, vb.E)
				if fq.Fn.Locals[v].Type.Kind == ir.Ptr && va.E.IsConst() && va.E == vb.E {
					oa := a.heapObjByAddr(uint32(va.E.Val))
					ob := b.heapObjByAddr(uint32(vb.E.Val))
					if oa != nil && ob != nil {
						for c := range oa.Cells {
							scan(q, oa.Cells[c], ob.Cells[c])
						}
					}
				}
				continue
			}
			oa := a.object(va.Ref, false)
			ob := b.object(vb.Ref, false)
			if len(oa.Cells) != len(ob.Cells) {
				return false
			}
			for c := range oa.Cells {
				scan(q, oa.Cells[c], ob.Cells[c])
			}
		}
	}
	return (p.Zeta-1)*maxIte+maxAdd < p.Alpha*globalQt
}

// rejectReason classifies a failed similarity check for the trace by
// re-running the gates of similar in order and naming the first one that
// refuses. Trace-only: it runs solely when a sink or metrics registry is
// attached, never on the plain exploration path.
func (e *Engine) rejectReason(a, b *State) string {
	switch {
	case !sameStack(a, b):
		return "stack"
	case !sameHeapShape(a, b):
		return "heap-shape"
	case e.qce != nil && e.qce.Params.Zeta > 1:
		return "cost-model" // Equation 7's aggregate term tipped the scale
	default:
		return "hot-var" // some hot variable differs concretely (Equation 1)
	}
}

// tryMerge looks for a worklist state at the same location similar to ns and
// merges them (Algorithm 1, lines 17–22). It reports whether ns was
// consumed by a merge.
func (e *Engine) tryMerge(ns *State) bool {
	key := ns.stackHash()
	for _, cand := range e.byStack[key] {
		e.stats.MergeAttempts++
		var gate0 time.Time
		if e.obs.Active() {
			loc := ns.Loc()
			e.obs.MergeAttempt(ns.ID, cand.ID, loc.Fn, loc.PC)
			gate0 = time.Now()
		}
		if !e.similar(ns, cand) {
			if e.obs.Active() {
				qt := e.globalQt(ns)
				var threshold float64
				if e.qce != nil {
					threshold = e.qce.Params.Threshold(qt)
				}
				e.obs.MergeReject(ns.ID, cand.ID, e.rejectReason(ns, cand), qt, threshold, time.Since(gate0))
			}
			continue
		}
		e.removeState(cand)
		// Crash-recovery hook: dying here leaves the widest in-memory
		// inconsistency the engine has — the candidate is already off the
		// worklist and the merged state does not exist yet.
		faultinject.Hit(faultinject.PointMerge)
		merged := e.merge(cand, ns)
		e.stats.Merges++
		if ns.ff {
			e.stats.FFMerged++
		}
		if e.obs.Active() {
			e.obs.MergeAccept(cand.ID, ns.ID, merged.ID, time.Since(gate0))
		}
		// The merged state may itself merge further (rare).
		if !e.tryMerge(merged) {
			e.addState(merged)
		}
		return true
	}
	return false
}

// merge combines two states at the same location into one precise state
// (Algorithm 1 line 20): pc' = pc1 ∨ pc2 with the common prefix factored
// out, and store values guarded by ite over the differing suffix.
func (e *Engine) merge(s1, s2 *State) *State {
	b := e.build

	// Factor the path conditions: the positionally common prefix is shared
	// structurally (same backing array, zero new nodes); each differing
	// suffix becomes ONE canonical n-ary conjunction; and the disjunction
	// of the suffixes factors any conjuncts they still share — the
	// or/factor rewrite rule — which catches prefixes that earlier merges
	// re-conjoined out of positional alignment.
	k := 0
	for k < len(s1.PC) && k < len(s2.PC) && s1.PC[k] == s2.PC[k] {
		k++
	}
	c1 := b.AndN(s1.PC[k:])
	c2 := b.AndN(s2.PC[k:])
	disj := b.Or(c1, c2)
	// A factored disjunction comes back as a conjunction
	// (shared ∧ residual-or): splice its conjuncts into the path condition
	// separately, so the session blasts each once.
	var added []*expr.Expr
	switch {
	case disj.IsTrue():
	case disj.Kind == expr.KAnd:
		added = disj.Kids
	default:
		added = []*expr.Expr{disj}
	}
	newPC := append(s1.PC[:k:k], added...) // full slice expr: append copies

	m := &State{
		ID:     e.nextID,
		Frames: make([]*Frame, len(s1.Frames)),
		PC:     newPC,
		Mult:   new(big.Int).Add(s1.Mult, s2.Mult),
		nSyms:  maxInt(s1.nSyms, s2.nSyms),
		// Sessions from one solver share their blasted prefix, so either
		// side's session serves the merged lineage.
		sess: s1.sess.Fork(),
	}
	e.nextID++
	for _, c := range added {
		m.sess.NoteConjunct(c)
	}

	// Merge outputs precisely: the streams' shared prefix stays as is, and
	// each side's divergent part is printed under that side's
	// path-condition suffix, so replaying a model reproduces exactly the
	// bytes that path printed.
	m.Output = joinOut(s1.Output, s2.Output, c1, c2)

	// Merge frames: scalars via ite, arrays cell-wise.
	for depth := range s1.Frames {
		f1, f2 := s1.Frames[depth], s2.Frames[depth]
		nf := &Frame{Fn: f1.Fn, PC: f1.PC, RetDst: f1.RetDst}
		nf.Locals = make([]Value, len(f1.Locals))
		nf.Objects = make([]*Object, len(f1.Objects))
		// Dead-slot slimming: a slot liveness proves dead at the resume pc
		// is never read before being redefined, so either side's value is
		// interchangeable — keep s1's and skip the ite selector. QCE hot
		// sets are already liveness-masked, so similarity scoring and merge
		// gating see identical inputs with or without the analysis; only
		// the unobservable dead contents differ.
		var lrow []bool
		if e.an != nil {
			if lv := e.an.Funcs[f1.Fn].Live; f1.PC < len(lv) {
				lrow = lv[f1.PC]
			}
		}
		for i := range f1.Locals {
			v1, v2 := f1.Locals[i], f2.Locals[i]
			if lrow != nil && i < len(lrow) && !lrow[i] {
				if v1.E != nil {
					nf.Locals[i] = v1
				} else {
					nf.Locals[i] = Value{Ref: v1.Ref}
					if o1 := f1.Objects[i]; o1 != nil {
						// Reuse s1's object; mark it shared so any
						// later write copies first (COW).
						o1.shared = true
						nf.Objects[i] = o1
					}
				}
				continue
			}
			if v1.E != nil {
				if v1.E == v2.E {
					nf.Locals[i] = v1
				} else {
					nf.Locals[i] = Value{E: b.Ite(c1, v1.E, v2.E)}
				}
				continue
			}
			// Array local: parameters keep their (identical by
			// sameStack) reference; owned objects merge cell-wise.
			nf.Locals[i] = Value{Ref: v1.Ref}
			o1 := f1.Objects[i]
			if o1 == nil {
				continue // parameter reference
			}
			o2 := f2.Objects[i]
			merged := make([]*expr.Expr, len(o1.Cells))
			for c := range o1.Cells {
				if o1.Cells[c] == o2.Cells[c] {
					merged[c] = o1.Cells[c]
				} else {
					merged[c] = b.Ite(c1, o1.Cells[c], o2.Cells[c])
				}
			}
			nf.Objects[i] = &Object{Cells: merged, Width: o1.Width}
		}
		m.Frames[depth] = nf
	}

	// Merge the heap segment cell-wise under the same guard, exactly like
	// frame-owned array objects. Allocation-site-canonical ids make the two
	// segments positionally identical (sameHeapShape gated the merge), and
	// the per-site counters agree for the same reason — no object is ever
	// freed, so equal shapes imply equal allocation histories.
	if s1.heap != nil {
		m.heap = make([]heapEntry, len(s1.heap))
		for i := range s1.heap {
			o1, o2 := s1.heap[i].obj, s2.heap[i].obj
			merged := make([]*expr.Expr, len(o1.Cells))
			for c := range o1.Cells {
				if o1.Cells[c] == o2.Cells[c] {
					merged[c] = o1.Cells[c]
				} else {
					merged[c] = b.Ite(c1, o1.Cells[c], o2.Cells[c])
				}
			}
			m.heap[i] = heapEntry{id: s1.heap[i].id, obj: &Object{Cells: merged, Width: o1.Width}}
		}
	}
	if s1.allocs != nil {
		m.allocs = make([]uint16, len(s1.allocs))
		copy(m.allocs, s1.allocs)
	}

	// DSM history: a merged state starts a fresh history (its past is
	// ambiguous); census lists concatenate, witnesses with them.
	if s1.Shadow != nil || s2.Shadow != nil {
		m.Shadow = make([][]*expr.Expr, 0, len(s1.Shadow)+len(s2.Shadow))
		for _, s := range []*State{s1, s2} {
			for i, p := range s.Shadow {
				m.addShadow(p, witnessAt(s.shadowWit, i))
			}
		}
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
