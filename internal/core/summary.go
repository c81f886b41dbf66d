// summary.go: recording and application of compositional function summaries
// (internal/summary holds the cache and key machinery; this file holds the
// engine halves that need execution internals).
//
// At an OpCall the engine classifies the call site into a symbolic input
// class (closure signature + per-slot argument class + environment
// fingerprint). On a cache hit the callee is not explored at all: the cached
// entries are instantiated for the actual arguments, each entry's guard is
// discharged as an assume-summary query against the caller's incremental
// solver session, and the feasible entries materialize as successor states
// with the guard spliced into the path condition conjunct-wise. On a miss
// the callee is explored once by a nested sub-engine over canonical
// placeholder arguments and the resulting path set is recorded for every
// later call site — in this engine, in sibling workers, and (through a
// shared domain) in later runs of other programs.
//
// Soundness gates: static ineligibility (recursion, heap, fresh symbolic
// inputs) comes from summary.ProgInfo; dynamically, a recording that hits
// the step budget, a solver failure, the entry cap, or an aliased pair of
// array arguments falls back to inline exploration (the first three are
// negatively cached; aliasing is a property of the call site, not the
// closure, so it is re-checked per visit).
//
// Exactness: a summary entry is one recorded callee path. Under MergeNone
// the apply forks exactly the states inline exploration would have produced
// at the return point, with the same path-condition solution sets, outputs,
// array effects, and multiplicities — PathsMult is byte-identical with
// summaries on or off. Under a merging regime, forking one state per exact
// callee path and re-merging would invert the merger's own win (the callee's
// paths were the explosion being merged away), so the apply instead combines
// the return entries into ONE merged continuation and the halting entries
// into one merged exit state, mirroring merge(): the group disjunction is
// spliced into the path condition, values become ite-chains over the entry
// guards, and outputs carry their entry guard. Feasibility is then a single
// assume-summary query per group instead of one per entry. The exact-path
// census stays exact in both modes — shadow paths split per entry with a
// per-path feasibility query, so corpus bytes and Figure-3 census numbers
// are unchanged by the merged representation.
package core

import (
	"math/big"
	"time"

	"symmerge/internal/expr"
	"symmerge/internal/ir"
	"symmerge/internal/summary"
)

// maxSummaryEntries caps one recording's entry count (real + coverage-only).
// A callee whose path set exceeds it is negatively cached as too large.
const maxSummaryEntries = 512

// defaultSummarySteps is the recording step budget when the configuration
// leaves SummaryMaxSteps zero.
const defaultSummarySteps = 4096

// sumFn is the engine-local per-callee memo: the shared static analysis
// verdict plus the interned signature id, resolved once so the hot call
// path never takes the ProgInfo mutex.
type sumFn struct {
	init   bool
	logged bool // a summary_reject event was emitted for this callee
	reject summary.Reason
	fi     *summary.FuncInfo
	sigID  int
}

// engineSummaries is the per-engine summary machinery: the shared cache,
// the shared per-program static analysis, and engine-local memos.
type engineSummaries struct {
	cache    *summary.Cache
	pinfo    *summary.ProgInfo
	fns      []sumFn
	env      string // environment fingerprint (keys closures that read argv/stdin)
	maxSteps uint64
}

func newEngineSummaries(e *Engine, c *summary.Cache) *engineSummaries {
	ms := e.cfg.SummaryMaxSteps
	if ms == 0 {
		ms = defaultSummarySteps
	}
	concrete := e.cfg.ConcreteArgs != nil || e.cfg.ConcreteStdin != nil
	pinfo := c.Prog(e.prog)
	if e.an != nil {
		// Dataflow effect facts lift the static heap gate (sig.go
		// heapContained); without them the strict gate stands.
		pinfo.SetAnalysis(e.an)
	}
	return &engineSummaries{
		cache: c,
		pinfo: pinfo,
		fns:   make([]sumFn, len(e.prog.Funcs)),
		env: summary.EnvFingerprint(e.cfg.NArgs, e.cfg.ArgLen, e.cfg.StdinLen,
			argStrings(e.cfg.ConcreteArgs), e.cfg.ConcreteStdin, concrete),
		maxSteps: ms,
	}
}

func argStrings(args [][]byte) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = string(a)
	}
	return out
}

// recordingState marks an engine as a summary recorder and accumulates what
// the recording produces: terminated callee states (one per path) and the
// assume-prefix snapshots that become coverage-only entries.
type recordingState struct {
	// aborted is set when the recording hit a solver failure — an outcome
	// that depends on cache state and deadlines, not on the cache key, so
	// it must not be baked into a summary.
	aborted  bool
	finished []*State
	silent   []silentPoint
}

// silentPoint snapshots a path prefix at an assume instruction. Under a
// caller path condition the recording cannot see, the assume may cut the
// path; inline exploration would still have covered the prefix, so apply
// time replays that coverage from these snapshots (summary.KindSilent).
type silentPoint struct {
	pc    []*expr.Expr
	trail []ir.Loc
}

func (r *recordingState) assumePoint(s *State) {
	r.silent = append(r.silent, silentPoint{
		pc:    s.PC[:len(s.PC):len(s.PC)],
		trail: s.covTrail[:len(s.covTrail):len(s.covTrail)],
	})
}

// collect receives a terminated recording state from finishState.
func (r *recordingState) collect(s *State) {
	if s.Halt == HaltSilent {
		// Statically infeasible path: it vanishes identically inline
		// (no entry ≡ killed caller path), and any caller-dependent
		// partial coverage is replayed from the assume snapshots.
		return
	}
	if s.Err != nil && !s.Err.Assert {
		// Engine-analysis failure (exhausted solver budget at an assert):
		// like aborted branches, not a function of the key.
		r.aborted = true
		return
	}
	r.finished = append(r.finished, s)
}

// lifoStrategy is the recorder's driving strategy: depth-first over the
// callee, deterministic, and core-internal (the search package imports core,
// so recordings cannot use it).
type lifoStrategy struct{ stack []*State }

func (l *lifoStrategy) Add(s *State) { l.stack = append(l.stack, s) }

func (l *lifoStrategy) Remove(s *State) {
	for i := len(l.stack) - 1; i >= 0; i-- {
		if l.stack[i] == s {
			l.stack = append(l.stack[:i], l.stack[i+1:]...)
			return
		}
	}
}

func (l *lifoStrategy) Pick() *State {
	if len(l.stack) == 0 {
		return nil
	}
	return l.stack[len(l.stack)-1]
}

func (l *lifoStrategy) Len() int { return len(l.stack) }

// sumArg is one callee argument lowered to the placeholder domain: concrete
// slots keep their constant expressions (so constant folding prunes callee
// paths at record time), symbolic slots become canonical placeholders.
type sumArg struct {
	scalar *expr.Expr   // non-nil for scalar parameters
	cells  []*expr.Expr // non-nil for array parameters
	width  uint8
}

// summaryCall attempts to discharge the call instruction from the summary
// cache. It returns (successors, true) when the site was discharged —
// including recording the callee first on a miss — and (nil, false) when the
// caller must fall back to inline exploration (doCall).
func (e *Engine) summaryCall(s *State, in *ir.Instr, loc ir.Loc) ([]*State, bool) {
	su := e.sum
	sf := &su.fns[in.Callee]
	if !sf.init {
		sf.init = true
		sf.fi = su.pinfo.Info(in.Callee)
		sf.reject = sf.fi.Reject
		if sf.reject == summary.RejectNone && e.qce != nil &&
			sf.fi.Branches == 0 && e.qce.EntryQueries(in.Callee) == 0 {
			// QCE refinement: the closure neither forks nor triggers
			// solver queries, so inlining it is nearly free and the
			// cache machinery would not pay for itself.
			sf.reject = summary.RejectTrivial
		}
		if sf.reject == summary.RejectNone {
			sf.sigID = su.cache.SigID(sf.fi.Sig)
		}
	}
	if sf.reject != summary.RejectNone {
		e.rejectSummary(sf, in.Callee, sf.reject)
		return nil, false
	}
	fi := sf.fi
	// A heap-lifted closure replays allocations with the canonical
	// addresses a zero per-site counter mints (doAlloc); a path that
	// already executed one of its sites would re-mint colliding ids, so
	// it falls back to inline exploration. Per-path dynamic condition,
	// like aliasing: no negative caching.
	for _, site := range fi.HeapSites {
		if s.allocs[site] != 0 {
			e.rejectSummary(sf, in.Callee, summary.RejectHeapBusy)
			return nil, false
		}
	}
	t0 := time.Now()

	// Classify the arguments into the cache key, detect array-argument
	// aliasing, and lower the slots to the placeholder domain.
	env := ""
	if fi.ReadsEnv {
		env = su.env
	}
	kb := summary.NewKeyBuilder(sf.sigID, env)
	callee := e.prog.Funcs[in.Callee]
	args := make([]sumArg, len(in.Args))
	var ph []*expr.Expr
	slot := func(v *expr.Expr) *expr.Expr {
		ord := kb.Slot(v)
		if ord < 0 {
			return v
		}
		if ord == len(ph) {
			ph = append(ph, e.build.Var(placeholderName(ord, v.Width), v.Width))
		}
		return ph[ord]
	}
	var seenRefs []ObjRef
	for i, a := range in.Args {
		pt := callee.Locals[i].Type
		if !pt.Array() {
			args[i] = sumArg{scalar: slot(e.operand(s, a, pt))}
			continue
		}
		ref := s.resolveRef(s.arrayRef(a))
		for _, prev := range seenRefs {
			if prev == ref {
				// Two array parameters alias one object: the recording
				// would seed them as separate objects and miss the
				// write aliasing. Property of this call site's
				// arguments, so no negative caching.
				e.rejectSummary(sf, in.Callee, summary.RejectAliased)
				return nil, false
			}
		}
		seenRefs = append(seenRefs, ref)
		obj := s.Frames[ref.Depth].Objects[ref.Local]
		kb.Array(len(obj.Cells), obj.Width)
		cells := make([]*expr.Expr, len(obj.Cells))
		for c, cell := range obj.Cells {
			cells[c] = slot(cell)
		}
		args[i] = sumArg{cells: cells, width: obj.Width}
	}

	gkey := kb.GenericKey()
	ikey := kb.InstanceKey(gkey)
	if inst, ok := su.cache.Inst(ikey); ok {
		e.noteHeapLift(fi)
		return e.applySummary(s, in, loc, fi, inst, t0)
	}
	fs, negReason, ok := su.cache.Lookup(gkey)
	if !ok {
		if negReason != summary.RejectNone {
			e.rejectSummary(sf, in.Callee, negReason)
			return nil, false
		}
		fs = e.recordSummary(in.Callee, fi, gkey, args, ph)
		if fs == nil {
			e.stats.SummaryRejects++
			return nil, false
		}
	}
	inst := su.cache.StoreInst(ikey, fs.Instantiate(e.build, kb.Actuals))
	e.noteHeapLift(fi)
	return e.applySummary(s, in, loc, fi, inst, t0)
}

// noteHeapLift counts a call-site discharge that the original heap gate
// would have sent to inline exploration.
func (e *Engine) noteHeapLift(fi *summary.FuncInfo) {
	if len(fi.HeapSites) > 0 {
		e.stats.SummaryHeapLifted++
	}
}

// rejectSummary accounts an inline fallback. The trace event is emitted once
// per callee per engine (static verdicts repeat at every visit and would
// flood the stream) except for per-site dynamic reasons, which are rare and
// always emitted.
func (e *Engine) rejectSummary(sf *sumFn, fn int, r summary.Reason) {
	e.stats.SummaryRejects++
	if r == summary.RejectAliased {
		e.obs.SummaryReject(fn, r.String())
		return
	}
	if !sf.logged {
		sf.logged = true
		e.obs.SummaryReject(fn, r.String())
	}
}

func placeholderName(ord int, width uint8) string {
	// The width joins the name so placeholders for different slot widths
	// never collide in the shared builder's hash-consing.
	return "p!" + itoa(ord) + "_" + itoa(int(width))
}

// recordSummary explores the callee once over placeholder arguments with a
// nested sub-engine and stores the resulting summary under gkey. It returns
// nil when a dynamic gate fired (the failure is negatively cached).
func (e *Engine) recordSummary(callee int, fi *summary.FuncInfo, gkey string, args []sumArg, ph []*expr.Expr) *summary.FuncSummary {
	su := e.sum
	t0 := time.Now()
	rec := &recordingState{}
	scfg := Config{
		Merge:           MergeNone,
		NArgs:           e.cfg.NArgs,
		ArgLen:          e.cfg.ArgLen,
		StdinLen:        e.cfg.StdinLen,
		ConcreteArgs:    e.cfg.ConcreteArgs,
		ConcreteStdin:   e.cfg.ConcreteStdin,
		MaxSteps:        su.maxSteps,
		Context:         e.cfg.Context,
		PollEvery:       e.cfg.PollEvery,
		Builder:         e.build,
		DisableSessions: e.cfg.DisableSessions,
		SolverOpts:      e.cfg.SolverOpts,
	}
	sub := NewEngine(e.prog, scfg, &lifoStrategy{})
	// The recording runs nested and synchronously on this goroutine, so it
	// shares the parent's solver outright: query/cache statistics, the
	// counterexample cache, deadlines, and trace attribution all flow
	// through the parent's instance (the solver built by NewEngine above is
	// discarded). Sessions forked below root in the parent solver too.
	sub.solv = e.solv
	sub.recording = rec
	sub.Begin(false)
	sub.deadline = e.deadline

	// Seed: the callee as the bottom frame over an empty path condition,
	// scalar parameters bound to their class slots and array parameters to
	// fresh objects of the caller's actual length.
	seed := &State{ID: sub.nextID, Mult: big.NewInt(1)}
	sub.nextID++
	if n := e.prog.AllocSites; n > 0 {
		seed.allocs = make([]uint16, n)
	}
	seed.sess = sub.forkRootSession()
	fr := sub.newFrame(e.prog.Funcs[callee], -1)
	seed.pushFrame(fr)
	seedCells := make([][]*expr.Expr, len(args))
	for i, a := range args {
		if a.cells != nil {
			cells := make([]*expr.Expr, len(a.cells))
			copy(cells, a.cells)
			fr.Objects[i] = &Object{Cells: cells, Width: a.width}
			fr.Locals[i] = Value{Ref: ObjRef{Depth: 0, Local: i}}
			seedCells[i] = a.cells
		} else {
			fr.Objects[i] = nil
			fr.Locals[i] = Value{E: a.scalar}
		}
	}
	sub.addState(seed)

	truncated := false
	for sub.strategy.Len() > 0 && !rec.aborted {
		if sub.stopRequested() {
			truncated = true
			break
		}
		if len(rec.finished)+len(rec.silent) > maxSummaryEntries {
			break
		}
		if !sub.stepOnce() {
			break
		}
	}

	// The recording's execution work is the parent's work: absorb it into
	// the main counters (solver statistics flowed through the shared
	// instance already; SummarySteps keeps the recording share visible).
	e.stats.Instructions += sub.stats.Instructions
	e.stats.Forks += sub.stats.Forks
	e.stats.SummarySteps += sub.stats.Steps

	fail := func(r summary.Reason) *summary.FuncSummary {
		su.cache.StoreNegative(gkey, r)
		e.obs.SummaryInvalidate(callee, r.String())
		return nil
	}
	switch {
	case rec.aborted:
		return fail(summary.RejectAbort)
	case truncated:
		return fail(summary.RejectTruncated)
	case len(rec.finished)+len(rec.silent) > maxSummaryEntries:
		return fail(summary.RejectTooLarge)
	}

	ordOf := make(map[int]int, len(fi.Closure))
	for i, fn := range fi.Closure {
		ordOf[fn] = i
	}
	covRefs := func(trail []ir.Loc) []summary.LocRef {
		seen := make(map[ir.Loc]bool, len(trail))
		out := make([]summary.LocRef, 0, len(trail))
		for _, l := range trail {
			if seen[l] {
				continue
			}
			seen[l] = true
			out = append(out, summary.LocRef{Ord: ordOf[l.Fn], PC: l.PC})
		}
		return out
	}

	entries := make([]summary.Entry, 0, len(rec.finished)+len(rec.silent))
	for _, fin := range rec.finished {
		en := summary.Entry{PC: fin.PC, Cov: covRefs(fin.covTrail)}
		switch {
		case fin.Err != nil:
			en.Kind = summary.KindError
			en.Err = &summary.ErrInfo{
				Ord: ordOf[fin.Err.Loc.Fn], PC: fin.Err.Loc.PC,
				Msg: fin.Err.Msg, Assert: fin.Err.Assert,
			}
		case fin.retNormal:
			en.Kind = summary.KindReturn
			en.Ret = fin.ExitCode // doReturnValue parks the return value here
		default:
			en.Kind = summary.KindHalt
			en.Ret = fin.ExitCode
		}
		for _, o := range fin.Output {
			en.Out = append(en.Out, summary.OutEffect{Guard: o.Guard, Val: o.Val})
		}
		for pi, cells := range seedCells {
			if cells == nil {
				continue
			}
			obj := fin.object(ObjRef{Depth: 0, Local: pi}, false)
			for ci, c := range obj.Cells {
				// Hash-consing makes value equality pointer equality, so
				// a pointer diff against the seed finds exactly the cells
				// the path (possibly) changed.
				if c != cells[ci] {
					en.Writes = append(en.Writes, summary.CellWrite{Param: pi, Cell: ci, Val: c})
				}
			}
		}
		if en.Kind == summary.KindReturn && len(fin.heap) > 0 {
			// Heap-lifted closure: the seed heap was empty, so every live
			// object is closure-allocated and survives into the caller.
			// Halted and errored paths skip this — their heap dies with
			// the state.
			for _, he := range fin.heap {
				site := (int(he.id) - 1) / ir.HeapSiteSpan
				cells := make([]*expr.Expr, len(he.obj.Cells))
				copy(cells, he.obj.Cells)
				en.Heap = append(en.Heap, summary.HeapObj{Site: site, ID: he.id, Cells: cells})
			}
		}
		entries = append(entries, en)
	}
	for _, sp := range rec.silent {
		entries = append(entries, summary.Entry{
			PC: sp.pc, Kind: summary.KindSilent, Cov: covRefs(sp.trail),
		})
	}

	sum := su.cache.Store(gkey, &summary.FuncSummary{Placeholders: ph, Entries: entries})
	e.stats.SummaryRecords++
	e.obs.SummaryRecord(callee, len(entries), time.Since(t0))
	return sum
}

// guardOf conjoins an entry's path-condition conjuncts into the single
// assume-summary query expression.
func (e *Engine) guardOf(pc []*expr.Expr) *expr.Expr {
	if len(pc) == 0 {
		return e.build.Bool(true)
	}
	return e.build.AndN(pc)
}

// sumItem pairs an instantiated entry with its conjoined guard during apply.
type sumItem struct {
	en    *summary.Entry
	guard *expr.Expr
}

// applySummary discharges the call site from an instantiated summary,
// choosing the representation that matches the caller's search regime:
// exact per-entry forking under MergeNone, merged groups otherwise.
func (e *Engine) applySummary(s *State, in *ir.Instr, loc ir.Loc, fi *summary.FuncInfo, inst *summary.Instance, t0 time.Time) ([]*State, bool) {
	if e.cfg.Merge != MergeNone && summaryMergeable(in, inst) {
		return e.applySummaryMerged(s, in, loc, fi, inst, t0)
	}
	return e.applySummaryExact(s, in, loc, fi, inst, t0)
}

// summaryMergeable reports whether the instance's entries can be ite-combined:
// return values and exit codes must be uniformly present (or, for returns with
// an unused result, uniformly absent) so the chains are well-formed. Entries
// carrying heap objects force the exact representation — different callee
// paths may allocate different object sets, and a merged continuation has one
// heap shape.
func summaryMergeable(in *ir.Instr, inst *summary.Instance) bool {
	retVal, retVoid := false, false
	for i := range inst.Entries {
		en := &inst.Entries[i]
		if len(en.Heap) > 0 {
			return false
		}
		switch en.Kind {
		case summary.KindReturn:
			if en.Ret != nil {
				retVal = true
			} else {
				retVoid = true
			}
		case summary.KindHalt:
			if en.Ret == nil {
				return false
			}
		}
	}
	return !(in.Dst >= 0 && retVal && retVoid)
}

// applySummaryExact discharges the call site with one feasibility query per
// entry against the caller's session; the feasible entries materialize as
// one successor state each (the MergeNone representation).
func (e *Engine) applySummaryExact(s *State, in *ir.Instr, loc ir.Loc, fi *summary.FuncInfo, inst *summary.Instance, t0 time.Time) ([]*State, bool) {
	type feasEntry struct {
		en    *summary.Entry
		guard *expr.Expr
	}
	feas := make([]feasEntry, 0, len(inst.Entries))
	e.solv.SummaryScope(true)
	for i := range inst.Entries {
		en := &inst.Entries[i]
		guard := e.guardOf(en.PC)
		if guard.IsFalse() {
			continue
		}
		if en.Kind == summary.KindSilent && e.allCovered(en.Cov, fi) {
			// Coverage-only entry with nothing left to mark: skip the
			// feasibility query entirely.
			continue
		}
		if !guard.IsTrue() {
			may, err := e.solv.MayBeTrueIn(s.sess, s.PC, guard)
			if err != nil || !may {
				// An error kills the entry conservatively, exactly as a
				// solver failure at an inline callee branch kills the
				// path (doBranch).
				continue
			}
		}
		if en.Kind == summary.KindSilent {
			// Inline exploration would have walked this prefix before the
			// assume cut it; replay its coverage and drop the path.
			for _, lr := range en.Cov {
				e.markCovered(ir.Loc{Fn: fi.Closure[lr.Ord], PC: lr.PC})
			}
			continue
		}
		feas = append(feas, feasEntry{en, guard})
	}
	e.solv.SummaryScope(false)

	e.stats.SummaryHits++
	e.stats.SummaryEntries += uint64(len(feas))
	e.obs.SummaryApply(in.Callee, len(inst.Entries), len(feas), time.Since(t0))

	if len(feas) == 0 {
		// Every callee path is infeasible under the caller's path
		// condition: the caller path dies, exactly as it would inline.
		s.Halt = HaltSilent
		return []*State{s}, true
	}

	// Materialize continuations: fork for all but the last entry while s is
	// still unmodified, reuse s for the last.
	states := make([]*State, len(feas))
	for k := 0; k < len(feas)-1; k++ {
		ns := s.fork(e.nextID)
		e.nextID++
		e.stats.Forks++
		e.obs.Fork(s.ID, ns.ID, loc.Fn, loc.PC)
		states[k] = ns
	}
	states[len(feas)-1] = s
	out := make([]*State, 0, len(feas))
	for k, fe := range feas {
		ns := states[k]
		e.applyEntry(ns, in, fi, fe.en, fe.guard)
		if ns.Halt != HaltNone {
			out = append(out, ns)
		} else {
			out = append(out, e.blockBoundary(ns)...)
		}
	}
	return out, true
}

// applySummaryMerged discharges the call site for a merging search regime.
// Return entries collapse into one merged continuation and halt entries into
// one merged exit state — the states merge() would eventually rebuild, built
// here without ever forking the constituents. Feasibility is one
// assume-summary query per group (the disjunction of the entry guards);
// per-entry queries survive only for error obligations, for coverage replay
// of entries with not-yet-covered locations (gone once the closure's
// coverage saturates), and for the exact-path census.
func (e *Engine) applySummaryMerged(s *State, in *ir.Instr, loc ir.Loc, fi *summary.FuncInfo, inst *summary.Instance, t0 time.Time) ([]*State, bool) {
	b := e.build
	var rets, halts, errs []sumItem
	e.solv.SummaryScope(true)
	for i := range inst.Entries {
		en := &inst.Entries[i]
		guard := e.guardOf(en.PC)
		if guard.IsFalse() {
			continue
		}
		switch en.Kind {
		case summary.KindSilent:
			if e.allCovered(en.Cov, fi) {
				continue
			}
			if !guard.IsTrue() {
				if may, err := e.solv.MayBeTrueIn(s.sess, s.PC, guard); err != nil || !may {
					continue
				}
			}
			for _, lr := range en.Cov {
				e.markCovered(ir.Loc{Fn: fi.Closure[lr.Ord], PC: lr.PC})
			}
		case summary.KindError:
			if !guard.IsTrue() {
				if may, err := e.solv.MayBeTrueIn(s.sess, s.PC, guard); err != nil || !may {
					continue
				}
			}
			errs = append(errs, sumItem{en, guard})
		case summary.KindReturn:
			rets = append(rets, sumItem{en, guard})
		case summary.KindHalt:
			halts = append(halts, sumItem{en, guard})
		}
	}

	// Coverage replay. An entry whose locations are all covered already is
	// free; the rest need a feasibility check before marking (coverage must
	// not record locations only infeasible paths reach), and a refuted entry
	// drops out of its group. A kept-without-query entry may be infeasible
	// under the caller: harmless, since its guard is unsatisfiable inside the
	// merged state's disjunction — the same unpruned arms inline merging
	// carries.
	replay := func(items []sumItem) []sumItem {
		kept := items[:0]
		for _, it := range items {
			if !e.allCovered(it.en.Cov, fi) {
				if !it.guard.IsTrue() {
					if may, err := e.solv.MayBeTrueIn(s.sess, s.PC, it.guard); err != nil || !may {
						continue
					}
				}
				for _, lr := range it.en.Cov {
					e.markCovered(ir.Loc{Fn: fi.Closure[lr.Ord], PC: lr.PC})
				}
			}
			kept = append(kept, it)
		}
		return kept
	}
	rets = replay(rets)
	halts = replay(halts)

	// One assume-summary query per group. An infeasible disjunction kills
	// the whole group, exactly where inline exploration would have died at
	// the callee's branches.
	group := func(items []sumItem) ([]sumItem, *expr.Expr) {
		if len(items) == 0 {
			return nil, nil
		}
		g := items[0].guard
		for _, it := range items[1:] {
			g = b.Or(g, it.guard)
		}
		if g.IsFalse() {
			return nil, nil
		}
		if !g.IsTrue() {
			if may, err := e.solv.MayBeTrueIn(s.sess, s.PC, g); err != nil || !may {
				return nil, nil
			}
		}
		return items, g
	}
	var retG, haltG *expr.Expr
	rets, retG = group(rets)
	halts, haltG = group(halts)
	e.solv.SummaryScope(false)

	total := len(rets) + len(halts) + len(errs)
	e.stats.SummaryHits++
	e.stats.SummaryEntries += uint64(total)
	e.obs.SummaryApply(in.Callee, len(inst.Entries), total, time.Since(t0))

	if total == 0 {
		s.Halt = HaltSilent
		return []*State{s}, true
	}

	// Successors: one state per error obligation, one merged exit, one
	// merged continuation. Fork all but the last while s is unmodified.
	nSucc := len(errs)
	if len(halts) > 0 {
		nSucc++
	}
	if len(rets) > 0 {
		nSucc++
	}
	states := make([]*State, nSucc)
	for k := 0; k < nSucc-1; k++ {
		ns := s.fork(e.nextID)
		e.nextID++
		e.stats.Forks++
		e.obs.Fork(s.ID, ns.ID, loc.Fn, loc.PC)
		states[k] = ns
	}
	states[nSucc-1] = s

	out := make([]*State, 0, nSucc)
	idx := 0
	for _, it := range errs {
		ns := states[idx]
		idx++
		e.applyEntry(ns, in, fi, it.en, it.guard)
		out = append(out, ns)
	}
	if len(halts) > 0 {
		ns := states[idx]
		idx++
		e.applyGroup(ns, halts, haltG)
		ns.Halt = HaltExit
		ns.ExitCode = iteFold(b, halts, func(it sumItem) *expr.Expr { return it.en.Ret })
		out = append(out, ns)
	}
	if len(rets) > 0 {
		ns := states[idx]
		e.applyGroup(ns, rets, retG)
		e.applyGroupWrites(ns, in, rets)
		f := ns.top()
		if in.Dst >= 0 && rets[0].en.Ret != nil {
			f.Locals[in.Dst] = Value{E: iteFold(b, rets, func(it sumItem) *expr.Expr { return it.en.Ret })}
		}
		f.PC++ // doCall's return-address bump never happened
		ns.justRet = true
		out = append(out, e.blockBoundary(ns)...)
	}
	return out, true
}

// applyGroup replays the parts a merged group shares onto one caller state:
// the census split, the path-condition splice of the group disjunction, the
// entry-guarded outputs, and the multiplicity of the combined paths.
func (e *Engine) applyGroup(ns *State, items []sumItem, g *expr.Expr) {
	e.filterShadowGroup(ns, items)
	// Splice the disjunction the way merge() does: a factored disjunction
	// comes back as a conjunction (shared ∧ residual-or) whose conjuncts go
	// in separately, so the session blasts each once and the independence
	// slicer can partition them.
	var added []*expr.Expr
	switch {
	case g.IsTrue():
	case g.Kind == expr.KAnd:
		added = g.Kids
	default:
		added = []*expr.Expr{g}
	}
	for _, c := range added {
		ns.PC = appendPC(ns.PC, c)
		ns.sess.NoteConjunct(c)
	}
	if len(items) > 1 {
		// Each constituent path carries the caller's multiplicity, and a
		// merge sums them. Unproven-infeasible members over-approximate,
		// which is Mult's contract under merging.
		ns.Mult = new(big.Int).Mul(ns.Mult, big.NewInt(int64(len(items))))
	}
	for _, it := range items {
		for _, o := range it.en.Out {
			oe := OutEntry{Guard: o.Guard, Val: o.Val}
			if len(items) > 1 {
				oe = guardOut(e.build, oe, it.guard)
			}
			ns.Output = appendOut(ns.Output, oe)
		}
	}
}

// applyGroupWrites merges the array-parameter effects of a group: every cell
// any member wrote becomes an ite-chain over the entry guards, defaulting to
// the caller's current cell value for members that left it unchanged.
func (e *Engine) applyGroupWrites(ns *State, in *ir.Instr, items []sumItem) {
	if len(items) == 1 {
		for _, w := range items[0].en.Writes {
			obj := ns.object(ns.arrayRef(in.Args[w.Param]), true)
			if w.Cell < len(obj.Cells) {
				obj.Cells[w.Cell] = w.Val
			}
		}
		return
	}
	type cellKey struct{ param, cell int }
	var order []cellKey
	seen := make(map[cellKey]bool)
	for _, it := range items {
		for _, w := range it.en.Writes {
			k := cellKey{w.Param, w.Cell}
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		}
	}
	for _, k := range order {
		obj := ns.object(ns.arrayRef(in.Args[k.param]), true)
		if k.cell >= len(obj.Cells) {
			continue
		}
		v := obj.Cells[k.cell]
		for i := len(items) - 1; i >= 0; i-- {
			for _, w := range items[i].en.Writes {
				if w.Param == k.param && w.Cell == k.cell {
					v = e.build.Ite(items[i].guard, w.Val, v)
					break
				}
			}
		}
		obj.Cells[k.cell] = v
	}
}

// iteFold chains a per-entry value over the entry guards. The guards are
// mutually exclusive (distinct exact callee paths), so the chain order only
// needs to be deterministic, not semantic.
func iteFold(b *expr.Builder, items []sumItem, val func(sumItem) *expr.Expr) *expr.Expr {
	v := val(items[len(items)-1])
	for i := len(items) - 2; i >= 0; i-- {
		v = b.Ite(items[i].guard, val(items[i]), v)
	}
	return v
}

// filterShadowGroup distributes the exact-path census across a merged group:
// each caller shadow path forks into one extension per member entry it is
// jointly feasible with — the per-entry exactness that keeps the census and
// the canonical corpus byte-identical while the states themselves merge.
func (e *Engine) filterShadowGroup(ns *State, items []sumItem) {
	if ns.Shadow == nil {
		return
	}
	kept := make([][]*expr.Expr, 0, len(ns.Shadow))
	for _, p := range ns.Shadow {
		for _, it := range items {
			if !it.guard.IsTrue() {
				if may, err := e.solv.MayBeTrueIn(ns.sess, p, it.guard); err != nil || !may {
					continue
				}
			}
			np := p
			for _, c := range it.en.PC {
				np = appendPC(np, c)
			}
			kept = append(kept, np)
		}
	}
	ns.Shadow = kept
}

// allCovered reports whether every location of a coverage set has already
// been executed.
func (e *Engine) allCovered(cov []summary.LocRef, fi *summary.FuncInfo) bool {
	for _, lr := range cov {
		if !e.coverage[e.prog.LocIndex(ir.Loc{Fn: fi.Closure[lr.Ord], PC: lr.PC})] {
			return false
		}
	}
	return true
}

// applyEntry replays one feasible summary entry onto a caller state: path
// condition, shadow census, coverage, output, array-parameter writes, and
// the terminal (return-value binding, halt, or error obligation).
func (e *Engine) applyEntry(ns *State, in *ir.Instr, fi *summary.FuncInfo, en *summary.Entry, guard *expr.Expr) {
	e.filterShadow(ns, en.PC, guard)
	for _, c := range en.PC {
		ns.PC = appendPC(ns.PC, c)
		ns.sess.NoteConjunct(c)
	}
	for _, lr := range en.Cov {
		e.markCovered(ir.Loc{Fn: fi.Closure[lr.Ord], PC: lr.PC})
	}
	for _, o := range en.Out {
		ns.Output = appendOut(ns.Output, OutEntry{Guard: o.Guard, Val: o.Val})
	}
	for _, w := range en.Writes {
		obj := ns.object(ns.arrayRef(in.Args[w.Param]), true)
		if w.Cell < len(obj.Cells) {
			obj.Cells[w.Cell] = w.Val
		}
	}
	for _, h := range en.Heap {
		// Replay the closure's allocations exactly as doAlloc would have
		// produced them: the RejectHeapBusy gate guaranteed zero per-site
		// counters, so the recorded ids are the ids inline execution mints.
		cells := make([]*expr.Expr, len(h.Cells))
		copy(cells, h.Cells)
		ns.insertHeap(h.ID, &Object{Cells: cells, Width: 32})
		ns.allocs[h.Site]++
	}
	f := ns.top()
	switch en.Kind {
	case summary.KindReturn:
		if in.Dst >= 0 && en.Ret != nil {
			f.Locals[in.Dst] = Value{E: en.Ret}
		}
		f.PC++ // doCall's return-address bump never happened
		ns.justRet = true
	case summary.KindHalt:
		ns.Halt = HaltExit
		ns.ExitCode = en.Ret
	case summary.KindError:
		fnIdx := fi.Closure[en.Err.Ord]
		eloc := ir.Loc{Fn: fnIdx, PC: en.Err.PC}
		// Positions are reattached from the applying program: the summary
		// may have been recorded from a structurally identical closure of
		// another program (cross-tool sharing).
		e.failPath(ns, eloc, e.prog.Funcs[fnIdx].Instrs[en.Err.PC].Pos, en.Err.Msg)
		ns.Err.Assert = en.Err.Assert
	}
}

// filterShadow distributes the exact-path census across a summary entry: a
// shadow path follows this entry iff it is feasible under the entry's guard
// (the n-way generalization of splitShadow).
func (e *Engine) filterShadow(ns *State, pcs []*expr.Expr, guard *expr.Expr) {
	if ns.Shadow == nil {
		return
	}
	kept := make([][]*expr.Expr, 0, len(ns.Shadow))
	for _, p := range ns.Shadow {
		if !guard.IsTrue() {
			if may, err := e.solv.MayBeTrueIn(ns.sess, p, guard); err != nil || !may {
				continue
			}
		}
		np := p
		for _, c := range pcs {
			np = appendPC(np, c)
		}
		kept = append(kept, np)
	}
	ns.Shadow = kept
}
