package solver

// Incremental solver sessions: blast-once/assume-many solving over the path
// condition.
//
// The engine's feasibility queries share an ever-growing path-condition
// prefix: a state that explores k branches issues queries pc, pc∧c1,
// pc∧c1∧c2, ... whose conjunct sets overlap almost entirely. Re-blasting
// the whole set for every query would pay O(n·k) encoding work per path. A
// Session instead owns one persistent sat.Solver + blaster and blasts each
// conjunct exactly once, guarded by an activation literal a_c with the
// clause (¬a_c ∨ blast(c)). A query over a conjunct set Q is then a single
// solve under the assumptions a_c for c in Q: conjuncts outside Q stay
// dormant (their activation literals are free and read as false), learned
// clauses persist across queries — they are derived from the clause
// database alone, never from the assumptions, so an unsat result under one
// assumption set cannot poison later queries — and the CDCL instance
// amortizes across the whole state lineage.
//
// A query costs what it asks, not what the core holds: each solve is
// restricted to the query's cone, the circuit its activation literals and
// preferred bits reach (sat.Solver.SolveCone). Dormant conjuncts and the
// gates only they use are neither decided nor propagated above the root
// level.
//
// Sessions fork on state fork. All forks share one sessionCore: the
// activation-literal discipline makes the core's clause database a superset
// encoding of every lineage's path condition, so sharing *is* the
// prefix-sharing the engine wants, with zero copying at fork time.
//
// A core's per-node tables (the blaster's cache, the conjunct registry,
// the visited set of a variable walk) are indexed by node ID
// (expr.NodeMap): a lookup is an index and a compare, and a reset forgets
// them in O(1) while keeping their memory. IDs are dense per builder, so a
// core holds one builder's nodes; a query over another builder's
// conjuncts rebuilds it, as a rebase does. Calls made without a session
// use the solver's spare core, reset per call.

import (
	"time"

	"symmerge/internal/expr"
	"symmerge/internal/solver/sat"
)

// defaultRebaseVars bounds the shared CDCL instance: once the variable count
// passes the limit, the core is rebuilt empty and live conjuncts re-blast on
// demand. A solve decides only its query's cone, so the limit does not bound
// the work per call; it bounds the memory of a long exploration and the
// length of the watch lists, whose dormant watchers propagation still
// visits.
const defaultRebaseVars = 1 << 17

// actRecord is the per-conjunct bookkeeping of a session core: the
// activation literal (act → conjunct holds) and the conjunct's input
// variables, vars[lo:hi] of the core (for model extraction).
type actRecord struct {
	act    sat.Lit
	lo, hi uint32
}

// sessionCore is the shared incremental state behind one or more Session
// handles: a persistent SAT instance, its blaster, and the conjunct
// registry. Its tables are indexed by node ID (expr.NodeMap), so a core
// holds the nodes of one builder: a query over another builder's conjuncts
// rebuilds it empty, as a rebase does.
type sessionCore struct {
	ss         *sat.Solver
	bl         *blaster
	acts       expr.NodeMap[actRecord]
	vars       []*expr.Expr // the registered conjuncts' variable lists
	rebaseVars int

	// Reused by every solve and registration: the query's activation
	// literals, preferred literals and cone, the cone walk's marks, the
	// visited set of one variable walk and the distinct variables of one
	// model.
	assumps, prefer []sat.Lit
	cone            []int32
	mark            []bool
	seen            expr.NodeMap[struct{}]
	modelVars       []*expr.Expr
}

func newSessionCore(limit int) *sessionCore {
	c := &sessionCore{bl: &blaster{}, rebaseVars: limit}
	c.reset()
	return c
}

// reset discards the blasted state, keeping the tables' memory; conjuncts
// re-blast lazily on next use.
func (c *sessionCore) reset() {
	c.ss = sat.New()
	c.bl.reset(c.ss)
	c.acts.Clear()
	clear(c.vars) // the old nodes may be another builder's: let them go
	c.vars = c.vars[:0]
}

// holds reports whether the core may register every conjunct of live: it
// is empty or holds their builder's nodes.
func (c *sessionCore) holds(live []*expr.Expr) bool {
	for _, e := range live {
		if !c.acts.Accepts(e) {
			return false
		}
	}
	return true
}

// addConjunct blasts a conjunct behind a fresh activation literal.
func (c *sessionCore) addConjunct(e *expr.Expr) actRecord {
	a := c.bl.guard(c.bl.blastBool(e))
	lo := uint32(len(c.vars))
	c.seen.Clear()
	c.collectVars(e)
	rec := actRecord{act: a, lo: lo, hi: uint32(len(c.vars))}
	c.acts.Put(e, rec)
	return rec
}

// visit marks x in the walk's visited set and reports whether it was new.
func (c *sessionCore) visit(x *expr.Expr) bool {
	if _, ok := c.seen.Get(x); ok {
		return false
	}
	c.seen.Put(x, struct{}{})
	return true
}

// collectVars appends the input variables of x not yet visited to vars, as
// x.Vars would list them. The walk does not descend into a conjunct the
// core has registered but takes its recorded list, which is that
// conjunct's exact variable set: the conjuncts a merge or a branch adds
// are built over earlier ones (a merged disjunction over the suffix
// conjuncts, a branch condition over merged ite selectors), so a full walk
// would re-traverse the whole history.
func (c *sessionCore) collectVars(x *expr.Expr) {
	if !x.IsSymbolic() || !c.visit(x) {
		return
	}
	if x.Kind == expr.KVar {
		c.vars = append(c.vars, x)
		return
	}
	if rec, ok := c.acts.Get(x); ok {
		for _, v := range c.vars[rec.lo:rec.hi] {
			if c.visit(v) {
				c.vars = append(c.vars, v)
			}
		}
		return
	}
	for _, k := range x.Kids {
		c.collectVars(k)
	}
}

// coneOf lists the variables that roots reach through circuit inputs,
// breadth-first from the roots. The order seeds the tie-breaking of
// SolveCone's VSIDS heap: on the densest cones measured (tsort under
// SSM+QCE) it cost 19.3 conflicts per call where descending index order
// cost 23.0.
func (c *sessionCore) coneOf(roots ...[]sat.Lit) []int32 {
	if n := c.ss.NumVars(); len(c.mark) < n {
		c.mark = append(c.mark, make([]bool, n-len(c.mark))...)
	}
	mark, ins, end := c.mark, c.bl.ins, c.bl.insEnd
	cone := c.cone[:0]
	for _, ls := range roots {
		for _, l := range ls {
			if v := int32(l.Var()); !mark[v] {
				mark[v] = true
				cone = append(cone, v)
			}
		}
	}
	// cone doubles as the work list: the variables from i on are yet to
	// expand.
	for i := 0; i < len(cone); i++ {
		v := cone[i]
		lo := int32(0)
		if v > 0 {
			lo = end[v-1]
		}
		for _, u := range ins[lo:end[v]] {
			if !mark[u] {
				mark[u] = true
				cone = append(cone, u)
			}
		}
	}
	for _, v := range cone {
		mark[v] = false
	}
	c.cone = cone
	return cone
}

// Session answers satisfiability queries over conjunct sets, blasting each
// conjunct the first time a query names it. Obtain one with
// Solver.NewSession, thread it through Solver.CheckSatIn / MayBeTrueIn, and
// Fork it wherever the owning execution state forks.
type Session struct {
	solv *Solver
	core *sessionCore
}

// NewSession returns a fresh incremental session bound to this solver.
func (s *Solver) NewSession() *Session {
	return &Session{solv: s, core: newSessionCore(defaultRebaseVars)}
}

// freshSession returns the session of one call made without a session: the
// solver's spare core, reset.
func (s *Solver) freshSession() *Session {
	if s.spare == nil {
		s.spare = newSessionCore(defaultRebaseVars)
	} else {
		s.spare.reset()
		s.spare.rebaseVars = defaultRebaseVars
	}
	return &Session{solv: s, core: s.spare}
}

// Fork returns a session for a diverging state lineage. The blasted prefix
// is shared: both handles keep answering from the same underlying instance,
// selecting their own conjunct sets via assumptions.
func (sess *Session) Fork() *Session {
	if sess == nil {
		return nil
	}
	return &Session{solv: sess.solv, core: sess.core}
}

// NoteConjunct blasts a path-condition conjunct into the session core if it
// is not already there. The engine calls this whenever a conjunct joins a
// state's path condition, keeping the session in sync even when the query
// that admitted the conjunct was answered by the model-reuse fast path
// (which never reaches the session). Each distinct conjunct is blasted
// exactly once per core regardless of how many queries or lineages use it.
func (sess *Session) NoteConjunct(c *expr.Expr) {
	if sess == nil || c == nil || c.IsConst() {
		return
	}
	core := sess.core
	if !core.acts.Accepts(c) {
		core.reset()
		sess.solv.Stats.SessionRebases++
	}
	if _, ok := core.acts.Get(c); !ok {
		core.addConjunct(c)
	}
}

// check decides the conjunction of live under the session's persistent
// instance. Precondition: live has passed CheckSat's concrete fast path (no
// constant conjuncts). On sat, the model covers exactly the variables of
// live.
func (sess *Session) check(live []*expr.Expr) (bool, Model, error) {
	if res, err := sess.solve(live, nil); !res {
		return false, nil, err
	}
	core := sess.core
	vs := core.modelVars[:0]
	core.seen.Clear()
	for _, c := range live {
		rec, _ := core.acts.Get(c)
		for _, v := range core.vars[rec.lo:rec.hi] {
			if core.visit(v) {
				vs = append(vs, v)
			}
		}
	}
	m := make(Model, len(vs))
	for _, v := range vs {
		m[v] = core.bl.modelValue(v)
	}
	core.modelVars = vs
	return true, m, nil
}

// solve runs one SAT call over the conjunction of live, registering the
// conjuncts the core has not blasted yet, and reports whether it is sat;
// the model is then readable through the core's blaster on the variables
// of live and prefer. When prefer is non-empty, the search decides the bits
// of those variables first, in order, most significant first, at value 0
// (see MinModelIn). The call is restricted to the cone of the activation
// literals and the preferred bits.
func (sess *Session) solve(live, prefer []*expr.Expr) (bool, error) {
	s := sess.solv
	core := sess.core
	rebased := false
	if core.ss.NumVars() >= core.rebaseVars || !core.holds(live) {
		core.reset()
		rebased = true
		s.Stats.SessionRebases++
	}
	s.Stats.SATCalls++
	start := time.Now()
	defer func() { s.Stats.SATTime += time.Since(start) }()

	core.ss.Deadline = s.deadline
	v0, c0 := core.ss.NumVars(), core.ss.NumClauses()
	assumps := core.assumps[:0]
	for _, c := range live {
		rec, ok := core.acts.Get(c)
		if ok {
			s.Stats.SessionBlastReuse++
		} else {
			// Unknown conjuncts register even when they are one-off
			// probes (negated bounds checks, assert refutations) that
			// never join a path condition: the registration overhead
			// beyond the Tseitin circuit — which any answer needs and
			// which the blaster caches — is one activation variable
			// and one binary clause per distinct hash-consed
			// expression. A query after a rebase, or the first query of
			// a restored state, registers its whole path condition here.
			rec = core.addConjunct(c)
		}
		assumps = append(assumps, rec.act)
	}
	// Per-query encoding effort: only the delta this query blasted counts;
	// reused conjunct encodings are free — the whole point of the session.
	s.Stats.SATVars += uint64(core.ss.NumVars() - v0)
	s.Stats.SATClauses += core.ss.NumClauses() - c0
	if rebased && core.ss.NumVars() >= core.rebaseVars {
		// The live set alone overflows the limit: the reset we just did
		// could not get the core under it, and re-triggering on every
		// query would degrade to a full re-blast per call with no
		// learned-clause reuse. Grow the limit geometrically instead so
		// the lineage stays incremental.
		core.rebaseVars = core.ss.NumVars() * 2
	}
	lits := core.prefer[:0]
	for _, v := range prefer {
		// A variable the core never blasted has no literals: nothing
		// constrains it, and modelValue reads it as 0.
		bits := core.bl.varBits(v)
		for k := len(bits) - 1; k >= 0; k-- {
			lits = append(lits, bits[k].Flip())
		}
	}
	core.assumps, core.prefer = assumps, lits
	cone := core.coneOf(assumps, lits)
	st0 := core.ss.Stats
	status := core.ss.SolveCone(cone, lits, assumps...)
	st := core.ss.Stats
	s.Stats.SATDecisions += st.Decisions - st0.Decisions
	s.Stats.SATPropagations += st.Propagations - st0.Propagations
	s.Stats.SATConflicts += st.Conflicts - st0.Conflicts
	s.Stats.ConeVars += uint64(len(cone))
	s.Stats.CoreVars += uint64(core.ss.NumVars())
	switch status {
	case sat.Sat:
		return true, nil
	case sat.Unsat:
		return false, nil
	default:
		s.Stats.Timeouts++
		return false, ErrBudget
	}
}
