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

// actRecord is the per-conjunct bookkeeping of a session core.
type actRecord struct {
	act  sat.Lit      // activation literal: act → conjunct holds
	vars []*expr.Expr // input variables of the conjunct (for model extraction)
}

// sessionCore is the shared incremental state behind one or more Session
// handles: a persistent SAT instance, its blaster, and the activation map.
type sessionCore struct {
	ss         *sat.Solver
	bl         *blaster
	acts       map[*expr.Expr]actRecord
	rebaseVars int

	// Reused by every solve: the query's activation literals, preferred
	// literals and cone, and the cone walk's marks.
	assumps, prefer []sat.Lit
	cone            []int32
	mark            []bool
}

func newSessionCore(limit int) *sessionCore {
	ss := sat.New()
	return &sessionCore{
		ss:         ss,
		bl:         newBlaster(ss),
		acts:       make(map[*expr.Expr]actRecord, 64),
		rebaseVars: limit,
	}
}

// reset discards the blasted state; conjuncts re-blast lazily on next use.
func (c *sessionCore) reset() {
	c.ss = sat.New()
	c.bl = newBlaster(c.ss)
	c.acts = make(map[*expr.Expr]actRecord, 64)
}

// addConjunct blasts a conjunct behind a fresh activation literal.
func (c *sessionCore) addConjunct(e *expr.Expr) actRecord {
	a := c.bl.guard(c.bl.blastBool(e))
	rec := actRecord{act: a, vars: c.conjunctVars(e)}
	c.acts[e] = rec
	return rec
}

// conjunctVars lists the input variables of e, as e.Vars would. The walk
// does not descend into a conjunct the core has registered but takes its
// recorded list, which is that conjunct's exact variable set: the
// conjuncts a merge or a branch adds are built over earlier ones (a merged
// disjunction over the suffix conjuncts, a branch condition over merged
// ite selectors), so a full walk would re-traverse the whole history.
func (c *sessionCore) conjunctVars(e *expr.Expr) []*expr.Expr {
	var vars []*expr.Expr
	seen := map[*expr.Expr]bool{}
	var walk func(x *expr.Expr)
	walk = func(x *expr.Expr) {
		if !x.IsSymbolic() || seen[x] {
			return
		}
		seen[x] = true
		if x.Kind == expr.KVar {
			vars = append(vars, x)
			return
		}
		if rec, ok := c.acts[x]; ok {
			for _, v := range rec.vars {
				if !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
			return
		}
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(e)
	return vars
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
	if _, ok := sess.core.acts[c]; !ok {
		sess.core.addConjunct(c)
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
	vs := map[*expr.Expr]bool{}
	for _, c := range live {
		for _, v := range core.acts[c].vars {
			vs[v] = true
		}
	}
	m := make(Model, len(vs))
	for v := range vs {
		m[v] = core.bl.modelValue(v)
	}
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
	if core.ss.NumVars() >= core.rebaseVars {
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
		rec, ok := core.acts[c]
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
		bits := core.bl.vars[v]
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
