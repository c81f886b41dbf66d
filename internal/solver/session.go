package solver

// Incremental solver sessions: blast-once/assume-many solving over the path
// condition.
//
// The engine's feasibility queries share an ever-growing path-condition
// prefix: a state that explores k branches issues queries pc, pc∧c1,
// pc∧c1∧c2, ... whose conjunct sets overlap almost entirely. The one-shot
// path (checkSAT) re-Tseitin-blasts the whole set for every query, paying
// O(n·k) encoding work per path. A Session instead owns one persistent
// sat.Solver + blaster and blasts each conjunct exactly once, guarded by an
// activation literal a_c with the clause (¬a_c ∨ blast(c)). A query over a
// conjunct set Q is then a single Solve(a_c for c in Q) call: conjuncts
// outside Q stay dormant (their activation literals are free and default to
// false), learned clauses persist across queries — they are derived from the
// clause database alone, never from the assumptions, so an unsat result
// under one assumption set cannot poison later queries — and the CDCL
// instance amortizes across the whole state lineage.
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
// demand. This keeps a long exploration from dragging an unbounded variable
// order and watch structure through every query (the CDCL search must assign
// every allocated variable before reporting sat).
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
	l := c.bl.blastBool(e)
	a := c.bl.fresh()
	c.ss.AddClause(a.Flip(), l)
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

// Session answers satisfiability queries over conjunct sets that extend an
// already-blasted prefix. Obtain one with Solver.NewSession, thread it
// through Solver.CheckSatIn / MayBeTrueIn, and Fork it wherever the owning
// execution state forks.
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

// Conjuncts reports how many distinct conjuncts the session has blasted.
func (sess *Session) Conjuncts() int { return len(sess.core.acts) }

// NumVars reports the persistent SAT instance's variable count.
func (sess *Session) NumVars() int { return sess.core.ss.NumVars() }

// SetRebaseLimit overrides the variable-count threshold that triggers a core
// rebuild (testing knob; the default suits production use).
func (sess *Session) SetRebaseLimit(n int) { sess.core.rebaseVars = n }

// NoteConjunct blasts a path-condition conjunct into the session core if it
// is not already there. The engine calls this whenever a conjunct joins a
// state's path condition, keeping the session in sync even when the query
// that admitted the conjunct was answered by a cache or model-reuse fast
// path (which never reaches the session). Each distinct conjunct is blasted
// exactly once per core regardless of how many queries or lineages use it.
func (sess *Session) NoteConjunct(c *expr.Expr) {
	if sess == nil || c == nil || c.IsConst() {
		return
	}
	if _, ok := sess.core.acts[c]; !ok {
		sess.core.addConjunct(c)
	}
}

// misses counts the conjuncts of live not yet blasted into the core. The
// routing policy in Solver.CheckSatIn sends a query to the session only when
// it extends a known prefix — at most one new conjunct — and falls back to
// the one-shot path (with independence slicing and equality substitution)
// otherwise.
func (sess *Session) misses(live []*expr.Expr) int {
	n := 0
	for _, c := range live {
		if _, ok := sess.core.acts[c]; !ok {
			n++
		}
	}
	return n
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
// the model is then readable through the core's blaster. When prefer is
// non-empty, the search decides the bits of those variables first, in
// order, most significant first, at value 0 (see MinModelIn).
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
	assumps := make([]sat.Lit, len(live))
	for i, c := range live {
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
			// expression, and registering keeps prefix walks routing
			// incrementally without special-casing the query tail.
			rec = core.addConjunct(c)
		}
		assumps[i] = rec.act
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
	var lits []sat.Lit
	for _, v := range prefer {
		// A variable the core never blasted has no literals: nothing
		// constrains it, and modelValue reads it as 0.
		bits := core.bl.vars[v]
		for k := len(bits) - 1; k >= 0; k-- {
			lits = append(lits, bits[k].Flip())
		}
	}
	switch core.ss.SolvePrefer(lits, assumps...) {
	case sat.Sat:
		return true, nil
	case sat.Unsat:
		return false, nil
	default:
		s.Stats.Timeouts++
		return false, ErrBudget
	}
}
