package solver

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"

	"symmerge/internal/expr"
	"symmerge/internal/obs"
)

// Model is a satisfying assignment, keyed by variable node.
type Model map[*expr.Expr]uint64

// String renders the model deterministically (sorted by variable name).
func (m Model) String() string {
	type kv struct {
		name string
		val  uint64
	}
	kvs := make([]kv, 0, len(m))
	for v, val := range m {
		kvs = append(kvs, kv{v.Name, val})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].name < kvs[j].name })
	var b strings.Builder
	for i, e := range kvs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", e.name, e.val)
	}
	return b.String()
}

// Stats counts solver-frontend activity. The engine reads these to report
// the paper's query metrics.
type Stats struct {
	Queries        uint64        // top-level satisfiability questions
	ModelReuseHits uint64        // answered by re-evaluating a recent model
	SATCalls       uint64        // session solves: queries that reached bit-blasting + CDCL
	SATTime        time.Duration // time spent inside CDCL (incl. blasting)
	Timeouts       uint64        // SAT calls stopped because the deadline passed

	// CacheHits is always 0: the solver has no counterexample cache any
	// more. It stays because cmd/symbench, a separately versioned module,
	// still reads it into its cache-hit ratio.
	CacheHits uint64

	// Incremental-session activity (see session.go).
	SessionBlastReuse uint64 // conjuncts whose blasting was reused
	SessionRebases    uint64 // cores rebuilt empty: at the size limit or for another builder's nodes

	// CNF encoding effort: variables allocated and problem clauses
	// emitted by bit-blasting, summed over queries. Only the delta a query
	// blasts into its session counts; reused encodings are free.
	SATVars    uint64
	SATClauses uint64

	// CDCL search effort, summed over SAT calls: the core's decisions,
	// propagations and conflicts, the variables of each call's cone and
	// those of the whole core it was taken from (see
	// sat.Solver.SolveCone).
	SATDecisions    uint64
	SATPropagations uint64
	SATConflicts    uint64
	ConeVars        uint64
	CoreVars        uint64
}

// Options configures a Solver.
type Options struct {
	// EnableModelReuse tries recent models before calling SAT.
	EnableModelReuse bool
}

// DefaultOptions turns on model reuse, the one fast path in front of SAT.
func DefaultOptions() Options {
	return Options{EnableModelReuse: true}
}

// ErrBudget is returned when a SAT call stops because the deadline passed
// (see SetDeadline).
var ErrBudget = errors.New("solver: deadline passed")

// Solver decides satisfiability of conjunctions of boolean expressions.
// A query is answered by the recent-model ring or by one solve of an
// incremental session (see session.go); a caller without a session gets a
// fresh one for that call (the solver's spare core, reset).
//
// A Solver is single-goroutine state (the recent-model ring, Stats): each
// engine owns one.
type Solver struct {
	opts Options

	// deadline bounds each underlying SAT call in wall-clock time; zero
	// means none. See SetDeadline.
	deadline time.Time

	// recentModels is a small ring of models for the reuse fast path. Each
	// slot is an evaluator over its model: a stored model is never mutated
	// (the ring keeps only models no caller holds, and hits hand out
	// clones), so the slot's node-value memo stays valid until remember
	// refills the slot and resets the evaluator. A slot keeps its
	// evaluator, and the memo's memory, across refills. Empty slots have a
	// nil Env.
	recentModels [8]expr.Evaluator
	recentNext   int

	// spare is the session core of calls without a session. Each such call
	// resets it first (sessionCore.reset): a new SAT instance and empty
	// tables, so the call is as fresh as a new session, but the tables
	// keep their memory and forget in O(1), so a call costs what it blasts
	// rather than the size of the builder. Nil until first use.
	spare *sessionCore

	// live is the buffer every query filters its conjuncts into
	// (liveConjuncts). No answer keeps it: a ring hit hands out a clone of
	// the ring's model, and a session registers conjuncts, not the slice.
	live []*expr.Expr

	// obs is the owning engine's observability lane (nil when disabled):
	// every non-trivial query emits a begin/end span with its class,
	// verdict, latency, and SAT-encoding delta.
	obs *obs.Observer

	Stats Stats
}

// Observe attaches an observability lane; the engine calls this with its
// own lane so solver spans land on the right trace row.
func (s *Solver) Observe(o *obs.Observer) { s.obs = o }

// SetDeadline bounds every subsequent SAT call by the wall clock: a call
// still running at t returns ErrBudget. The engine propagates its
// exploration deadline here so one pathological query (giant merged-state
// ite stores) cannot stall the run past its time budget.
func (s *Solver) SetDeadline(t time.Time) { s.deadline = t }

// New returns a solver with the given options.
func New(opts Options) *Solver { return &Solver{opts: opts} }

// CheckSat decides whether the conjunction of the constraints is
// satisfiable. On sat it returns a model covering at least the variables of
// the constraints. The constraint slice is not modified.
func (s *Solver) CheckSat(constraints []*expr.Expr) (bool, Model, error) {
	return s.CheckSatIn(nil, constraints)
}

// CheckSatIn is CheckSat through an incremental session: a query the fast
// paths do not answer is one solve of the session's persistent SAT
// instance under assumptions, and the conjuncts the session has not seen
// yet are blasted into it first. A nil session stands for a fresh one used
// for this call only.
func (s *Solver) CheckSatIn(sess *Session, constraints []*expr.Expr) (bool, Model, error) {
	return s.checkSatIn(sess, constraints, nil, true)
}

// checkSatIn implements CheckSatIn over the conjunction of pc and cond (nil
// for none). needModel=false serves verdict-only callers (MayBeTrue's
// branch-feasibility pattern, the hottest path in the engine): they get no
// model, so a model-reuse hit hands out no copy, and a session solve's
// model goes to the ring uncopied.
func (s *Solver) checkSatIn(sess *Session, pc []*expr.Expr, cond *expr.Expr, needModel bool) (bool, Model, error) {
	s.Stats.Queries++
	live, ok := s.liveConjuncts(pc, cond)
	if !ok {
		return false, nil, nil
	}
	if len(live) == 0 {
		return true, Model{}, nil
	}
	sp := s.beginQuery()
	res, m, class, err := s.decide(sess, live, needModel)
	s.endQuery(sp, class, res, err)
	return res, m, err
}

// liveConjuncts is the concrete fast path of every query: it copies pc and
// then cond (nil for none; never a constant) into the solver's live buffer,
// dropping the trivially-true conjuncts, and ok is false when one is
// trivially false. The result is valid until the next query. What constant
// folding answers never reaches the ring or SAT and stays untraced; every
// other answer is one observable query span (beginQuery, endQuery).
func (s *Solver) liveConjuncts(pc []*expr.Expr, cond *expr.Expr) (live []*expr.Expr, ok bool) {
	live = s.live[:0]
	for _, c := range pc {
		if c.IsTrue() {
			continue
		}
		if c.IsFalse() {
			return nil, false
		}
		live = append(live, c)
	}
	if cond != nil {
		live = append(live, cond)
	}
	s.live = live
	return live, true
}

// querySpan is an open query span: its id, start time and the SAT-encoding
// counters at its start. The zero value stands for tracing off.
type querySpan struct {
	qid        uint64
	t0         time.Time
	vars, clss uint64
}

// beginQuery opens a query span on the solver's observability lane.
func (s *Solver) beginQuery() querySpan {
	if !s.obs.Active() {
		return querySpan{}
	}
	return querySpan{s.obs.QueryBegin(), time.Now(), s.Stats.SATVars, s.Stats.SATClauses}
}

// endQuery closes a span with how the query was answered (class), its
// verdict, and the SAT encoding it cost.
func (s *Solver) endQuery(sp querySpan, class obs.QueryClass, res bool, err error) {
	if !s.obs.Active() {
		return
	}
	s.obs.QueryEnd(sp.qid, class, res, err != nil, time.Since(sp.t0),
		s.Stats.SATVars-sp.vars, s.Stats.SATClauses-sp.clss)
}

// decide answers a non-trivial query (live is non-empty, free of constant
// conjuncts) and classifies how it was answered: obs.QueryCached for a
// model-reuse hit, obs.QuerySession for a session solve.
func (s *Solver) decide(sess *Session, live []*expr.Expr, needModel bool) (bool, Model, obs.QueryClass, error) {
	if s.opts.EnableModelReuse {
		if m := s.tryRecentModels(live); m != nil {
			s.Stats.ModelReuseHits++
			if !needModel {
				return true, nil, obs.QueryCached, nil
			}
			return true, cloneModel(m), obs.QueryCached, nil
		}
	}
	if sess == nil {
		sess = s.freshSession()
	}
	res, m, err := sess.check(live)
	if err != nil {
		return false, nil, obs.QuerySession, err
	}
	if res && s.opts.EnableModelReuse {
		if !needModel {
			// The model is fresh and the caller drops it: the ring takes it.
			s.remember(m)
			return true, nil, obs.QuerySession, nil
		}
		// The caller owns m and may merge bindings into it.
		s.remember(cloneModel(m))
	}
	return res, m, obs.QuerySession, nil
}

// cloneModel returns an independent copy of a model. The ring hands models
// to callers that may merge bindings into them; defensive copies keep the
// ring's originals immutable.
func cloneModel(m Model) Model { return maps.Clone(m) }

// tryRecentModels evaluates the constraints under recently found models,
// scanning the ring in slot order and returning the first model that
// satisfies them all. It returns the ring's own map — checkSatIn clones it
// before handing it to a caller that wants the model.
//
// Each slot's evaluator memoizes node values, so the path-condition prefix
// every ring model was already checked against costs one memo probe per
// conjunct. Conjuncts are checked newest-first: the tail (the branch
// condition or a min-model probe) is the one that usually fails.
func (s *Solver) tryRecentModels(constraints []*expr.Expr) Model {
	for i := range s.recentModels {
		ev := &s.recentModels[i]
		if ev.Env == nil {
			continue
		}
		sat := true
		for i := len(constraints) - 1; i >= 0 && sat; i-- {
			sat = ev.Bool(constraints[i])
		}
		if sat {
			return Model(ev.Env)
		}
	}
	return nil
}

// remember stores m in the ring, evicting the oldest model. The ring owns m
// from then on: no caller may hold it. The reset forgets the memo; the
// evicted model's node values must not answer for this one.
func (s *Solver) remember(m Model) {
	s.recentModels[s.recentNext].Reset(expr.Env(m))
	s.recentNext = (s.recentNext + 1) % len(s.recentModels)
}

// --- Derived queries (KLEE's query flavors) ---

// MayBeTrue reports whether cond can be true under the path condition.
func (s *Solver) MayBeTrue(pc []*expr.Expr, cond *expr.Expr) (bool, error) {
	return s.MayBeTrueIn(nil, pc, cond)
}

// MayBeTrueIn is MayBeTrue through an incremental session (nil: a fresh
// one for this call).
func (s *Solver) MayBeTrueIn(sess *Session, pc []*expr.Expr, cond *expr.Expr) (bool, error) {
	if cond.IsTrue() {
		return true, nil
	}
	if cond.IsFalse() {
		return false, nil
	}
	res, _, err := s.checkSatIn(sess, pc, cond, false) // verdict only: skip model copies
	return res, err
}

// MustBeTrue reports whether cond holds on every solution of the path
// condition; notCond must be the negation of cond (the caller owns the
// expression builder).
func (s *Solver) MustBeTrue(pc []*expr.Expr, notCond *expr.Expr) (bool, error) {
	may, err := s.MayBeTrue(pc, notCond)
	return !may, err
}

// GetModel returns a satisfying assignment of the path condition, or nil if
// it is unsatisfiable.
func (s *Solver) GetModel(pc []*expr.Expr) (Model, error) {
	return s.GetModelIn(nil, pc)
}

// GetModelIn is GetModel through an incremental session (nil: a fresh one
// for this call).
func (s *Solver) GetModelIn(sess *Session, pc []*expr.Expr) (Model, error) {
	res, m, err := s.CheckSatIn(sess, pc)
	if err != nil || !res {
		return nil, err
	}
	return m, nil
}
