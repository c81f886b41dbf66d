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
	"symmerge/internal/solver/sat"
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
	CacheHits      uint64        // answered by the counterexample cache
	ModelReuseHits uint64        // answered by re-evaluating a recent model
	SATCalls       uint64        // queries that reached bit-blasting + CDCL
	SATTime        time.Duration // time spent inside CDCL (incl. blasting)
	IndepSliced    uint64        // queries shrunk by independence slicing
	Timeouts       uint64        // SAT calls stopped because the deadline passed

	// Incremental-session activity (see session.go).
	SessionQueries    uint64 // queries answered by a persistent session
	SessionBlastReuse uint64 // conjuncts whose blasting was reused
	SessionBypass     uint64 // session available but query fell back to one-shot
	SessionRebases    uint64 // persistent cores rebuilt at the size limit

	// Stable (persistent) cache activity — see stable.go. StableHits are
	// whole queries answered by the attached StableBackend; StableGroupHits
	// are individual independence groups answered inside solveQuery (the
	// near-repeat-program path: group verdicts hit even when the whole
	// query's fingerprint differs).
	StableHits      uint64
	StableGroupHits uint64

	// Preprocessing-pass pipeline activity (see passes.go). Node counts
	// are summed Expr.Nodes() tree sizes (cheap, cached per node), not
	// distinct-DAG-node counts.
	PreprocQueries  uint64 // one-shot queries that ran the pipeline
	PreprocNodesIn  uint64 // constraint nodes entering the pipeline
	PreprocNodesOut uint64 // constraint nodes after all passes

	// CNF encoding effort: variables allocated and problem clauses
	// emitted by bit-blasting, summed over queries (on the session path,
	// only the newly blasted delta counts — reused encodings are free).
	SATVars    uint64
	SATClauses uint64
}

// Options configures a Solver.
type Options struct {
	// EnableCexCache turns on the counterexample cache (KLEE-style).
	EnableCexCache bool
	// EnableIndependence turns on constraint-independence slicing.
	EnableIndependence bool
	// EnableModelReuse tries recent models before calling SAT.
	EnableModelReuse bool
	// SharedCache, when non-nil, replaces the solver's private
	// counterexample cache with a cache shared across several solvers
	// (parallel exploration workers). The cache keys on builder-unique
	// expression IDs, so every sharing solver must also share one
	// expr.Builder. Ignored unless EnableCexCache is set.
	SharedCache *Cache
}

// DefaultOptions enables every optimization, mirroring the paper's KLEE
// baseline configuration.
func DefaultOptions() Options {
	return Options{
		EnableCexCache:     true,
		EnableIndependence: true,
		EnableModelReuse:   true,
	}
}

// ErrBudget is returned when a SAT call stops because the deadline passed
// (see SetDeadline).
var ErrBudget = errors.New("solver: deadline passed")

// Solver decides satisfiability of conjunctions of boolean expressions.
//
// A Solver is single-goroutine state (scratch buffers, the recent-model
// ring, Stats): parallel exploration gives each worker its own Solver and
// shares only the counterexample cache (Options.SharedCache) and the
// expression builder across workers.
type Solver struct {
	opts   Options
	cache  *Cache
	build  *expr.Builder // for simplification + substitution; nil disables both
	passes []Pass        // preprocessing pipeline for one-shot queries (see New)

	// deadline bounds each underlying SAT call in wall-clock time; zero
	// means none. See SetDeadline.
	deadline time.Time

	// recentModels is a small ring of models for the reuse fast path. Each
	// slot is an evaluator over its model: a stored model is never mutated
	// (remember keeps a clone, hits hand out clones), so the slot's
	// node-value memo stays valid until remember refills the slot with a
	// fresh evaluator. Empty slots are nil.
	recentModels [8]*expr.Evaluator
	recentNext   int

	// keyIDs is the scratch buffer for query fingerprints (sorted,
	// de-duplicated expression IDs), reused across queries to keep the
	// cache-key computation allocation-free.
	keyIDs []uint64

	// keyFPs is the scratch buffer for stable-layer fingerprints
	// (stable.go), reused the same way.
	keyFPs []expr.FP

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
func New(opts Options) *Solver {
	cache := opts.SharedCache
	if cache == nil {
		cache = newCexCache()
	}
	// The preprocessing pipeline in its canonical order: simplify (cheap,
	// may erase work for the later passes), equality substitution (may
	// split variable dependencies), then independence slicing (best run
	// last, on the smallest constraint set).
	s := &Solver{opts: opts, cache: cache,
		passes: []Pass{simplifyPass, substitutePass}}
	if opts.EnableIndependence {
		s.passes = append(s.passes, slicePass)
	}
	return s
}

// AttachBuilder enables equality-substitution simplification; the builder
// must be the one that constructed the query expressions.
func (s *Solver) AttachBuilder(b *expr.Builder) { s.build = b }

// CheckSat decides whether the conjunction of the constraints is
// satisfiable. On sat it returns a model covering at least the variables of
// the constraints. The constraint slice is not modified.
func (s *Solver) CheckSat(constraints []*expr.Expr) (bool, Model, error) {
	return s.CheckSatIn(nil, constraints)
}

// CheckSatIn is CheckSat with an optional incremental session. When the
// query extends a conjunct prefix the session has already blasted (at most
// one new conjunct), it is answered by the session's persistent SAT
// instance under assumptions; otherwise it falls back to the one-shot
// path, where the preprocessing pipeline (simplification, equality
// substitution, independence slicing — see passes.go) applies, and the
// bypass is recorded in Stats.SessionBypass. A nil session always takes
// the one-shot path.
func (s *Solver) CheckSatIn(sess *Session, constraints []*expr.Expr) (bool, Model, error) {
	return s.checkSatIn(sess, constraints, true)
}

// checkSatIn implements CheckSatIn; needModel=false lets verdict-only
// callers (MayBeTrue's branch-feasibility pattern, the hottest path in the
// engine) skip the defensive model copy on cache and model-reuse hits.
func (s *Solver) checkSatIn(sess *Session, constraints []*expr.Expr, needModel bool) (bool, Model, error) {
	s.Stats.Queries++
	live, ok := liveConjuncts(constraints)
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

// liveConjuncts is the concrete fast path of every query: it drops the
// trivially-true conjuncts, and ok is false when one is trivially false.
// What constant folding answers never reaches a cache or SAT and stays
// untraced; every other answer is one observable query span (beginQuery,
// endQuery).
func liveConjuncts(constraints []*expr.Expr) (live []*expr.Expr, ok bool) {
	live = make([]*expr.Expr, 0, len(constraints))
	for _, c := range constraints {
		if c.IsTrue() {
			continue
		}
		if c.IsFalse() {
			return nil, false
		}
		live = append(live, c)
	}
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
// conjuncts) and classifies how it was answered: obs.QueryCached for
// model-reuse and counterexample-cache hits, obs.QuerySession for the
// incremental assume-many path, obs.QueryOneShot for a from-scratch blast.
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

	hash, ids := s.fingerprint(live)
	if s.opts.EnableCexCache {
		if res, m, ok := s.cache.lookup(hash, ids, needModel); ok {
			s.Stats.CacheHits++
			return res, m, obs.QueryCached, nil
		}
		if s.stableEnabled() {
			// Persistent layer: verdicts from earlier runs (or earlier
			// builder generations) keyed by content fingerprints. A hit is
			// promoted into the ID cache so repeats stay on the fast path.
			if res, m, ok := s.stableLookup(live); ok {
				s.Stats.StableHits++
				s.cache.insert(hash, ids, res, m)
				if res && s.opts.EnableModelReuse {
					s.remember(m)
				}
				if !needModel {
					return res, nil, obs.QueryCached, nil
				}
				return res, m, obs.QueryCached, nil
			}
		}
	}

	var (
		res   bool
		m     Model
		err   error
		class obs.QueryClass
	)
	if sess != nil && sess.misses(live) <= 1 {
		// Incremental path: blast-once/assume-many over the shared
		// prefix. Slicing and substitution would rewrite the conjuncts
		// and defeat reuse, so they are deliberately skipped here.
		s.Stats.SessionQueries++
		class = obs.QuerySession
		res, m, err = sess.check(live)
	} else {
		if sess != nil {
			s.Stats.SessionBypass++
			// Catch-up sync: register the conjuncts so the next query
			// over this prefix extends a known set again. Without
			// this, a lineage whose core was rebased (or whose early
			// queries were absorbed by the fast paths) would miss the
			// session permanently — misses() never shrinks on its own.
			for _, c := range live {
				sess.NoteConjunct(c)
			}
		}
		// Preprocessing pipeline (passes.go): simplification, equality
		// substitution, and independence slicing run in pipeline
		// order. Any bindings a substitution pass extracted rejoin the
		// model afterwards so callers still see values for the
		// substituted variables.
		class = obs.QueryOneShot
		q := s.runPasses(live)
		res, m, err = s.solveQuery(q)
		if err == nil && res && len(q.Binding) > 0 {
			if m == nil {
				m = Model{}
			}
			for v, val := range q.Binding {
				m[v] = val
			}
		}
	}
	if err != nil {
		return false, nil, class, err
	}
	if s.opts.EnableCexCache {
		s.cache.insert(hash, ids, res, m)
		if s.stableEnabled() {
			// Persist only completed verdicts (err == nil above): budget
			// and timeout unknowns must never enter the store.
			s.stableInsert(live, res, m)
		}
	}
	if res && s.opts.EnableModelReuse {
		s.remember(m)
	}
	return res, m, class, nil
}

// substituteEqualities rewrites the constraint set using the equalities it
// contains (KLEE's ConstraintManager simplification): a conjunct of the form
// `x = const` lets every other conjunct evaluate x concretely, which often
// collapses whole subtrees before bit-blasting. One pass only — enough for
// the dominant pattern (branch conditions pinning argv bytes).
func substituteEqualities(b *expr.Builder, constraints []*expr.Expr) ([]*expr.Expr, expr.Env) {
	binding := expr.Env{}
	for _, c := range constraints {
		switch {
		case c.Kind == expr.KEq:
			l, r := c.Kids[0], c.Kids[1]
			if l.Kind == expr.KVar && r.IsConst() {
				binding[l] = r.Val
			} else if r.Kind == expr.KVar && l.IsConst() {
				binding[r] = l.Val
			}
		case c.Kind == expr.KVar:
			// A bare boolean variable conjunct pins it to true
			// (the builder folds Eq(b, true) to b).
			binding[c] = 1
		case c.Kind == expr.KNot && c.Kids[0].Kind == expr.KVar:
			binding[c.Kids[0]] = 0
		}
	}
	if len(binding) == 0 {
		return constraints, nil
	}
	out := make([]*expr.Expr, len(constraints))
	memo := make(map[*expr.Expr]*expr.Expr)
	for i, c := range constraints {
		out[i] = substitute(b, c, binding, memo)
	}
	return out, binding
}

// substitute rebuilds e with bound variables replaced by constants. The memo
// is essential: hash-consed expressions are DAGs with heavy sharing (merged
// states especially), and an unmemoized walk is exponential in DAG depth.
func substitute(b *expr.Builder, e *expr.Expr, binding expr.Env, memo map[*expr.Expr]*expr.Expr) *expr.Expr {
	if !e.IsSymbolic() {
		return e
	}
	if r, ok := memo[e]; ok {
		return r
	}
	if e.Kind == expr.KVar {
		r := e
		if v, ok := binding[e]; ok {
			if e.Width == 0 {
				r = b.Bool(v != 0)
			} else {
				r = b.Const(v, e.Width)
			}
		}
		memo[e] = r
		return r
	}
	kids := make([]*expr.Expr, len(e.Kids))
	changed := false
	for i, k := range e.Kids {
		kids[i] = substitute(b, k, binding, memo)
		changed = changed || kids[i] != k
	}
	r := e
	if changed {
		// Rebuild through the Builder so folding and every rewrite-table
		// rule apply to the substituted node.
		r = b.Rebuild(e, kids)
	}
	memo[e] = r
	return r
}

// solveQuery blasts and solves a preprocessed query: each independent
// group separately when the slice pass partitioned it, the whole set at
// once otherwise. The conjunction is sat iff every group is.
//
// With a stable backend attached, each group is first looked up (and, once
// solved, persisted) at group granularity. Group verdicts are the
// near-repeat lever: two programs that differ in one routine still share
// most independence groups, so their fingerprints hit even though every
// whole-query fingerprint differs. This is also where "blasted clause
// groups" persist in spirit — CNF itself is rebuilt per SAT instance by
// design (Tseitin synthesis is cheap; the solving is not), so what the
// store carries across runs is each group's settled verdict.
func (s *Solver) solveQuery(q *Query) (bool, Model, error) {
	if q.Groups == nil {
		return s.checkSAT(q.Constraints)
	}
	model := Model{}
	stable := s.stableEnabled()
	for _, g := range q.Groups {
		if stable {
			if res, m, ok := s.stableLookup(g); ok {
				s.Stats.StableGroupHits++
				if !res {
					return false, nil, nil
				}
				for k, v := range m {
					model[k] = v
				}
				continue
			}
		}
		res, m, err := s.checkSAT(g)
		if err != nil {
			return false, nil, err
		}
		if stable {
			s.stableInsert(g, res, m)
		}
		if !res {
			return false, nil, nil
		}
		for k, v := range m {
			model[k] = v
		}
	}
	return true, model, nil
}

// checkSAT bit-blasts and runs CDCL.
func (s *Solver) checkSAT(constraints []*expr.Expr) (bool, Model, error) {
	s.Stats.SATCalls++
	start := time.Now()
	defer func() { s.Stats.SATTime += time.Since(start) }()

	ss := sat.New()
	ss.Deadline = s.deadline
	bl := newBlaster(ss)
	for _, c := range constraints {
		bl.assertTrue(c)
	}
	s.Stats.SATVars += uint64(ss.NumVars())
	s.Stats.SATClauses += ss.NumClauses()
	switch ss.Solve() {
	case sat.Sat:
		m := Model{}
		for v := range bl.vars {
			m[v] = bl.modelValue(v)
		}
		return true, m, nil
	case sat.Unsat:
		return false, nil, nil
	default:
		s.Stats.Timeouts++
		return false, nil, ErrBudget
	}
}

// cloneModel returns an independent copy of a model. Fast paths hand models
// to callers that may merge bindings into them; defensive copies keep the
// cached originals immutable.
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
	for _, ev := range s.recentModels {
		if ev == nil {
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

func (s *Solver) remember(m Model) {
	// Retain a copy: the caller owns the returned model and may mutate it.
	// The new evaluator starts with an empty memo; the evicted model's
	// node values must not answer for this one.
	s.recentModels[s.recentNext] = &expr.Evaluator{Env: expr.Env(cloneModel(m))}
	s.recentNext = (s.recentNext + 1) % len(s.recentModels)
}

// --- Derived queries (KLEE's query flavors) ---

// MayBeTrue reports whether cond can be true under the path condition.
func (s *Solver) MayBeTrue(pc []*expr.Expr, cond *expr.Expr) (bool, error) {
	return s.MayBeTrueIn(nil, pc, cond)
}

// MayBeTrueIn is MayBeTrue through an optional incremental session.
func (s *Solver) MayBeTrueIn(sess *Session, pc []*expr.Expr, cond *expr.Expr) (bool, error) {
	if cond.IsTrue() {
		return true, nil
	}
	if cond.IsFalse() {
		return false, nil
	}
	q := append(append(make([]*expr.Expr, 0, len(pc)+1), pc...), cond)
	res, _, err := s.checkSatIn(sess, q, false) // verdict only: skip model copies
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

// GetModelIn is GetModel through an optional incremental session.
func (s *Solver) GetModelIn(sess *Session, pc []*expr.Expr) (Model, error) {
	res, m, err := s.CheckSatIn(sess, pc)
	if err != nil || !res {
		return nil, err
	}
	return m, nil
}

// --- Independence slicing ---

// independentGroups partitions constraints into connected components of the
// "shares a variable" graph using a union-find over variables.
func independentGroups(constraints []*expr.Expr) [][]*expr.Expr {
	parent := make([]int, len(constraints))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	varOwner := map[*expr.Expr]int{} // variable -> first constraint index
	varsOf := map[*expr.Expr]bool{}
	for i, c := range constraints {
		for k := range varsOf {
			delete(varsOf, k)
		}
		c.Vars(varsOf)
		for v := range varsOf {
			if j, ok := varOwner[v]; ok {
				union(i, j)
			} else {
				varOwner[v] = i
			}
		}
	}
	groupsByRoot := map[int][]*expr.Expr{}
	var roots []int
	for i, c := range constraints {
		r := find(i)
		if _, ok := groupsByRoot[r]; !ok {
			roots = append(roots, r)
		}
		groupsByRoot[r] = append(groupsByRoot[r], c)
	}
	sort.Ints(roots)
	out := make([][]*expr.Expr, 0, len(roots))
	for _, r := range roots {
		out = append(out, groupsByRoot[r])
	}
	return out
}

// fingerprint canonicalizes the constraint set into the sorted,
// de-duplicated list of expression IDs plus its FNV-1a hash. IDs are
// builder-unique, so within one engine run the id list identifies the
// constraint set exactly; the cache stores the list alongside the hash and
// verifies it on lookup, so hash collisions cannot alias distinct queries.
// The returned slice is the solver's reusable scratch buffer — valid until
// the next fingerprint call; the cache copies it when it retains an entry.
func (s *Solver) fingerprint(constraints []*expr.Expr) (uint64, []uint64) {
	ids := s.keyIDs[:0]
	for _, c := range constraints {
		ids = append(ids, c.ID())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// De-duplicate in place (the slice is sorted).
	out := ids[:0]
	var last uint64 = ^uint64(0)
	for _, id := range ids {
		if id == last {
			continue
		}
		last = id
		out = append(out, id)
	}
	s.keyIDs = out
	return fnvIDs(out), out
}

// fnvIDs hashes a sorted id list with FNV-1a over the ids' bytes.
func fnvIDs(ids []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range ids {
		for i := 0; i < 8; i++ {
			h ^= (id >> (8 * uint(i))) & 0xff
			h *= prime64
		}
	}
	return h
}
