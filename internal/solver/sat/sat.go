// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// in the MiniSat lineage: two-watched-literal propagation, first-UIP conflict
// analysis with recursive clause minimization, exponential VSIDS branching,
// phase saving, Luby-sequence restarts, and activity-based learned-clause
// deletion.
//
// It is the decision procedure underneath the bit-blasting SMT layer in
// package solver, standing in for the STP solver used by the paper's KLEE
// prototype.
package sat

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// Lit is a literal: variable index shifted left once, with the low bit set
// for negated occurrences. Variables are numbered from 0.
type Lit int32

// MkLit returns the literal for variable v, negated if neg.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable index of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is a negated occurrence.
func (l Lit) Neg() bool { return l&1 != 0 }

// Flip returns the complementary literal.
func (l Lit) Flip() Lit { return l ^ 1 }

// String renders the literal in DIMACS style (1-based, '-' for negation).
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

type watcher struct {
	c       *clause
	blocker Lit // if blocker is true the clause is satisfied; skip it
}

type varData struct {
	assign   lbool
	level    int32
	reason   *clause
	activity float64
	phase    bool // saved phase: last assigned polarity
	seen     bool // scratch for conflict analysis
}

// Stats counts solver activity across Solve calls.
type Stats struct {
	Solves       uint64 // Solve invocations (incremental callers reuse one instance)
	Decisions    uint64
	Propagations uint64
	Conflicts    uint64
	Restarts     uint64
	Learnt       uint64
	MaxLearnt    int
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	vars    []varData
	clauses []*clause
	learnts []*clause
	watches [][]watcher // indexed by literal

	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	order  heap // VSIDS order
	varInc float64
	claInc float64

	unsatAtRoot bool
	numAdded    uint64 // problem clauses accepted by AddClause

	// conflict analysis scratch
	analyzeStack []Lit
	learntLits   []Lit
	clearSeen    []Lit

	model []bool // snapshot of the last satisfying assignment

	// prefer is the preferred-literal list of the running SolvePrefer call
	// (nil otherwise). Every entry before the cursor preferHead is
	// assigned; backtrackTo resets the cursor.
	prefer     []Lit
	preferHead int

	// Budget limits a Solve call to at most Budget conflicts (0 = no
	// limit); when exceeded, Solve returns Unknown. The SMT layer uses it
	// to implement soft solver timeouts.
	Budget uint64

	// Deadline, when non-zero, makes Solve return Unknown once the wall
	// clock passes it (checked between restarts, so a call may overshoot
	// by one restart's worth of work). The engine sets it from its own
	// exploration time budget so that a single pathological query — e.g.
	// the giant ite stores that aggressive state merging produces —
	// cannot stall the whole run.
	Deadline time.Time

	Stats Stats
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1}
	s.order.s = s
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.vars) }

// NumClauses returns the number of problem clauses accepted by AddClause
// (root-satisfied and tautological submissions excluded; learnt clauses are
// tracked separately in Stats). The SMT layer reads this to report encoding
// sizes per query.
func (s *Solver) NumClauses() uint64 { return s.numAdded }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.vars)
	s.vars = append(s.vars, varData{assign: lUndef, level: -1})
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) value(l Lit) lbool {
	a := s.vars[l.Var()].assign
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// AddClause adds a clause over existing variables. Adding the empty clause,
// or a clause falsified at the root level, makes the instance trivially
// unsat. AddClause must be called before Solve (between Solve calls is fine:
// the solver backtracks to the root level after each Solve).
func (s *Solver) AddClause(lits ...Lit) {
	if s.unsatAtRoot {
		return
	}
	// Simplify: drop duplicate and false literals; detect tautologies.
	out := lits[:0:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			if s.vars[l.Var()].level == 0 {
				return // satisfied at root
			}
		case lFalse:
			if s.vars[l.Var()].level == 0 {
				continue // falsified at root: drop literal
			}
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Flip() {
				return // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsatAtRoot = true
		return
	case 1:
		s.numAdded++
		if !s.enqueue(out[0], nil) {
			s.unsatAtRoot = true
			return
		}
		if s.propagate() != nil {
			s.unsatAtRoot = true
		}
		return
	}
	s.numAdded++
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.attach(c)
}

func (s *Solver) attach(c *clause) {
	// Watch the first two literals.
	l0, l1 := c.lits[0], c.lits[1]
	s.watches[l0.Flip()] = append(s.watches[l0.Flip()], watcher{c, l1})
	s.watches[l1.Flip()] = append(s.watches[l1.Flip()], watcher{c, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l Lit, reason *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	vd := &s.vars[l.Var()]
	if l.Neg() {
		vd.assign = lFalse
	} else {
		vd.assign = lTrue
	}
	vd.phase = !l.Neg()
	vd.level = int32(s.decisionLevel())
	vd.reason = reason
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := w.c
			// Normalize so that lits[1] is the false literal p.Flip().
			falseLit := p.Flip()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := c.lits[1].Flip()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{c, first}
			n++
			if s.value(first) == lFalse {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		s.watches[p] = ws[:n]
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.vars[v].activity += s.varInc
	if s.vars[v].activity > 1e100 {
		for i := range s.vars {
			s.vars[i].activity *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, l := range s.learnts {
			l.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay = 1.0 / 0.95
	claDecay = 1.0 / 0.999
)

// analyze performs first-UIP conflict analysis, filling s.learntLits with the
// learned clause (asserting literal first) and returning the backtrack level.
func (s *Solver) analyze(confl *clause) int {
	s.learntLits = s.learntLits[:0]
	s.learntLits = append(s.learntLits, 0) // room for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if confl == nil {
			panic(fmt.Sprintf("analyze: nil reason for %v (level %d, dl %d, counter %d, trail %v)",
				p, s.vars[p.Var()].level, s.decisionLevel(), counter, s.trail))
		}
		s.bumpClause(confl)
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range confl.lits[start:] {
			v := q.Var()
			if !s.vars[v].seen && s.vars[v].level > 0 {
				s.vars[v].seen = true
				s.bumpVar(v)
				if int(s.vars[v].level) >= s.decisionLevel() {
					counter++
				} else {
					s.learntLits = append(s.learntLits, q)
				}
			}
		}
		// Select next literal on the trail to expand.
		for !s.vars[s.trail[idx].Var()].seen {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.vars[p.Var()].seen = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.vars[p.Var()].reason
	}
	s.learntLits[0] = p.Flip()

	// Recursive minimization: drop literals implied by the rest.
	s.analyzeStack = s.analyzeStack[:0]
	out := s.learntLits[:1]
	for _, l := range s.learntLits[1:] {
		if s.vars[l.Var()].reason == nil || !s.litRedundant(l) {
			out = append(out, l)
		} else {
			// Dropped as redundant: its seen mark must still be
			// cleared below, so remember it.
			s.clearSeen = append(s.clearSeen, l)
		}
	}
	s.learntLits = out

	// Find backtrack level: max level among lits[1:].
	btLevel := 0
	if len(s.learntLits) > 1 {
		maxI := 1
		for i := 2; i < len(s.learntLits); i++ {
			if s.vars[s.learntLits[i].Var()].level > s.vars[s.learntLits[maxI].Var()].level {
				maxI = i
			}
		}
		s.learntLits[1], s.learntLits[maxI] = s.learntLits[maxI], s.learntLits[1]
		btLevel = int(s.vars[s.learntLits[1].Var()].level)
	}
	// Clear seen flags for the literals we kept (expanded ones were
	// cleared during the loop; kept ones and redundant-check marks next).
	for _, l := range s.learntLits {
		s.vars[l.Var()].seen = false
	}
	for _, l := range s.clearSeen {
		s.vars[l.Var()].seen = false
	}
	s.clearSeen = s.clearSeen[:0]
	return btLevel
}

// litRedundant reports whether l is implied by the remaining learnt literals,
// walking the implication graph (simple recursive minimization).
func (s *Solver) litRedundant(l Lit) bool {
	s.analyzeStack = append(s.analyzeStack[:0], l)
	top := len(s.clearSeen)
	for len(s.analyzeStack) > 0 {
		p := s.analyzeStack[len(s.analyzeStack)-1]
		s.analyzeStack = s.analyzeStack[:len(s.analyzeStack)-1]
		reason := s.vars[p.Var()].reason
		for i, q := range reason.lits {
			if i == 0 && q == p.Flip() {
				continue
			}
			v := q.Var()
			if s.vars[v].seen || s.vars[v].level == 0 {
				continue
			}
			if s.vars[v].reason == nil {
				// Reached a decision not in the clause: not redundant.
				for _, m := range s.clearSeen[top:] {
					s.vars[m.Var()].seen = false
				}
				s.clearSeen = s.clearSeen[:top]
				return false
			}
			s.vars[v].seen = true
			s.clearSeen = append(s.clearSeen, q)
			s.analyzeStack = append(s.analyzeStack, q)
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.vars[v].assign = lUndef
		s.vars[v].reason = nil
		s.vars[v].level = -1
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
	s.preferHead = 0
}

func (s *Solver) pickBranchLit() Lit {
	for ; s.preferHead < len(s.prefer); s.preferHead++ {
		if l := s.prefer[s.preferHead]; s.value(l) == lUndef {
			return l
		}
	}
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.vars[v].assign == lUndef {
			return MkLit(v, !s.vars[v].phase)
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i uint64) uint64 {
	for k := uint(1); k < 64; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
	}
	k := uint(1)
	for ; i >= (1<<k)-1; k++ {
	}
	k--
	return luby(i - (1 << k) + 1)
}

func (s *Solver) reduceDB() {
	// Keep the better half by activity; never remove reason clauses.
	if len(s.learnts) < 2 {
		return
	}
	ls := s.learnts
	slices.SortStableFunc(ls, func(a, b *clause) int { return cmp.Compare(a.activity, b.activity) })
	keepFrom := len(ls) / 2
	kept := ls[:0]
	for i, c := range ls {
		if i >= keepFrom || s.isReason(c) || len(c.lits) == 2 {
			kept = append(kept, c)
		} else {
			s.detach(c)
		}
	}
	s.learnts = kept
}

func (s *Solver) isReason(c *clause) bool {
	if len(c.lits) == 0 {
		return false
	}
	v := c.lits[0].Var()
	return s.vars[v].assign != lUndef && s.vars[v].reason == c
}

func (s *Solver) detach(c *clause) {
	for _, wl := range []Lit{c.lits[0].Flip(), c.lits[1].Flip()} {
		ws := s.watches[wl]
		for i, w := range ws {
			if w.c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// Solve determines satisfiability under the given assumptions. On Sat, the
// model is readable through Value. On Unsat with assumptions, the instance
// is unsatisfiable under those assumptions (the solver does not produce an
// unsat core). Solve may be called repeatedly with different assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.Stats.Solves++
	if s.unsatAtRoot {
		return Unsat
	}
	defer s.backtrackTo(0)

	maxLearnts := len(s.clauses)/3 + 100
	restartNum := uint64(0)
	conflictsAtStart := s.Stats.Conflicts

	for {
		restartNum++
		budget := luby(restartNum) * 100
		st := s.search(assumptions, budget, &maxLearnts)
		if st == Sat {
			// Snapshot the model before the deferred backtrack
			// erases the assignment. Unassigned variables default
			// to false.
			if cap(s.model) < len(s.vars) {
				s.model = make([]bool, len(s.vars))
			}
			s.model = s.model[:len(s.vars)]
			for v := range s.vars {
				s.model[v] = s.vars[v].assign == lTrue
			}
			return Sat
		}
		if st == Unsat {
			return Unsat
		}
		if s.Budget > 0 && s.Stats.Conflicts-conflictsAtStart > s.Budget {
			return Unknown
		}
		if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
			return Unknown
		}
		s.Stats.Restarts++
		s.backtrackTo(0)
	}
}

// SolvePrefer is Solve with a preferred-literal list: until every literal of
// prefer is assigned, each decision takes the first unassigned one, at its
// given polarity, ahead of VSIDS. The list is used for this call only.
//
// With prefer = ¬x₁, ¬x₂, …, ¬xₙ a Sat answer is the lexicographically
// smallest assignment to x₁…xₙ among all models under the assumptions,
// learning, backjumping and restarts notwithstanding (Giunchiglia &
// Maratea, "Solving optimization problems with DLL", ECAI 2006). Suppose
// the model sets some xᵢ to 1 where the minimal one m* has 0, with i the
// first such index. No decision set xᵢ, since decisions take the preferred
// polarity, so propagation forced it; every decision made before that was
// an assumption or some xⱼ = 0 with j < i, because the cursor always picks
// the first unassigned entry and no other variable is decided while xᵢ is
// open. m* agrees with all of those, and learnt clauses are entailed by the
// clause database, so m* would have xᵢ = 1 too: a contradiction.
func (s *Solver) SolvePrefer(prefer []Lit, assumptions ...Lit) Status {
	s.prefer, s.preferHead = prefer, 0
	defer func() { s.prefer = nil }()
	return s.Solve(assumptions...)
}

// search runs CDCL until a result, a restart budget exhaustion (Unknown), or
// conflict overload triggers DB reduction.
func (s *Solver) search(assumptions []Lit, budget uint64, maxLearnts *int) Status {
	conflicts := uint64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsatAtRoot = true
				return Unsat
			}
			btLevel := s.analyze(confl)
			// Don't backtrack past the assumption levels: if the
			// asserting literal must hold below an assumption
			// decision, assumptions are in conflict.
			s.backtrackTo(btLevel)
			lits := make([]Lit, len(s.learntLits))
			copy(lits, s.learntLits)
			if len(lits) == 1 {
				if !s.enqueue(lits[0], nil) {
					return Unsat
				}
			} else {
				c := &clause{lits: lits, learnt: true}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.enqueue(lits[0], c)
				s.Stats.Learnt++
				if len(s.learnts) > s.Stats.MaxLearnt {
					s.Stats.MaxLearnt = len(s.learnts)
				}
			}
			s.varInc *= varDecay
			s.claInc *= claDecay
			if len(s.learnts) > *maxLearnts {
				*maxLearnts += *maxLearnts / 10
				s.reduceDB()
			}
			continue
		}
		if conflicts >= budget {
			return Unknown // restart
		}
		// Apply assumptions as pseudo-decisions.
		next := Lit(-1)
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open a dummy level so indices advance.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat // conflicting assumptions
			}
			next = a
		}
		if next == -1 {
			next = s.pickBranchLit()
			if next == -1 {
				return Sat // all variables assigned
			}
			s.Stats.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, nil)
	}
}

// Value returns the model value of variable v after a Sat result. Variables
// left unassigned by the solver (pure don't-cares) read as false.
func (s *Solver) Value(v int) bool {
	if v >= len(s.model) {
		return false
	}
	return s.model[v]
}

// ValueLit returns the model value of a literal after a Sat result.
func (s *Solver) ValueLit(l Lit) bool {
	v := s.Value(l.Var())
	if l.Neg() {
		return !v
	}
	return v
}

// validActivity is used by the solver's internal consistency tests.
func validActivity(a float64) bool { return !math.IsNaN(a) && !math.IsInf(a, 0) }
