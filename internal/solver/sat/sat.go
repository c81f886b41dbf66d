// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// in the MiniSat lineage: two-watched-literal propagation, first-UIP conflict
// analysis with recursive clause minimization, exponential VSIDS branching,
// phase saving, Luby-sequence restarts, and activity-based learned-clause
// deletion.
//
// It is the decision procedure underneath the bit-blasting SMT layer in
// package solver, standing in for the STP solver used by the paper's KLEE
// prototype.
//
// # Layout
//
// The search structures hold no pointers, after MiniSat (Eén & Sörensson,
// "An Extensible SAT-solver", SAT 2003):
//
//   - Assignments are indexed by literal, so reading a literal's value is
//     one byte load; assigning or unassigning a variable writes both of its
//     literals.
//   - Decision levels, reasons, activities, saved phases and the analysis
//     marks are arrays indexed by variable.
//   - Every clause lives inline in one arena of 32-bit words: a header
//     word (size and learnt bit), the float64 activity in two words, then
//     the literals. A clause is named by its arena offset, and the clause
//     lists, the reasons and the watchers hold offsets, so the garbage
//     collector does not scan them.
//   - Deleting a learnt clause leaves its words in the arena as waste. When
//     the waste passes half the arena, the live clauses are copied into a
//     fresh arena, problem clauses first, then learnts, and every watcher
//     and reason is relocated. This runs only at the root level: at the
//     start of Solve and at each restart.
//
// # Search order
//
// The sequence of decisions, propagations, learnt clauses, deletions and
// restarts is part of the contract, and the layout above does not change
// it. Corpora do not depend on it: they hold verdicts and lexicographically
// minimal models, which any complete search returns. The models of plain
// Solve calls do depend on it, and so do the lines `symx -tests` prints and
// every solver counter. TestSearchTrace pins the order; a change that alters
// the search updates that test's table on purpose.
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

// cref names a clause by the arena offset of its header word.
type cref uint32

// crefUndef is the reason of every variable that no clause implied:
// decisions, assumptions and unit clauses.
const crefUndef cref = math.MaxUint32

// clauseHdr is the number of arena words before a clause's literals: the
// header (size<<1 | learnt bit), then the float64 activity split over two
// words, low half first.
const clauseHdr = 3

type watcher struct {
	c       cref
	blocker Lit // if blocker is true the clause is satisfied; skip it
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
	vals []lbool // indexed by literal; both literals of a variable are set

	// Indexed by variable. level and reason are meaningful only while the
	// variable is assigned.
	level    []int32
	reason   []cref
	activity []float64
	phase    []bool // saved phase: last assigned polarity
	seen     []bool // scratch for conflict analysis

	arena   []Lit // every clause, laid out as described at clauseHdr
	waste   int   // arena words of deleted clauses
	clauses []cref
	learnts []cref
	watches [][]watcher // indexed by literal

	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	order  heap // VSIDS order
	varInc float64
	claInc float64

	unsatAtRoot bool
	numAdded    uint64 // problem clauses accepted by AddClause
	compactions int    // arena compactions so far

	// conflict analysis scratch
	analyzeStack []Lit
	learntLits   []Lit
	clearSeen    []Lit

	addLits []Lit // AddClause's simplified copy of its argument

	model []bool // snapshot of the last satisfying assignment

	// prefer is the preferred-literal list of the running SolvePrefer call
	// (nil otherwise). Every entry before the cursor preferHead is
	// assigned; backtrackTo resets the cursor.
	prefer     []Lit
	preferHead int

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
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses accepted by AddClause
// (root-satisfied and tautological submissions excluded; learnt clauses are
// tracked separately in Stats). The SMT layer reads this to report encoding
// sizes per query.
func (s *Solver) NumClauses() uint64 { return s.numAdded }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) value(l Lit) lbool { return s.vals[l] }

// lits returns the literals of clause c. The slice aliases the arena, so it
// must not be held across an allocation in it.
func (s *Solver) lits(c cref) []Lit {
	start := int(c) + clauseHdr
	return s.arena[start : start+int(s.arena[c]>>1)]
}

func (s *Solver) clauseSize(c cref) int { return int(s.arena[c] >> 1) }

func (s *Solver) clauseAct(c cref) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[c+1])) | uint64(uint32(s.arena[c+2]))<<32)
}

func (s *Solver) setClauseAct(c cref, a float64) {
	b := math.Float64bits(a)
	s.arena[c+1], s.arena[c+2] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// alloc appends a clause over lits, at activity 0, to the arena.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	hdr := Lit(len(lits) << 1)
	if learnt {
		hdr |= 1
	}
	s.arena = append(s.arena, hdr, 0, 0)
	s.arena = append(s.arena, lits...)
	return c
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
	s.addLits = s.addLits[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return // satisfied at root
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // falsified at root: drop literal
			}
		}
		dup := false
		for _, o := range s.addLits {
			if o == l {
				dup = true
				break
			}
			if o == l.Flip() {
				return // tautology
			}
		}
		if !dup {
			s.addLits = append(s.addLits, l)
		}
	}
	out := s.addLits
	switch len(out) {
	case 0:
		s.unsatAtRoot = true
		return
	case 1:
		s.numAdded++
		if !s.enqueue(out[0], crefUndef) {
			s.unsatAtRoot = true
			return
		}
		if s.propagate() != crefUndef {
			s.unsatAtRoot = true
		}
		return
	}
	s.numAdded++
	c := s.alloc(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
}

func (s *Solver) attach(c cref) {
	// Watch the first two literals.
	lits := s.lits(c)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Flip()] = append(s.watches[l0.Flip()], watcher{c, l1})
	s.watches[l1.Flip()] = append(s.watches[l1.Flip()], watcher{c, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.vals[l], s.vals[l.Flip()] = lTrue, lFalse
	v := l.Var()
	s.phase[v] = !l.Neg()
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	vals, arena := s.vals, s.arena // propagation allocates no clause
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Flip()
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := w.c
			start := int(c) + clauseHdr
			lits := arena[start : start+int(arena[c]>>1)]
			// Normalize so that lits[1] is the false literal p.Flip().
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Flip()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{c, first}
			n++
			if vals[first] == lFalse {
				// Conflict: copy back remaining watchers and bail.
				n += copy(ws[n:], ws[i+1:])
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		if n < len(ws) {
			s.watches[p] = ws[:n]
		}
	}
	return crefUndef
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// bumpClause raises c's activity. Problem clauses are bumped too when they
// take part in a conflict, and one passing the limit rescales the learnt
// clauses (not itself).
func (s *Solver) bumpClause(c cref) {
	a := s.clauseAct(c) + s.claInc
	s.setClauseAct(c, a)
	if a > 1e20 {
		for _, l := range s.learnts {
			s.setClauseAct(l, s.clauseAct(l)*1e-20)
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
func (s *Solver) analyze(confl cref) int {
	s.learntLits = s.learntLits[:0]
	s.learntLits = append(s.learntLits, 0) // room for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	dl := int32(s.decisionLevel())

	for {
		if confl == crefUndef {
			panic(fmt.Sprintf("analyze: no reason for %v (level %d, dl %d, counter %d, trail %v)",
				p, s.level[p.Var()], dl, counter, s.trail))
		}
		s.bumpClause(confl)
		lits := s.lits(confl)
		if p != -1 {
			lits = lits[1:]
		}
		for _, q := range lits {
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= dl {
					counter++
				} else {
					s.learntLits = append(s.learntLits, q)
				}
			}
		}
		// Select next literal on the trail to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	s.learntLits[0] = p.Flip()

	// Recursive minimization: drop literals implied by the rest.
	s.analyzeStack = s.analyzeStack[:0]
	out := s.learntLits[:1]
	for _, l := range s.learntLits[1:] {
		if s.reason[l.Var()] == crefUndef || !s.litRedundant(l) {
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
			if s.level[s.learntLits[i].Var()] > s.level[s.learntLits[maxI].Var()] {
				maxI = i
			}
		}
		s.learntLits[1], s.learntLits[maxI] = s.learntLits[maxI], s.learntLits[1]
		btLevel = int(s.level[s.learntLits[1].Var()])
	}
	// Clear seen flags for the literals we kept (expanded ones were
	// cleared during the loop; kept ones and redundant-check marks next).
	for _, l := range s.learntLits {
		s.seen[l.Var()] = false
	}
	for _, l := range s.clearSeen {
		s.seen[l.Var()] = false
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
		for i, q := range s.lits(s.reason[p.Var()]) {
			if i == 0 && q == p.Flip() {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == crefUndef {
				// Reached a decision not in the clause: not redundant.
				for _, m := range s.clearSeen[top:] {
					s.seen[m.Var()] = false
				}
				s.clearSeen = s.clearSeen[:top]
				return false
			}
			s.seen[v] = true
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
		l := s.trail[i]
		s.vals[l], s.vals[l.Flip()] = lUndef, lUndef
		s.order.push(l.Var())
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
		if s.vals[MkLit(v, false)] == lUndef {
			return MkLit(v, !s.phase[v])
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
	slices.SortStableFunc(ls, func(a, b cref) int { return cmp.Compare(s.clauseAct(a), s.clauseAct(b)) })
	keepFrom := len(ls) / 2
	kept := ls[:0]
	for i, c := range ls {
		if i >= keepFrom || s.isReason(c) || s.clauseSize(c) == 2 {
			kept = append(kept, c)
		} else {
			s.detach(c)
			s.waste += clauseHdr + s.clauseSize(c)
		}
	}
	s.learnts = kept
}

func (s *Solver) isReason(c cref) bool {
	l0 := s.lits(c)[0]
	return s.value(l0) != lUndef && s.reason[l0.Var()] == c
}

func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	for _, wl := range [2]Lit{lits[0].Flip(), lits[1].Flip()} {
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

// compact copies the live clauses into a fresh arena, problem clauses first,
// then learnts, and relocates every watcher and reason in place. It runs at
// the root level, where every assigned variable is a root assignment; their
// reasons are relocated rather than cleared, because isReason keeps those
// clauses from deletion. Each moved clause leaves its new offset in its old
// header word.
func (s *Solver) compact() {
	from := s.arena
	s.arena = make([]Lit, 0, len(from)-s.waste)
	for _, cs := range [2][]cref{s.clauses, s.learnts} {
		for i, c := range cs {
			end := int(c) + clauseHdr + int(from[c]>>1)
			cs[i] = cref(len(s.arena))
			s.arena = append(s.arena, from[c:end]...)
			from[c] = Lit(cs[i])
		}
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = cref(from[ws[i].c])
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			s.reason[l.Var()] = cref(from[r])
		}
	}
	s.waste = 0
	s.compactions++
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

	for {
		// Every round starts at the root level.
		if 2*s.waste > len(s.arena) {
			s.compact()
		}
		restartNum++
		budget := luby(restartNum) * 100
		st := s.search(assumptions, budget, &maxLearnts)
		if st == Sat {
			// Snapshot the model before the deferred backtrack
			// erases the assignment. Unassigned variables default
			// to false.
			n := s.NumVars()
			if cap(s.model) < n {
				s.model = make([]bool, n)
			}
			s.model = s.model[:n]
			for v := range s.model {
				s.model[v] = s.vals[MkLit(v, false)] == lTrue
			}
			return Sat
		}
		if st == Unsat {
			return Unsat
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
		if confl != crefUndef {
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
			if len(s.learntLits) == 1 {
				if !s.enqueue(s.learntLits[0], crefUndef) {
					return Unsat
				}
			} else {
				c := s.alloc(s.learntLits, true)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.enqueue(s.learntLits[0], c)
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
		s.enqueue(next, crefUndef)
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
