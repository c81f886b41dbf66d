package sat

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// seqSpec describes one seeded incremental sequence over a random 3-SAT
// instance near the satisfiability threshold. The instance grows from half
// its clauses to all of them over the calls; each call solves under up to
// three random assumptions, every third one through SolvePrefer, and every
// fourth Sat call is followed by a unit clause that pins one variable to its
// model value, so that root-level propagation leaves reasons behind.
type seqSpec struct {
	seed  int64
	vars  int
	ratio float64 // clauses per variable once the instance is complete
	calls int
}

// runSeq runs sp on a fresh solver, calling each after every solve with the
// verdict, every clause added so far and the call's assumptions.
func runSeq(sp seqSpec, each func(s *Solver, st Status, clauses [][]Lit, assumps []Lit)) *Solver {
	rng := rand.New(rand.NewSource(sp.seed))
	lit := func() Lit { return MkLit(rng.Intn(sp.vars), rng.Intn(2) == 0) }
	s := New()
	for range sp.vars {
		s.NewVar()
	}
	total := int(sp.ratio * float64(sp.vars))
	var clauses [][]Lit
	for call := range sp.calls {
		for len(clauses) < total*(call+sp.calls)/(2*sp.calls) {
			c := []Lit{lit(), lit(), lit()}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		assumps := make([]Lit, rng.Intn(4))
		for i := range assumps {
			assumps[i] = lit()
		}
		var st Status
		if call%3 == 2 {
			prefer := make([]Lit, 1+rng.Intn(24))
			for i := range prefer {
				prefer[i] = lit()
			}
			st = s.SolvePrefer(prefer, assumps...)
		} else {
			st = s.Solve(assumps...)
		}
		each(s, st, clauses, assumps)
		if st == Sat && call%4 == 3 {
			v := rng.Intn(sp.vars)
			c := []Lit{MkLit(v, !s.Value(v))}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
	}
	return s
}

// searchTrace is what TestSearchTrace pins for one sequence: the solver
// counters after the last call, and an FNV-1a digest of every verdict and
// every Sat model, in call order.
type searchTrace struct {
	Decisions, Propagations, Conflicts, Learnt, Restarts uint64
	MaxLearnt                                            int
	Digest                                               uint64
}

func traceOf(sp seqSpec) (searchTrace, *Solver) {
	h := fnv.New64a()
	s := runSeq(sp, func(s *Solver, st Status, _ [][]Lit, _ []Lit) {
		h.Write([]byte{byte(st)})
		if st != Sat {
			return
		}
		model := make([]byte, (s.NumVars()+7)/8)
		for v := range s.NumVars() {
			if s.Value(v) {
				model[v/8] |= 1 << (v % 8)
			}
		}
		h.Write(model)
	})
	st := s.Stats
	return searchTrace{st.Decisions, st.Propagations, st.Conflicts, st.Learnt, st.Restarts, st.MaxLearnt, h.Sum64()}, s
}

// TestSearchTrace pins the search itself, not only its answers: the same
// decisions, propagations, learnt clauses, deletions and restarts, hence the
// same models. The table was produced by running this test body on the
// pointer-based solver that preceded the flat clause arena; a change that
// alters the search must update it on purpose (see the package doc).
func TestSearchTrace(t *testing.T) {
	want := []searchTrace{
		{1313, 14392, 404, 404, 1, 273, 7379956223922306138},
		{1633, 18594, 560, 554, 3, 301, 8023751546636532693},
		{1466, 17612, 512, 506, 4, 280, 8183025023636568229},
		{2362, 40642, 1224, 1223, 8, 316, 12491239723785461771},
		{1881, 25046, 743, 743, 4, 320, 6814791265865703151},
		{1469, 16395, 429, 429, 2, 286, 15501535370211874928},
		{1429, 14214, 369, 369, 1, 291, 10232312663024960399},
		{3211, 64424, 1885, 1884, 13, 379, 16183853336371087736},
		{1879, 27503, 826, 826, 5, 313, 14202901326055276099},
		{2114, 35199, 996, 995, 6, 380, 3605472172825403046},
		{1682, 21957, 574, 574, 3, 300, 5037347800744015489},
		{2540, 50366, 1357, 1355, 7, 361, 947867627946531941},
		{1696, 20404, 516, 516, 3, 308, 6486270994571004576},
		{9000, 191195, 6427, 6415, 33, 1251, 14525146827342204998},
		{1906, 30707, 795, 795, 4, 328, 991959955586758145},
		{1357, 13524, 290, 290, 1, 290, 1839048647066729542},
		{1695, 23180, 586, 585, 2, 311, 11943268071864891645},
		{1740, 21805, 538, 538, 3, 340, 15424640775252932276},
		{3837, 85904, 2388, 2388, 14, 500, 2963338643432808016},
		{7908, 168408, 4991, 4991, 25, 975, 18179308480657662679},
	}
	var deleted uint64
	compactions := 0
	for i, w := range want {
		sp := seqSpec{seed: int64(1000 + i), vars: 130 + 2*i, ratio: 4.2 + 0.01*float64(i%7), calls: 20}
		got, s := traceOf(sp)
		if got != w {
			t.Errorf("sequence %d (%+v):\n got %+v\nwant %+v", i, sp, got, w)
		}
		deleted += s.Stats.Learnt - uint64(len(s.learnts))
		compactions += s.compactions
	}
	// The table is only worth pinning if it reaches every part of the
	// search; the restarts are in its Restarts column.
	if deleted == 0 || compactions == 0 {
		t.Fatalf("the sequences deleted %d learnt clauses and compacted the arena %d times; both must be positive",
			deleted, compactions)
	}
}

// TestCompactionKeepsAnswers runs incremental sequences long enough for
// reduceDB to delete learnt clauses and for the arena to be compacted
// several times, and checks every answer: a Sat model satisfies every clause
// added so far and every assumption, and every verdict matches a fresh
// solver's on the same clauses and assumptions.
func TestCompactionKeepsAnswers(t *testing.T) {
	specs := []seqSpec{
		{seed: 1, vars: 150, ratio: 4.26, calls: 30},
		{seed: 2, vars: 200, ratio: 4.22, calls: 24},
		{seed: 3, vars: 250, ratio: 4.2, calls: 16},
	}
	compactions := 0
	for _, sp := range specs {
		call := 0
		s := runSeq(sp, func(s *Solver, st Status, clauses [][]Lit, assumps []Lit) {
			call++
			fresh := New()
			for range sp.vars {
				fresh.NewVar()
			}
			for _, c := range clauses {
				fresh.AddClause(c...)
			}
			if want := fresh.Solve(assumps...); st != want {
				t.Fatalf("%+v call %d: verdict %v, a fresh solver says %v", sp, call, st, want)
			}
			if st != Sat {
				return
			}
			for _, a := range assumps {
				if !s.ValueLit(a) {
					t.Fatalf("%+v call %d: model violates assumption %v", sp, call, a)
				}
			}
			for i, c := range clauses {
				ok := false
				for _, l := range c {
					ok = ok || s.ValueLit(l)
				}
				if !ok {
					t.Fatalf("%+v call %d: model violates clause %d %v", sp, call, i, c)
				}
			}
		})
		if s.Stats.Learnt == uint64(len(s.learnts)) {
			t.Errorf("%+v: reduceDB deleted no learnt clause", sp)
		}
		compactions += s.compactions
	}
	if compactions < 2 {
		t.Fatalf("the arena was compacted %d times, want at least 2", compactions)
	}
}

// TestCompactionRelocatesRootReasons checks that compaction moves the reason
// of a root-level assignment along with its clause. A learnt clause that
// implied a root literal must stay protected from reduceDB afterwards:
// clearing the reason instead would let it go and change the search.
func TestCompactionRelocatesRootReasons(t *testing.T) {
	s := New()
	for range 43 {
		s.NewVar()
	}
	x := func(v int) Lit { return MkLit(v, false) }
	learn := func(lits ...Lit) cref {
		c := s.alloc(lits, true)
		s.learnts = append(s.learnts, c)
		s.attach(c)
		return c
	}
	// x1 and x2 as root units make the first learnt clause imply x0; the
	// others, more active, are what reduceDB deletes. The problem clause
	// comes last in the arena, and first after compaction, so every learnt
	// clause moves.
	implying := learn(x(0), x(1).Flip(), x(2).Flip())
	for v := 3; v+2 < 40; v += 3 {
		s.setClauseAct(learn(x(v), x(v+1), x(v+2)), 1)
	}
	s.AddClause(x(40), x(41), x(42))
	s.AddClause(x(1))
	s.AddClause(x(2))
	if s.reason[0] != implying {
		t.Fatalf("x0's reason is %d, want the learnt clause at %d", s.reason[0], implying)
	}
	for 2*s.waste <= len(s.arena) {
		s.reduceDB()
	}
	if s.Solve() != Sat || s.compactions != 1 {
		t.Fatalf("Solve: compactions = %d, want 1 and a Sat answer", s.compactions)
	}
	r := s.reason[0]
	if !slices.Contains(s.learnts, r) || s.lits(r)[0] != x(0) {
		t.Fatalf("after compaction x0's reason is %d, not its relocated clause (learnts %v)", r, s.learnts)
	}
	for n := 0; n != len(s.learnts); {
		n = len(s.learnts)
		s.reduceDB()
	}
	if !slices.Contains(s.learnts, r) {
		t.Fatal("reduceDB deleted the learnt clause that implies x0 at the root")
	}
}
