package sat

import (
	"math/rand"
	"testing"
)

func TestEmptyInstanceIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty instance: got %v, want sat", got)
	}
}

func TestUnitClauses(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(b, true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if !s.Value(a) || s.Value(b) {
		t.Fatalf("model: a=%v b=%v, want a=true b=false", s.Value(a), s.Value(b))
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestEmptyClause(t *testing.T) {
	s := New()
	s.AddClause()
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(a, true)) // tautology: no constraint
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
}

// TestPigeonhole checks a classic small unsat family: n+1 pigeons, n holes.
func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := New()
		// p[i][j]: pigeon i in hole j.
		p := make([][]int, n+1)
		for i := range p {
			p[i] = make([]int, n)
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i <= n; i++ {
			lits := make([]Lit, n)
			for j := 0; j < n; j++ {
				lits[j] = MkLit(p[i][j], false)
			}
			s.AddClause(lits...)
		}
		for j := 0; j < n; j++ {
			for i := 0; i <= n; i++ {
				for k := i + 1; k <= n; k++ {
					s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
				}
			}
		}
		if got := s.Solve(); got != Unsat {
			t.Fatalf("pigeonhole(%d): got %v, want unsat", n, got)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	// a -> b
	s.AddClause(MkLit(a, true), MkLit(b, false))
	if got := s.Solve(MkLit(a, false), MkLit(b, true)); got != Unsat {
		t.Fatalf("a ∧ ¬b with a→b: got %v, want unsat", got)
	}
	if got := s.Solve(MkLit(a, false)); got != Sat {
		t.Fatalf("a with a→b: got %v, want sat", got)
	}
	if !s.Value(b) {
		t.Fatalf("model under assumption a: b=false, want true")
	}
	// Solver must remain reusable after assumption-unsat.
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions: got %v, want sat", got)
	}
}

func TestConflictingAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	if got := s.Solve(MkLit(a, false), MkLit(a, true)); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("after conflicting assumptions: got %v, want sat", got)
	}
}

// bruteForce determines satisfiability of a CNF by enumeration.
func bruteForce(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m>>(l.Var())&1 == 1
				if val != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce cross-checks CDCL against enumeration on
// random instances around the phase-transition density.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := 4 + rng.Intn(9) // 4..12
		nClauses := int(4.3*float64(nVars)) + rng.Intn(5)
		clauses := make([][]Lit, nClauses)
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for i := range clauses {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			clauses[i] = c
			s.AddClause(c...)
		}
		want := bruteForce(nVars, clauses)
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("iter %d: got %v, brute force says sat=%v", iter, got, want)
		}
		if got == Sat {
			// Model must satisfy every clause.
			for ci, c := range clauses {
				ok := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Neg() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates clause %d", iter, ci)
				}
			}
		}
	}
}

// TestIncrementalReuse solves a growing instance repeatedly.
func TestIncrementalReuse(t *testing.T) {
	s := New()
	var vars []int
	for i := 0; i < 20; i++ {
		v := s.NewVar()
		vars = append(vars, v)
		if i > 0 {
			// chain: v_i != v_{i-1}
			s.AddClause(MkLit(vars[i-1], false), MkLit(v, false))
			s.AddClause(MkLit(vars[i-1], true), MkLit(v, true))
		}
		if got := s.Solve(); got != Sat {
			t.Fatalf("step %d: got %v, want sat", i, got)
		}
	}
	// Force both ends equal with odd chain length: still sat for even i.
	if got := s.Solve(MkLit(vars[0], false), MkLit(vars[19], false)); got != Unsat {
		t.Fatalf("xor chain ends equal: got %v, want unsat", got)
	}
}

func TestLuby(t *testing.T) {
	want := []uint64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(uint64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(c, false))
	s.AddClause(MkLit(b, true), MkLit(c, true))
	s.Solve()
	if s.Stats.Propagations == 0 && s.Stats.Decisions == 0 {
		t.Fatalf("expected some solver activity, got %+v", s.Stats)
	}
	if !validActivity(s.varInc) {
		t.Fatalf("variable activity increment degenerated: %v", s.varInc)
	}
}

// lexBest enumerates every assignment and returns the truth values of
// prefer under the model that satisfies the clauses and the assumptions and
// makes prefer[0] true if it can, then prefer[1], and so on; ok is false
// when no model exists.
func lexBest(nVars int, clauses [][]Lit, assumps, prefer []Lit) (best []bool, ok bool) {
	holds := func(m int, l Lit) bool { return m>>l.Var()&1 == 1 != l.Neg() }
	for m := 0; m < 1<<nVars; m++ {
		model := true
		for _, a := range assumps {
			model = model && holds(m, a)
		}
		for _, c := range clauses {
			if !model {
				break
			}
			sat := false
			for _, l := range c {
				sat = sat || holds(m, l)
			}
			model = sat
		}
		if !model {
			continue
		}
		vals := make([]bool, len(prefer))
		for i, l := range prefer {
			vals[i] = holds(m, l)
		}
		if ok {
			better := false
			for i := range vals {
				if vals[i] != best[i] {
					better = vals[i]
					break
				}
			}
			if !better {
				continue
			}
		}
		best, ok = vals, true
	}
	return best, ok
}

// TestSolvePreferLexMin checks the ordered solve against enumeration: on
// random instances warmed by earlier solves (so learnt clauses, activities
// and saved phases exist), SolvePrefer under random assumptions returns the
// lexicographically best assignment of its preferred literals.
func TestSolvePreferLexMin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randLit := func(n int) Lit { return MkLit(rng.Intn(n), rng.Intn(2) == 0) }
	learnt := 0
	for iter := 0; iter < 400; iter++ {
		nVars := 6 + rng.Intn(9) // 6..14
		nClauses := int(3.5*float64(nVars)) + rng.Intn(6)
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			clauses[i] = []Lit{randLit(nVars), randLit(nVars), randLit(nVars)}
			s.AddClause(clauses[i]...)
		}
		for warm := 0; warm < 4; warm++ {
			s.Solve(randLit(nVars), randLit(nVars))
		}
		assumps := make([]Lit, rng.Intn(3))
		for i := range assumps {
			assumps[i] = randLit(nVars)
		}
		prefer := make([]Lit, 0, nVars)
		for _, v := range rng.Perm(nVars)[:1+rng.Intn(nVars)] {
			prefer = append(prefer, MkLit(v, rng.Intn(2) == 0))
		}
		want, sat := lexBest(nVars, clauses, assumps, prefer)
		got := s.SolvePrefer(prefer, assumps...)
		if (got == Sat) != sat {
			t.Fatalf("iter %d: got %v, enumeration says sat=%v", iter, got, sat)
		}
		if sat {
			for i, l := range prefer {
				if s.ValueLit(l) != want[i] {
					t.Fatalf("iter %d: preferred literal %d (%v) is %v, lexicographic best has %v",
						iter, i, l, s.ValueLit(l), want[i])
				}
			}
		}
		// The list is for one call only: a plain solve afterwards still
		// answers the same instance.
		if again := s.Solve(assumps...); again != got {
			t.Fatalf("iter %d: plain solve after SolvePrefer got %v, want %v", iter, again, got)
		}
		learnt += int(s.Stats.Learnt)
	}
	if learnt == 0 {
		t.Fatal("no instance learnt a clause; the warm-up exercises nothing")
	}
}

// TestSolveConeRootUnitReachesDormantClauses pins the root-level rule of
// SolveCone. The first call's cone holds x, y and their guards g and h, and
// its preferred literals make it decide x = 0 and y = 0, learn the units x
// and y, and assert them at the root. The clause (¬x ∨ ¬y ∨ z), owned by c
// outside that cone, watches ¬x and ¬y, so only root-level propagation
// turns it into the unit z. A later call whose cone holds c and z, under
// the assumption ¬z, must answer Unsat; had the first call skipped the
// clause at the root, both of its watches would stay false for good and
// the second call would miss the conflict.
func TestSolveConeRootUnitReachesDormantClauses(t *testing.T) {
	s := New()
	x, y, z, g, h, c := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	pos := func(v int) Lit { return MkLit(v, false) }
	neg := func(v int) Lit { return MkLit(v, true) }
	s.AddOwnedClause(g, pos(x), pos(g))
	s.AddOwnedClause(g, pos(x), neg(g))
	s.AddOwnedClause(h, pos(y), pos(h))
	s.AddOwnedClause(h, pos(y), neg(h))
	s.AddOwnedClause(c, neg(x), neg(y), pos(z))

	if st := s.SolveCone([]int32{int32(x), int32(y), int32(g), int32(h)}, []Lit{neg(x), neg(y)}); st != Sat {
		t.Fatalf("first call: %v, want sat", st)
	}
	if s.Stats.Conflicts != 2 || !s.Value(x) || !s.Value(y) {
		t.Fatalf("first call: %d conflicts, x=%v y=%v; want the units x and y learnt from 2 conflicts",
			s.Stats.Conflicts, s.Value(x), s.Value(y))
	}
	if st := s.SolveCone([]int32{int32(x), int32(y), int32(z), int32(c)}, nil, neg(z)); st != Unsat {
		t.Fatalf("second call under ¬z: %v, want unsat", st)
	}
	if st := s.Solve(neg(z)); st != Unsat {
		t.Fatalf("unrestricted call under ¬z: %v, want unsat", st)
	}
}

// TestAddClauseAllocatesNoObjectPerLiteral pins that watch lists share
// chunks: adding clauses whose watch lists fit their first chunk allocates
// a number of objects that grows with the doublings of the solver's
// arrays, not one per watched literal.
func TestAddClauseAllocatesNoObjectPerLiteral(t *testing.T) {
	const n = 1 << 12
	allocs := testing.AllocsPerRun(5, func() {
		s := New()
		for range n {
			s.NewVar()
		}
		// Every literal is watched by at most one clause.
		for v := 0; v+1 < n; v++ {
			s.AddClause(MkLit(v, false), MkLit(v+1, true))
		}
	})
	if allocs >= n/16 {
		t.Errorf("%d variables and %d binary clauses allocate %v objects, want under %d", n, n-1, allocs, n/16)
	}
}
