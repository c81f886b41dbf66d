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

// coneSpec describes one seeded SolveCone sequence over a circuit encoded
// the way package solver encodes its queries. The circuit has blocks, each
// with its own input variables and gates over them: mostly 3-input ors,
// with some majorities and 3-input xors. Each gate's Tseitin clauses are
// owned by it, and each gate is also a constraint: its literal behind a
// fresh activation literal a, with the clause (¬a ∨ gate) owned by a. The
// circuit grows from half its gates to all of them over the calls. A call
// assumes about four constraints per input of one or two blocks, near the
// satisfiability threshold; every third call also prefers the negated
// inputs of its first block, as a minimal-model probe does. It solves
// within the cone those literals reach, so the other blocks stay dormant.
// Every fourth Sat call is followed by a unit clause that pins one input of
// its cone to its model value.
type coneSpec struct {
	seed           int64
	blocks, inputs int // inputs per block
	gates          int // gates per block once the circuit is complete
	calls          int
}

// coneCircuit is the instance of a coneSpec as it grows.
type coneCircuit struct {
	s      *Solver
	rng    *rand.Rand
	inputs [][]int   // per block
	cons   [][]Lit   // per block: the activation literals of its constraints
	ins    [][]int32 // per variable: the variables it is a function of
	owned  [][]Lit   // owned[i] is a clause owned by owners[i]
	owners []int
}

// newVar allocates a variable that is a function of the variables of in.
func (c *coneCircuit) newVar(in ...Lit) Lit {
	vs := make([]int32, len(in))
	for i, l := range in {
		vs[i] = int32(l.Var())
	}
	c.ins = append(c.ins, vs)
	return MkLit(c.s.NewVar(), false)
}

func (c *coneCircuit) def(owner Lit, lits ...Lit) {
	c.s.AddOwnedClause(owner.Var(), lits...)
	c.owned = append(c.owned, lits)
	c.owners = append(c.owners, owner.Var())
}

// xor defines o = x ⊕ y.
func (c *coneCircuit) xor(o, x, y Lit) {
	c.def(o, o.Flip(), x, y)
	c.def(o, o.Flip(), x.Flip(), y.Flip())
	c.def(o, o, x, y.Flip())
	c.def(o, o, x.Flip(), y)
}

// constraint adds a random gate over block b's inputs and its guard.
func (c *coneCircuit) constraint(b int) {
	in := c.inputs[b]
	pick := func() Lit { return MkLit(in[c.rng.Intn(len(in))], c.rng.Intn(2) == 0) }
	x, y, z := pick(), pick(), pick()
	var o Lit
	k := c.rng.Intn(16)
	switch {
	case k < 14: // o = x ∨ y ∨ z
		o = c.newVar(x, y, z)
		c.def(o, o, x.Flip())
		c.def(o, o, y.Flip())
		c.def(o, o, z.Flip())
		c.def(o, o.Flip(), x, y, z)
	case k == 14: // o = maj(x, y, z)
		o = c.newVar(x, y, z)
		c.def(o, o.Flip(), x, y)
		c.def(o, o.Flip(), x, z)
		c.def(o, o.Flip(), y, z)
		c.def(o, o, x.Flip(), y.Flip())
		c.def(o, o, x.Flip(), z.Flip())
		c.def(o, o, y.Flip(), z.Flip())
	default: // o = x ⊕ y ⊕ z, through t = x ⊕ y
		t := c.newVar(x, y)
		c.xor(t, x, y)
		o = c.newVar(t, z)
		c.xor(o, t, z)
	}
	if k >= 14 && c.rng.Intn(2) == 0 {
		o = o.Flip() // an or is a clause; the others take either polarity
	}
	a := c.newVar(o)
	c.def(a, a.Flip(), o)
	c.cons[b] = append(c.cons[b], a)
}

// coneOf lists the variables roots reach through gate inputs, breadth-first,
// as package solver's sessions compute a query's cone.
func (c *coneCircuit) coneOf(roots ...[]Lit) []int32 {
	mark := make([]bool, c.s.NumVars())
	var cone []int32
	for _, ls := range roots {
		for _, l := range ls {
			if v := int32(l.Var()); !mark[v] {
				mark[v] = true
				cone = append(cone, v)
			}
		}
	}
	for i := 0; i < len(cone); i++ {
		for _, u := range c.ins[cone[i]] {
			if !mark[u] {
				mark[u] = true
				cone = append(cone, u)
			}
		}
	}
	return cone
}

// runConeSeq runs sp on a fresh solver, calling each after every solve with
// the verdict, the cone and the call's assumptions.
func runConeSeq(sp coneSpec, each func(c *coneCircuit, st Status, cone []int32, assumps []Lit)) *Solver {
	c := &coneCircuit{
		s: New(), rng: rand.New(rand.NewSource(sp.seed)),
		inputs: make([][]int, sp.blocks), cons: make([][]Lit, sp.blocks),
	}
	for b := range sp.blocks {
		for range sp.inputs {
			c.inputs[b] = append(c.inputs[b], c.newVar().Var())
		}
	}
	for call := range sp.calls {
		for b := range sp.blocks {
			for len(c.cons[b]) < sp.gates*(call+sp.calls)/(2*sp.calls) {
				c.constraint(b)
			}
		}
		from := [2]int{c.rng.Intn(sp.blocks), c.rng.Intn(sp.blocks)}
		if c.rng.Intn(2) == 0 {
			from[1] = from[0]
		}
		assumps := make([]Lit, 4*sp.inputs+c.rng.Intn(sp.inputs/2))
		for i := range assumps {
			cs := c.cons[from[c.rng.Intn(2)]]
			assumps[i] = cs[c.rng.Intn(len(cs))]
		}
		var prefer []Lit
		if call%3 == 2 {
			for _, v := range c.inputs[from[0]] {
				prefer = append(prefer, MkLit(v, true))
			}
		}
		cone := c.coneOf(assumps, prefer)
		st := c.s.SolveCone(cone, prefer, assumps...)
		each(c, st, cone, assumps)
		if st == Sat && call%4 == 3 {
			var in []int
			for _, v := range cone {
				if len(c.ins[v]) == 0 {
					in = append(in, int(v))
				}
			}
			v := in[c.rng.Intn(len(in))]
			c.s.AddClause(MkLit(v, !c.s.Value(v)))
		}
	}
	return c.s
}

// TestSolveConeTrace is TestSearchTrace for cone-restricted solves: it pins
// the decisions, propagations, conflicts, learnt clauses and models of
// seeded SolveCone sequences over growing instances with owned clauses and
// dormant parts. Every Sat model must also satisfy the call's assumptions
// and every clause owned inside its cone. The table was produced by running
// this test body on the solver whose watch lists were separate slices,
// grown by append; a change that alters the search must update it on
// purpose (see the package doc).
func TestSolveConeTrace(t *testing.T) {
	want := []searchTrace{
		{974, 14328, 76, 75, 0, 75, 177854487754718520},
		{1150, 15202, 52, 51, 0, 51, 15096651080829009956},
		{988, 15599, 93, 92, 0, 92, 1922632088817626689},
		{886, 15772, 108, 108, 0, 108, 12966174212402695832},
		{1356, 18179, 83, 81, 0, 81, 14066861426805964550},
		{1423, 19473, 77, 74, 0, 74, 5342520076345421524},
		{1164, 20490, 247, 247, 0, 247, 14872646653036694090},
		{1550, 22569, 220, 218, 0, 218, 5442815838111839530},
	}
	var coneVars, allVars int
	for i, w := range want {
		sp := coneSpec{seed: int64(2000 + i), blocks: 4, inputs: 60 + 2*i, gates: 300 + 10*i, calls: 30}
		h := fnv.New64a()
		s := runConeSeq(sp, func(c *coneCircuit, st Status, cone []int32, assumps []Lit) {
			coneVars += len(cone)
			allVars += c.s.NumVars()
			h.Write([]byte{byte(st)})
			if st != Sat {
				return
			}
			model := make([]byte, (c.s.NumVars()+7)/8)
			for v := range c.s.NumVars() {
				if c.s.Value(v) {
					model[v/8] |= 1 << (v % 8)
				}
			}
			h.Write(model)
			for _, a := range assumps {
				if !c.s.ValueLit(a) {
					t.Fatalf("%+v: the model violates assumption %v", sp, a)
				}
			}
			inCone := make([]bool, c.s.NumVars())
			for _, v := range cone {
				inCone[v] = true
			}
			for k, cl := range c.owned {
				if inCone[c.owners[k]] && !slices.ContainsFunc(cl, c.s.ValueLit) {
					t.Fatalf("%+v: the model violates clause %v owned by cone variable %d", sp, cl, c.owners[k])
				}
			}
		})
		st := s.Stats
		got := searchTrace{st.Decisions, st.Propagations, st.Conflicts, st.Learnt, st.Restarts, st.MaxLearnt, h.Sum64()}
		if got != w {
			t.Errorf("sequence %d (%+v):\n got %+v\nwant %+v", i, sp, got, w)
		}
	}
	// The table pins cone-restricted search only if most of each instance
	// lies outside the cones.
	if 2*coneVars >= allVars {
		t.Fatalf("the cones held %d of %d variables over all calls; want under half", coneVars, allVars)
	}
}
