package solver

// Tests for the incremental session layer: prefix-extension reuse,
// fork-then-diverge correctness, registration of unseen conjuncts, and
// unsat-under-assumptions isolation.

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"symmerge/internal/expr"
)

// chainPC builds a dependent conjunct chain x0 < x1 < ... < xn over 8-bit
// variables: every prefix is satisfiable for n <= 255.
func chainPC(b *expr.Builder, n int) []*expr.Expr {
	vars := make([]*expr.Expr, n+1)
	for i := range vars {
		vars[i] = b.Var("c"+itoa(i), 8)
	}
	pc := make([]*expr.Expr, n)
	for i := 0; i < n; i++ {
		pc[i] = b.Ult(vars[i], vars[i+1])
	}
	return pc
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestSessionPrefixReuse(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{}) // no caches: measure the session itself
	sess := s.NewSession()
	pc := chainPC(b, 12)
	// Growing-prefix queries, the engine's MayBeTrue pattern.
	for i := 1; i <= len(pc); i++ {
		ok, m, err := s.CheckSatIn(sess, pc[:i])
		if err != nil || !ok {
			t.Fatalf("prefix %d: ok=%v err=%v", i, ok, err)
		}
		env := expr.Env(m)
		for _, c := range pc[:i] {
			if !expr.EvalBool(c, env) {
				t.Fatalf("prefix %d: model %v violates %s", i, m, c)
			}
		}
	}
	if got := sess.core.acts.Len(); got != len(pc) {
		t.Fatalf("blasted %d conjuncts, want %d (each exactly once)", got, len(pc))
	}
	if s.Stats.SATCalls != uint64(len(pc)) {
		t.Fatalf("SATCalls=%d, want %d", s.Stats.SATCalls, len(pc))
	}
	// Query i reuses i-1 already-blasted conjuncts: sum over i of (i-1).
	wantReuse := uint64(len(pc) * (len(pc) - 1) / 2)
	if s.Stats.SessionBlastReuse != wantReuse {
		t.Fatalf("SessionBlastReuse=%d, want %d", s.Stats.SessionBlastReuse, wantReuse)
	}
	// Re-querying the full prefix must not grow the instance.
	vars := sess.core.ss.NumVars()
	if ok, _, err := s.CheckSatIn(sess, pc); err != nil || !ok {
		t.Fatalf("repeat query: ok=%v err=%v", ok, err)
	}
	if sess.core.ss.NumVars() != vars {
		t.Fatalf("repeat query grew the instance: %d -> %d vars", vars, sess.core.ss.NumVars())
	}
}

func TestSessionForkDiverge(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	sess := s.NewSession()
	x := b.Var("x", 8)
	pc := []*expr.Expr{b.Ult(x, b.Const(100, 8)), b.Ugt(x, b.Const(10, 8))}
	for i := 1; i <= len(pc); i++ {
		if ok, _, err := s.CheckSatIn(sess, pc[:i]); err != nil || !ok {
			t.Fatalf("prefix %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Fork: left takes x < 50, right takes ¬(x < 50).
	left, right := sess, sess.Fork()
	cl := b.Ult(x, b.Const(50, 8))
	cr := b.Not(cl)
	pcL := append(append([]*expr.Expr{}, pc...), cl)
	pcR := append(append([]*expr.Expr{}, pc...), cr)
	// The engine checks each branch's feasibility before following it —
	// that query is what blasts the branch conjunct into the shared core.
	if ok, _, err := s.CheckSatIn(left, pcL); err != nil || !ok {
		t.Fatalf("left branch: ok=%v err=%v", ok, err)
	}
	if ok, _, err := s.CheckSatIn(right, pcR); err != nil || !ok {
		t.Fatalf("right branch: ok=%v err=%v", ok, err)
	}
	// Diverge further: left pins x = 20 (sat) then x = 60 (unsat under
	// its branch); right the mirror image.
	cases := []struct {
		sess *Session
		pc   []*expr.Expr
		pin  uint64
		want bool
	}{
		{left, pcL, 20, true},
		{left, pcL, 60, false},
		{right, pcR, 60, true},
		{right, pcR, 20, false},
	}
	for i, tc := range cases {
		q := append(append([]*expr.Expr{}, tc.pc...), b.Eq(x, b.Const(tc.pin, 8)))
		got, m, err := s.CheckSatIn(tc.sess, q)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != tc.want {
			t.Fatalf("case %d: session=%v want=%v", i, got, tc.want)
		}
		if got && m[x] != tc.pin {
			t.Fatalf("case %d: model x=%d, want %d", i, m[x], tc.pin)
		}
	}
	// Both forks share one blasted set: pc, the two branch conjuncts, and
	// the two pin conjuncts — the pins are hash-consed, so querying x=60
	// on the right fork reuses the left fork's blasting of the same
	// expression. Nothing is blasted twice.
	if got, want := sess.core.acts.Len(), len(pc)+2+2; got != want {
		t.Fatalf("blasted %d conjuncts across forks, want %d", got, want)
	}
}

func TestSessionUnsatNoPoison(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	sess := s.NewSession()
	x := b.Var("x", 8)
	pc := []*expr.Expr{b.Ult(x, b.Const(10, 8))}
	if ok, _, err := s.CheckSatIn(sess, pc); err != nil || !ok {
		t.Fatalf("pc alone: ok=%v err=%v", ok, err)
	}
	// Contradictory extension: unsat under assumptions.
	bad := append(append([]*expr.Expr{}, pc...), b.Ugt(x, b.Const(20, 8)))
	if ok, _, err := s.CheckSatIn(sess, bad); err != nil || ok {
		t.Fatalf("contradiction: ok=%v err=%v", ok, err)
	}
	// The unsat result must not leak into unrelated later queries on the
	// same persistent instance.
	good := append(append([]*expr.Expr{}, pc...), b.Eq(x, b.Const(7, 8)))
	ok, m, err := s.CheckSatIn(sess, good)
	if err != nil || !ok {
		t.Fatalf("post-unsat query: ok=%v err=%v", ok, err)
	}
	if m[x] != 7 {
		t.Fatalf("post-unsat model x=%d, want 7", m[x])
	}
	// And the original prefix still answers sat.
	if ok, _, err := s.CheckSatIn(sess, pc); err != nil || !ok {
		t.Fatalf("pc after unsat: ok=%v err=%v", ok, err)
	}
}

// TestSessionDifferential drives a session through random branch sequences
// and checks every verdict against brute-force enumeration of the two
// 4-bit variables — the session analogue of quick_test.go's property tests.
func TestSessionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := expr.NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	vars := []*expr.Expr{x, y}
	for trial := 0; trial < 60; trial++ {
		s := New(Options{})
		sess := s.NewSession()
		var pc []*expr.Expr
		for step := 0; step < 6; step++ {
			cond := randomBoolExpr(b, rng, vars, 3)
			if cond.IsConst() {
				continue
			}
			q := append(append([]*expr.Expr{}, pc...), cond)
			got, m, err := s.CheckSatIn(sess, q)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			want := false
			for xv := uint64(0); xv < 16 && !want; xv++ {
				for yv := uint64(0); yv < 16 && !want; yv++ {
					want = modelSatisfies(Model{x: xv, y: yv}, q)
				}
			}
			if got != want {
				t.Fatalf("trial %d step %d: session=%v brute force=%v on %v",
					trial, step, got, want, q)
			}
			if got {
				env := expr.Env(m)
				for _, c := range q {
					if !expr.EvalBool(c, env) {
						t.Fatalf("trial %d step %d: model %v violates %s",
							trial, step, m, c)
					}
				}
				pc = q // extend the path like the engine does
			}
		}
	}
}

// TestSessionRebase shrinks the rebase limit so the persistent core is
// rebuilt mid-lineage and verifies queries stay correct across the rebuild.
func TestSessionRebase(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	sess := s.NewSession()
	sess.core.rebaseVars = 64 // tiny: every few conjuncts trigger a rebuild
	pc := chainPC(b, 10)
	for i := 1; i <= len(pc); i++ {
		ok, m, err := s.CheckSatIn(sess, pc[:i])
		if err != nil || !ok {
			t.Fatalf("prefix %d: ok=%v err=%v", i, ok, err)
		}
		env := expr.Env(m)
		for _, c := range pc[:i] {
			if !expr.EvalBool(c, env) {
				t.Fatalf("prefix %d: model violates %s after rebase", i, c)
			}
		}
	}
	if s.Stats.SessionRebases == 0 {
		t.Fatal("rebase limit of 64 vars never triggered a rebuild")
	}
	// Unsat still detected post-rebase.
	x := b.Var("rb", 8)
	q := []*expr.Expr{b.Ult(x, b.Const(3, 8)), b.Ugt(x, b.Const(5, 8))}
	for i := 1; i <= len(q); i++ {
		if ok, _, err := s.CheckSatIn(sess, q[:i]); err != nil || ok == (i == 2) {
			t.Fatalf("rebased unsat check %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestSessionRegistersUnknownConjuncts sends a session a query none of
// whose conjuncts it has seen. The session answers it and registers every
// conjunct, so an extension of the query blasts only the new conjunct.
func TestSessionRegistersUnknownConjuncts(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	sess := s.NewSession()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	q := []*expr.Expr{b.Ult(x, b.Const(9, 8)), b.Ult(y, b.Const(9, 8)), b.Ult(x, y)}
	v0 := sess.core.ss.NumVars()
	ok, m, err := s.CheckSatIn(sess, q)
	if err != nil || !ok || !modelSatisfies(m, q) {
		t.Fatalf("ok=%v m=%v err=%v", ok, m, err)
	}
	if sess.core.acts.Len() != len(q) || s.Stats.SATCalls != 1 {
		t.Fatalf("registered %d conjuncts in %d SAT calls, want %d in 1",
			sess.core.acts.Len(), s.Stats.SATCalls, len(q))
	}
	// The query's whole encoding went into the session.
	if got, want := s.Stats.SATVars, uint64(sess.core.ss.NumVars()-v0); got != want {
		t.Fatalf("query blasted %d variables, the session grew by %d", got, want)
	}
	// x+2 < y shares no gate with q: the extension blasts its circuit and
	// one activation variable, and reuses every conjunct of q.
	next := b.Ult(b.Add(x, b.Const(2, 8)), y)
	reuse, vars := s.Stats.SessionBlastReuse, s.Stats.SATVars
	ext := append(slices.Clone(q), next)
	if ok, m, err := s.CheckSatIn(sess, ext); err != nil || !ok || !modelSatisfies(m, ext) {
		t.Fatalf("extension: ok=%v m=%v err=%v", ok, m, err)
	}
	if got := s.Stats.SessionBlastReuse - reuse; got != uint64(len(q)) {
		t.Fatalf("extension reused %d conjuncts, want %d", got, len(q))
	}
	if got, want := s.Stats.SATVars-vars, uint64(gateVars(next, x, y)+1); got != want {
		t.Fatalf("extension blasted %d variables, want %d (the new conjunct only)", got, want)
	}
}

// TestSessionRebaseRecovery covers the post-rebase trap: after the shared
// core is rebuilt by one lineage's query, other lineages — whose conjuncts
// all vanished from the core — re-register them on their next query and
// are incremental again from the query after.
func TestSessionRebaseRecovery(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	sess := s.NewSession()
	x := b.Var("x", 8)
	pcA := []*expr.Expr{b.Ult(x, b.Const(200, 8)), b.Ugt(x, b.Const(3, 8))}
	for i := 1; i <= len(pcA); i++ {
		if ok, _, err := s.CheckSatIn(sess, pcA[:i]); err != nil || !ok {
			t.Fatalf("lineage A prefix %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Another lineage's query triggers a rebase, dropping A's conjuncts.
	sess.core.rebaseVars = 1
	other := sess.Fork()
	y := b.Var("y", 8)
	if ok, _, err := s.CheckSatIn(other, []*expr.Expr{b.Ult(y, b.Const(5, 8))}); err != nil || !ok {
		t.Fatalf("rebasing query: ok=%v err=%v", ok, err)
	}
	if s.Stats.SessionRebases == 0 || sess.core.acts.Len() != 1 {
		t.Fatalf("rebase did not trigger: %d rebases, %d conjuncts", s.Stats.SessionRebases, sess.core.acts.Len())
	}
	sess.core.rebaseVars = 1 << 20 // stop rebasing; watch A recover
	rebases := s.Stats.SessionRebases
	// Lineage A queries again: its conjuncts are unknown to the rebuilt
	// core, and the query registers both.
	reuse, vars, v0 := s.Stats.SessionBlastReuse, s.Stats.SATVars, sess.core.ss.NumVars()
	if ok, _, err := s.CheckSatIn(sess, pcA); err != nil || !ok {
		t.Fatalf("A after rebase: ok=%v err=%v", ok, err)
	}
	if sess.core.acts.Len() != 1+len(pcA) || s.Stats.SessionBlastReuse != reuse {
		t.Fatalf("post-rebase query: %d conjuncts registered, %d reused; want %d, 0",
			sess.core.acts.Len(), s.Stats.SessionBlastReuse-reuse, 1+len(pcA))
	}
	if got, want := s.Stats.SATVars-vars, uint64(sess.core.ss.NumVars()-v0); got != want {
		t.Fatalf("post-rebase query blasted %d variables, the session grew by %d", got, want)
	}
	// The next extension reuses them and blasts only its own conjunct.
	next := b.Ult(x, b.Const(100, 8))
	vars = s.Stats.SATVars
	ext := append(slices.Clone(pcA), next)
	ok, m, err := s.CheckSatIn(sess, ext)
	if err != nil || !ok {
		t.Fatalf("A extension after recovery: ok=%v err=%v", ok, err)
	}
	if got := s.Stats.SessionBlastReuse - reuse; got != uint64(len(pcA)) {
		t.Fatalf("extension reused %d conjuncts, want %d", got, len(pcA))
	}
	if got, want := s.Stats.SATVars-vars, uint64(gateVars(next, x)+1); got != want {
		t.Fatalf("extension blasted %d variables, want %d (the new conjunct only)", got, want)
	}
	if s.Stats.SessionRebases != rebases {
		t.Fatal("unexpected extra rebase during recovery")
	}
	if v := m[x]; v <= 3 || v >= 100 {
		t.Fatalf("recovered model x=%d violates 3 < x < 100", v)
	}
}

// TestConjunctVarsMatchVars registers random conjunct sequences the way the
// engine does, through NoteConjunct and session queries: atoms, branch
// conditions over ite-valued (merged) values, and merged disjunctions of
// registered suffixes, with the core forcibly rebased now and then. Every
// record's variable list must hold exactly the conjunct's variables, once
// each, however much of it the walk took from registered conjuncts.
func TestConjunctVarsMatchVars(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := expr.NewBuilder()
	var bytes []*expr.Expr
	for i := 0; i < 4; i++ {
		bytes = append(bytes, b.Var("v"+itoa(i), 8))
	}
	flags := []*expr.Expr{b.Var("f0", 0), b.Var("f1", 0)}
	s := New(Options{})
	sess := s.NewSession()
	var pool []*expr.Expr // conjuncts registered so far
	pick := func() *expr.Expr { return pool[rng.Intn(len(pool))] }
	suffix := func() *expr.Expr {
		var cs []*expr.Expr
		for n := 1 + rng.Intn(3); n > 0; n-- {
			cs = append(cs, pick())
		}
		return b.AndN(cs)
	}
	value := func() *expr.Expr {
		x := bytes[rng.Intn(len(bytes))]
		if len(pool) == 0 || rng.Intn(2) == 0 {
			return x
		}
		// A merged value: an ite selecting on a registered suffix.
		return b.Ite(suffix(), x, b.Add(bytes[rng.Intn(len(bytes))], b.Const(1, 8)))
	}
	checked := 0
	for step := 0; step < 400; step++ {
		var c *expr.Expr
		switch r := rng.Intn(6); {
		case r == 0:
			c = flags[rng.Intn(len(flags))]
		case r <= 2 || len(pool) < 2:
			c = b.Ult(value(), b.Const(uint64(rng.Intn(256)), 8))
		case r == 3:
			c = b.Eq(value(), value())
		default:
			// A merge: the disjunction of two registered suffixes.
			c = b.Or(suffix(), suffix())
		}
		if c.IsConst() {
			continue
		}
		if step%50 == 49 {
			sess.core.rebaseVars = sess.core.ss.NumVars() // the next query rebuilds the core
		}
		if rng.Intn(2) == 0 {
			sess.NoteConjunct(c)
		} else if _, err := s.MayBeTrueIn(sess, pool[:min(len(pool), 2)], c); err != nil {
			t.Fatal(err)
		}
		sess.core.rebaseVars = defaultRebaseVars
		pool = append(pool, c)
		for _, conj := range pool {
			rec, ok := sess.core.acts.Get(conj)
			if !ok {
				continue // registered before the last rebase
			}
			vars := sess.core.vars[rec.lo:rec.hi]
			want := map[*expr.Expr]bool{}
			conj.Vars(want)
			got := map[*expr.Expr]bool{}
			for _, v := range vars {
				if got[v] {
					t.Fatalf("step %d: variable %s listed twice for %s", step, v, conj)
				}
				got[v] = true
			}
			if !maps.Equal(got, want) {
				t.Fatalf("step %d: variables of %s listed as %v, want %v", step, conj, vars, want)
			}
			checked++
		}
	}
	if s.Stats.SessionRebases == 0 {
		t.Fatal("no rebase happened")
	}
	if checked == 0 {
		t.Fatal("no record checked")
	}
}

// TestSessionConeDifferential runs one session over a pool of conjuncts
// that earlier queries assumed, so the core holds their circuits with true
// saved phases and learnt clauses over them, and each query takes a random
// subset as its live conjuncts: every other conjunct is dormant and out of
// the query's cone. Each verdict must equal a fresh session's, each Sat
// model must satisfy every live conjunct, and every fifth query's
// canonical model must match the probe oracle.
func TestSessionConeDifferential(t *testing.T) {
	b := expr.NewBuilder()
	g := newMinGen(23, b)
	s := New(Options{}) // no model reuse: every query is a session solve
	ref := New(Options{})
	sess := s.NewSession()
	var pool []*expr.Expr
	for len(pool) < 60 {
		c := g.cond(2)
		if c.IsConst() {
			continue
		}
		// Assume the new conjunct next to two older ones.
		q := []*expr.Expr{c}
		for k := 0; k < 2 && len(pool) > 0; k++ {
			q = append(q, pool[g.rng.Intn(len(pool))])
		}
		if _, _, err := s.CheckSatIn(sess, q); err != nil {
			t.Fatal(err)
		}
		pool = append(pool, c)
	}
	if s.Stats.SATConflicts == 0 {
		t.Fatal("warm-up learnt nothing")
	}
	sats, unsats, mins := 0, 0, 0
	for iter := 0; iter < 400; iter++ {
		live := make([]*expr.Expr, 1+g.rng.Intn(5))
		for i := range live {
			live[i] = pool[g.rng.Intn(len(pool))]
		}
		got, m, err := s.CheckSatIn(sess, live)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.CheckSatIn(nil, live)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: session says %v, a fresh session %v on %v", iter, got, want, live)
		}
		if !got {
			unsats++
			continue
		}
		sats++
		for _, c := range live {
			if !expr.EvalBool(c, expr.Env(m)) {
				t.Fatalf("iter %d: model %v violates live conjunct %s", iter, m, c)
			}
		}
		if iter%5 != 0 {
			continue
		}
		vars := g.vars()
		gotMin, err := s.MinModelIn(sess, live, vars)
		if err != nil {
			t.Fatal(err)
		}
		wantMin, err := probeMinModel(b, ref, nil, live, vars)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vars {
			if gotMin[v] != wantMin[v] {
				t.Fatalf("iter %d: canonical %s = %d, oracle says %d", iter, v.Name, gotMin[v], wantMin[v])
			}
		}
		mins++
	}
	if sats < 100 || unsats < 20 || mins < 20 {
		t.Fatalf("degenerate draw: %d sat, %d unsat, %d canonical", sats, unsats, mins)
	}
	if s.Stats.SessionRebases != 0 {
		t.Fatal("the core was rebuilt: the dormant conjuncts are gone")
	}
}

// TestSessionSearchCounters checks the search counters on a fixed query
// sequence over a core that also holds a dormant chain. A query over
// boolean conjuncts p and q asserts each through its activation literal and
// needs no decision: its cone is the activation variables and the inputs,
// two variables per conjunct, however large the core.
func TestSessionSearchCounters(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	sess := s.NewSession()
	for _, c := range chainPC(b, 8) {
		sess.NoteConjunct(c)
	}
	p, q := b.Var("p", 0), b.Var("q", 0)
	for i, tc := range []struct {
		q                          []*expr.Expr
		cone, props, dec, conflict uint64
	}{
		{[]*expr.Expr{p}, 2, 2, 0, 0},
		{[]*expr.Expr{p, q}, 4, 4, 0, 0},
		{[]*expr.Expr{b.Not(p)}, 2, 2, 0, 0},
		{[]*expr.Expr{p, b.Not(p)}, 3, 3, 0, 0}, // p falsifies the second activation literal
	} {
		before := s.Stats
		if _, _, err := s.CheckSatIn(sess, tc.q); err != nil {
			t.Fatal(err)
		}
		d := s.Stats
		cone, core := d.ConeVars-before.ConeVars, d.CoreVars-before.CoreVars
		if core != uint64(sess.core.ss.NumVars()) || core < 100 {
			t.Fatalf("query %d: core %d vars, the session holds %d", i, core, sess.core.ss.NumVars())
		}
		if cone != tc.cone || d.SATPropagations-before.SATPropagations != tc.props ||
			d.SATDecisions != before.SATDecisions || d.SATConflicts != before.SATConflicts {
			t.Fatalf("query %d: cone %d, %d propagations, %d decisions, %d conflicts; want %d, %d, 0, 0",
				i, cone, d.SATPropagations-before.SATPropagations, d.SATDecisions-before.SATDecisions,
				d.SATConflicts-before.SATConflicts, tc.cone, tc.props)
		}
	}
	// The chain needs decisions, and its cone stays within the core.
	before := s.Stats
	if ok, _, err := s.CheckSatIn(sess, chainPC(b, 8)); err != nil || !ok {
		t.Fatalf("chain: ok=%v err=%v", ok, err)
	}
	d := s.Stats
	if d.SATDecisions == before.SATDecisions {
		t.Fatal("the chain was decided without a decision")
	}
	if cone, core := d.ConeVars-before.ConeVars, d.CoreVars-before.CoreVars; cone > core || cone <= 4 {
		t.Fatalf("chain: cone %d of %d core vars", cone, core)
	}
	if d.SATCalls != 5 {
		t.Fatalf("SATCalls=%d, want 5", d.SATCalls)
	}
}

// TestSessionTwoBuildersCollidingIDs interleaves the queries of two
// builders through one solver, with the model-reuse ring on, and one
// session. The builders build the same shapes in the same order with
// different constants, so nodes with equal IDs mean different things: a
// table keyed by ID that answered for the other builder's node would reuse
// a wrong encoding, activation literal or memoized value. Verdicts must
// equal those of a separate solver and session per builder, and every
// model must satisfy its conjuncts.
func TestSessionTwoBuildersCollidingIDs(t *testing.T) {
	type side struct {
		b    *expr.Builder
		x, y *expr.Expr
		pc   []*expr.Expr
		ref  *Solver
		rs   *Session
	}
	var sides [2]*side
	for k := range sides {
		b := expr.NewBuilder()
		ref := New(DefaultOptions())
		sides[k] = &side{b: b, x: b.Var("x", 8), y: b.Var("y", 8), ref: ref, rs: ref.NewSession()}
	}
	s := New(DefaultOptions())
	sess := s.NewSession()
	rng := rand.New(rand.NewSource(11))
	collided := 0
	for step := 0; step < 300; step++ {
		op := rng.Intn(4)
		consts := [2]uint64{1 + uint64(rng.Intn(254)), 1 + uint64(rng.Intn(254))}
		extend := rng.Intn(3) == 0
		var conds [2]*expr.Expr
		for k, sd := range sides {
			b, c := sd.b, sd.b.Const(consts[k], 8)
			switch op {
			case 0:
				conds[k] = b.Ult(sd.x, c)
			case 1:
				conds[k] = b.Ult(c, b.Add(sd.x, sd.y))
			case 2:
				conds[k] = b.Eq(b.BAnd(sd.y, c), b.BAnd(sd.x, c))
			default:
				conds[k] = b.Ne(b.Sub(sd.y, sd.x), c)
			}
		}
		if conds[0].ID() == conds[1].ID() && consts[0] != consts[1] {
			collided++
		}
		for k, sd := range sides {
			cond := conds[k]
			if cond.IsConst() {
				continue
			}
			q := append(slices.Clone(sd.pc), cond)
			want, _, err := sd.ref.CheckSatIn(sd.rs, q)
			if err != nil {
				t.Fatal(err)
			}
			var got bool
			if step%2 == 0 {
				got, err = s.MayBeTrueIn(sess, sd.pc, cond)
			} else {
				var m Model
				got, m, err = s.CheckSatIn(sess, q)
				if got && !modelSatisfies(m, q) {
					t.Fatalf("step %d, builder %d: model %v violates the query", step, k, m)
				}
			}
			if err != nil || got != want {
				t.Fatalf("step %d, builder %d: sat=%v err=%v, separate solver says %v", step, k, got, err, want)
			}
			if got && extend {
				sd.pc = append(sd.pc, cond)
				sess.NoteConjunct(cond)
			}
		}
	}
	if collided == 0 {
		t.Fatal("no two conditions shared an ID; the test does not exercise collisions")
	}
}
