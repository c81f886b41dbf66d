package solver

// Tests for the incremental session layer: prefix-extension reuse,
// fork-then-diverge correctness against the one-shot solver, and
// unsat-under-assumptions isolation.

import (
	"maps"
	"math/rand"
	"testing"

	"symmerge/internal/expr"
)

// chainPC builds a dependent conjunct chain x0 < x1 < ... < xn over 8-bit
// variables: every prefix is satisfiable for n <= 255, and the shared-
// variable graph is connected, so independence slicing cannot split it.
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
	if got := sess.Conjuncts(); got != len(pc) {
		t.Fatalf("blasted %d conjuncts, want %d (each exactly once)", got, len(pc))
	}
	if s.Stats.SessionQueries != uint64(len(pc)) {
		t.Fatalf("SessionQueries=%d, want %d", s.Stats.SessionQueries, len(pc))
	}
	// Query i reuses i-1 already-blasted conjuncts: sum over i of (i-1).
	wantReuse := uint64(len(pc) * (len(pc) - 1) / 2)
	if s.Stats.SessionBlastReuse != wantReuse {
		t.Fatalf("SessionBlastReuse=%d, want %d", s.Stats.SessionBlastReuse, wantReuse)
	}
	// Re-querying the full prefix must not grow the instance.
	vars := sess.NumVars()
	if ok, _, err := s.CheckSatIn(sess, pc); err != nil || !ok {
		t.Fatalf("repeat query: ok=%v err=%v", ok, err)
	}
	if sess.NumVars() != vars {
		t.Fatalf("repeat query grew the instance: %d -> %d vars", vars, sess.NumVars())
	}
}

func TestSessionForkDiverge(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	oneShot := New(Options{})
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
		wantRes, _, err := oneShot.CheckSat(q)
		if err != nil {
			t.Fatalf("case %d one-shot: %v", i, err)
		}
		if got != wantRes || got != tc.want {
			t.Fatalf("case %d: session=%v one-shot=%v want=%v", i, got, wantRes, tc.want)
		}
		if got && m[x] != tc.pin {
			t.Fatalf("case %d: model x=%d, want %d", i, m[x], tc.pin)
		}
	}
	// Both forks share one blasted set: pc, the two branch conjuncts, and
	// the two pin conjuncts — the pins are hash-consed, so querying x=60
	// on the right fork reuses the left fork's blasting of the same
	// expression. Nothing is blasted twice.
	if got, want := sess.Conjuncts(), len(pc)+2+2; got != want {
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

// TestSessionDifferential drives a session and a fresh one-shot solver
// through random branch sequences and demands identical verdicts — the
// session analogue of quick_test.go's property tests.
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
			want, _, err := New(Options{}).CheckSat(q)
			if err != nil {
				t.Fatalf("trial %d step %d one-shot: %v", trial, step, err)
			}
			if got != want {
				t.Fatalf("trial %d step %d: session=%v one-shot=%v on %v",
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
	sess.SetRebaseLimit(64) // tiny: every few conjuncts trigger a rebuild
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

// TestSessionBypass verifies the routing policy: a query with more than one
// unknown conjunct takes the one-shot path, records the bypass, and syncs
// the conjuncts into the core so the lineage returns to the incremental
// path on its next query.
func TestSessionBypass(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	sess := s.NewSession()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	q := []*expr.Expr{b.Ult(x, b.Const(9, 8)), b.Ult(y, b.Const(9, 8)), b.Ult(x, y)}
	if ok, _, err := s.CheckSatIn(sess, q); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if s.Stats.SessionBypass != 1 || s.Stats.SessionQueries != 0 {
		t.Fatalf("bypass=%d sessionQueries=%d, want 1/0",
			s.Stats.SessionBypass, s.Stats.SessionQueries)
	}
	// The bypass synced the conjuncts, so an extension of the same prefix
	// routes incrementally.
	if sess.Conjuncts() != len(q) {
		t.Fatalf("bypass synced %d conjuncts, want %d", sess.Conjuncts(), len(q))
	}
	ext := append(append([]*expr.Expr{}, q...), b.Ugt(y, x))
	if ok, _, err := s.CheckSatIn(sess, ext); err != nil || !ok {
		t.Fatalf("extension: ok=%v err=%v", ok, err)
	}
	if s.Stats.SessionQueries != 1 || s.Stats.SessionBypass != 1 {
		t.Fatalf("post-sync routing: sessQ=%d bypass=%d, want 1/1",
			s.Stats.SessionQueries, s.Stats.SessionBypass)
	}
}

// TestSessionRebaseRecovery covers the post-rebase trap: after the shared
// core is rebuilt by one lineage's query, other lineages — whose conjuncts
// all vanished from the core — must find their way back to the incremental
// path via the bypass sync instead of bypassing forever.
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
	sess.SetRebaseLimit(1)
	other := sess.Fork()
	y := b.Var("y", 8)
	if ok, _, err := s.CheckSatIn(other, []*expr.Expr{b.Ult(y, b.Const(5, 8))}); err != nil || !ok {
		t.Fatalf("rebasing query: ok=%v err=%v", ok, err)
	}
	if s.Stats.SessionRebases == 0 {
		t.Fatal("rebase did not trigger")
	}
	sess.SetRebaseLimit(1 << 20) // stop rebasing; watch A recover
	rebases := s.Stats.SessionRebases
	// Lineage A queries again: first one bypasses (2 unknown conjuncts)
	// and syncs; the next extension routes incrementally again.
	if ok, _, err := s.CheckSatIn(sess, pcA); err != nil || !ok {
		t.Fatalf("A after rebase: ok=%v err=%v", ok, err)
	}
	if s.Stats.SessionBypass == 0 {
		t.Fatal("post-rebase catch-up query did not record a bypass")
	}
	sessQ := s.Stats.SessionQueries
	ext := append(append([]*expr.Expr{}, pcA...), b.Ult(x, b.Const(100, 8)))
	ok, m, err := s.CheckSatIn(sess, ext)
	if err != nil || !ok {
		t.Fatalf("A extension after recovery: ok=%v err=%v", ok, err)
	}
	if s.Stats.SessionQueries != sessQ+1 {
		t.Fatal("lineage did not return to the session path after bypass sync")
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
			sess.SetRebaseLimit(sess.NumVars()) // the next query rebuilds the core
		}
		if rng.Intn(2) == 0 {
			sess.NoteConjunct(c)
		} else if _, err := s.MayBeTrueIn(sess, pool[:min(len(pool), 2)], c); err != nil {
			t.Fatal(err)
		}
		sess.SetRebaseLimit(defaultRebaseVars)
		pool = append(pool, c)
		for conj, rec := range sess.core.acts {
			want := map[*expr.Expr]bool{}
			conj.Vars(want)
			got := map[*expr.Expr]bool{}
			for _, v := range rec.vars {
				if got[v] {
					t.Fatalf("step %d: variable %s listed twice for %s", step, v, conj)
				}
				got[v] = true
			}
			if !maps.Equal(got, want) {
				t.Fatalf("step %d: variables of %s listed as %v, want %v", step, conj, rec.vars, want)
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
