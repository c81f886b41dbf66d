package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"symmerge/internal/expr"
)

// probeMinModel is the reference oracle for MinModelIn: the bit-by-bit
// probe loop it replaced. It fixes the bits of vars one at a time, most
// significant first, asking whether the path condition plus the bounds
// committed so far still allows a 0 there. Every probe consults a sat/unsat
// verdict, so its answer is the lexicographic minimum by construction; it
// costs up to one SAT call per input bit.
func probeMinModel(b *expr.Builder, s *Solver, sess *Session, pc []*expr.Expr, vars []*expr.Expr) (Model, error) {
	sat, m, err := s.checkSatIn(sess, pc, nil, true)
	if err != nil || !sat {
		return nil, err
	}
	// cur accumulates pc plus every committed per-bit bound. m is a witness
	// model for cur throughout: probes only run where m disagrees with the
	// minimal choice, so already-minimal assignments cost zero queries.
	cur := append(make([]*expr.Expr, 0, len(pc)+len(vars)), pc...)
	out := make(Model, len(vars))
	commit := func(c *expr.Expr) {
		cur = append(cur, c)
		sess.NoteConjunct(c)
	}
	for _, v := range vars {
		if v.IsConst() {
			continue
		}
		if v.Width == 0 { // boolean
			val := truncEnv(m, v)
			if val == 0 {
				commit(b.Not(v))
				out[v] = 0
				continue
			}
			ok, m2, err := s.checkSatIn(sess, cur, b.Not(v), true)
			if err != nil {
				return nil, err
			}
			if ok {
				m = m2
				commit(b.Not(v))
				out[v] = 0
			} else {
				commit(v)
				out[v] = 1
			}
			continue
		}
		var val uint64
		for k := int(v.Width) - 1; k >= 0; k-- {
			mask := uint64(1) << uint(k)
			bit := b.BAnd(v, b.Const(mask, v.Width))
			zero := b.Eq(bit, b.Const(0, v.Width))
			if truncEnv(m, v)&mask == 0 {
				// The witness already has this bit low: minimal for free.
				commit(zero)
				continue
			}
			ok, m2, err := s.checkSatIn(sess, cur, zero, true)
			if err != nil {
				return nil, err
			}
			if ok {
				m = m2
				commit(zero)
			} else {
				// Every solution of cur has the bit high.
				commit(b.Eq(bit, b.Const(mask, v.Width)))
				val |= mask
			}
		}
		out[v] = val
	}
	return out, nil
}

// truncEnv reads a variable from a model with the don't-care convention
// (missing variables are zero — see expr.Env), truncated to its width.
func truncEnv(m Model, v *expr.Expr) uint64 {
	val := m[v]
	if v.Width == 0 {
		return val & 1
	}
	if v.Width < 64 {
		return val & ((1 << v.Width) - 1)
	}
	return val
}

// minimize is the test harness: solve pc over vars canonically.
func minimize(t *testing.T, b *expr.Builder, s *Solver, sess *Session, pc, vars []*expr.Expr) Model {
	t.Helper()
	m, err := s.MinModelIn(sess, pc, vars)
	if err != nil {
		t.Fatalf("MinModelIn: %v", err)
	}
	return m
}

func TestMinModelBasics(t *testing.T) {
	b := expr.NewBuilder()
	s := New(DefaultOptions())
	x := b.Var("x", 8)
	y := b.Var("y", 8)

	// Unconstrained variables minimize to zero.
	m := minimize(t, b, s, nil, nil, []*expr.Expr{x, y})
	if m[x] != 0 || m[y] != 0 {
		t.Fatalf("unconstrained: got x=%d y=%d, want 0 0", m[x], m[y])
	}

	// x > 10 (unsigned) has minimum 11.
	pc := []*expr.Expr{b.Ult(b.Const(10, 8), x)}
	m = minimize(t, b, s, nil, pc, []*expr.Expr{x, y})
	if m[x] != 11 || m[y] != 0 {
		t.Fatalf("x>10: got x=%d y=%d, want 11 0", m[x], m[y])
	}

	// Variable order matters: minimizing x first can push y up.
	// x + y == 200 with x <= 150: x minimizes to 50... no wait — x can be 0
	// only if y == 200. Minimizing x first gives x=0, y=200.
	pc = []*expr.Expr{b.Eq(b.Add(x, y), b.Const(200, 8))}
	m = minimize(t, b, s, nil, pc, []*expr.Expr{x, y})
	if m[x] != 0 || m[y] != 200 {
		t.Fatalf("x+y=200 (x first): got x=%d y=%d, want 0 200", m[x], m[y])
	}
	m = minimize(t, b, s, nil, pc, []*expr.Expr{y, x})
	if m[y] != 0 || m[x] != 200 {
		t.Fatalf("x+y=200 (y first): got x=%d y=%d, want 200 0", m[x], m[y])
	}

	// Unsat returns nil without error.
	pc = []*expr.Expr{b.Eq(x, b.Const(1, 8)), b.Eq(x, b.Const(2, 8))}
	if m, err := s.MinModelIn(nil, pc, []*expr.Expr{x}); err != nil || m != nil {
		t.Fatalf("unsat: got model %v err %v, want nil nil", m, err)
	}
}

func TestMinModelBool(t *testing.T) {
	b := expr.NewBuilder()
	s := New(DefaultOptions())
	p := b.Var("p", 0)
	q := b.Var("q", 0)
	pc := []*expr.Expr{b.Or(p, q)} // minimal: p=0, q=1
	m := minimize(t, b, s, nil, pc, []*expr.Expr{p, q})
	if m[p] != 0 || m[q] != 1 {
		t.Fatalf("p∨q: got p=%d q=%d, want 0 1", m[p], m[q])
	}
}

// TestMinModelSessionAgreesWithOneShot pins the determinism claim: the
// canonical model must not depend on whether a warm session (with its
// persistent learned clauses) or a fresh session for one call answers.
func TestMinModelSessionAgreesWithOneShot(t *testing.T) {
	build := func() ([]*expr.Expr, []*expr.Expr) {
		b := expr.NewBuilder()
		vars := make([]*expr.Expr, 6)
		for i := range vars {
			vars[i] = b.Var("v"+string(rune('0'+i)), 8)
		}
		pc := []*expr.Expr{
			b.Ult(b.Const(5, 8), vars[0]),                       // v0 > 5
			b.Eq(b.BAnd(vars[1], b.Const(3, 8)), b.Const(2, 8)), // v1 & 3 == 2
			b.Or(b.Eq(vars[2], b.Const(7, 8)), b.Eq(vars[3], b.Const(9, 8))),
			b.Ule(vars[4], vars[5]),
			b.Ult(b.Const(100, 8), b.Add(vars[4], vars[5])),
		}
		return pc, vars
	}

	pc1, vars1 := build()
	s1 := New(DefaultOptions())
	sess := s1.NewSession()
	// Warm the session with extra history so its internal state differs
	// maximally from a fresh one.
	for _, c := range pc1 {
		sess.NoteConjunct(c)
		if _, err := s1.MayBeTrueIn(sess, pc1[:1], c); err != nil {
			t.Fatal(err)
		}
	}
	mSess, err := s1.MinModelIn(sess, pc1, vars1)
	if err != nil {
		t.Fatal(err)
	}

	pc2, vars2 := build()
	s2 := New(Options{}) // every optimization off, a fresh session per call
	mShot, err := s2.MinModelIn(nil, pc2, vars2)
	if err != nil {
		t.Fatal(err)
	}

	for i := range vars1 {
		if mSess[vars1[i]] != mShot[vars2[i]] {
			t.Fatalf("var %d: warm session got %d, fresh session got %d", i, mSess[vars1[i]], mShot[vars2[i]])
		}
	}
	// And the result is the known lexicographic minimum.
	want := []uint64{6, 2, 0, 9, 0, 101}
	for i, v := range vars1 {
		if mSess[v] != want[i] {
			t.Fatalf("var %d: got %d, want %d", i, mSess[v], want[i])
		}
	}
}

// minGen draws random constraints over fixed variables of widths 0 (bool),
// 1, 4, 8 and 32.
type minGen struct {
	rng   *rand.Rand
	b     *expr.Builder
	bools []*expr.Expr
	bvs   map[uint8][]*expr.Expr
}

var minWidths = []uint8{1, 4, 8, 32}

func newMinGen(seed int64, b *expr.Builder) *minGen {
	g := &minGen{rng: rand.New(rand.NewSource(seed)), b: b, bvs: map[uint8][]*expr.Expr{}}
	for i := 0; i < 2; i++ {
		g.bools = append(g.bools, b.Var(fmt.Sprintf("p%d", i), 0))
		for _, w := range minWidths {
			g.bvs[w] = append(g.bvs[w], b.Var(fmt.Sprintf("v%d_%d", w, i), w))
		}
	}
	return g
}

func (g *minGen) term(w uint8, depth int) *expr.Expr {
	b := g.b
	if depth == 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return b.Const(g.rng.Uint64(), w)
		}
		vs := g.bvs[w]
		return vs[g.rng.Intn(len(vs))]
	}
	l, r := g.term(w, depth-1), g.term(w, depth-1)
	switch g.rng.Intn(8) {
	case 0:
		return b.Add(l, r)
	case 1:
		return b.Sub(l, r)
	case 2:
		return b.BAnd(l, r)
	case 3:
		return b.BOr(l, r)
	case 4:
		return b.BXor(l, r)
	case 5:
		if w <= 8 {
			return b.Mul(l, r)
		}
		return b.ZExt(g.term(8, depth-1), w)
	case 6:
		if w == 8 {
			return b.Extract(g.term(32, depth-1), uint8(8*g.rng.Intn(4)), 8)
		}
		return b.BNot(l)
	default:
		return b.Ite(g.cond(depth-1), l, r)
	}
}

func (g *minGen) cond(depth int) *expr.Expr {
	b := g.b
	switch n := g.rng.Intn(10); {
	case n == 0:
		return g.bools[g.rng.Intn(len(g.bools))]
	case n == 1 && depth > 0:
		return b.Not(g.cond(depth - 1))
	case n == 2 && depth > 0:
		return b.Or(g.cond(depth-1), g.cond(depth-1))
	}
	w := minWidths[g.rng.Intn(len(minWidths))]
	l, r := g.term(w, depth), g.term(w, depth)
	switch g.rng.Intn(5) {
	case 0:
		return b.Eq(l, r)
	case 1:
		return b.Ne(l, r)
	case 2:
		return b.Ult(l, r)
	case 3:
		return b.Slt(l, r)
	default:
		return b.Ule(l, r)
	}
}

func (g *minGen) pc() []*expr.Expr {
	pc := make([]*expr.Expr, 1+g.rng.Intn(4))
	for i := range pc {
		pc[i] = g.cond(2)
	}
	return pc
}

// vars lists every generated variable plus two the constraints never
// mention, in a random order.
func (g *minGen) vars() []*expr.Expr {
	vs := append([]*expr.Expr{g.b.Var("absent8", 8), g.b.Var("absent0", 0)}, g.bools...)
	for _, w := range minWidths {
		vs = append(vs, g.bvs[w]...)
	}
	g.rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// TestMinModelMatchesProbeOracle is the differential test of the ordered
// solve against the probe loop it replaced. The oracle runs on its own
// solver with every fast path off and no session, so it shares no solver
// state with the code under test. MinModelIn runs on one warm session that
// also serves unrelated queries and holds dormant conjuncts, with periodic
// forced rebases; each call must be exactly one session query and one SAT
// call that neither consults nor fills the model-reuse ring.
func TestMinModelMatchesProbeOracle(t *testing.T) {
	b := expr.NewBuilder()
	g := newMinGen(11, b)
	s := New(DefaultOptions())
	ref := New(Options{})
	sess := s.NewSession()

	unsat, sats := 0, 0
	for iter := 0; iter < 300; iter++ {
		// Warm the session: unrelated queries leave learnt clauses and
		// saved phases behind, and noted conjuncts stay dormant.
		for k := g.rng.Intn(3); k > 0; k-- {
			if _, _, err := s.CheckSatIn(sess, g.pc()); err != nil {
				t.Fatal(err)
			}
		}
		sess.NoteConjunct(g.cond(2))
		if iter%25 == 24 {
			sess.core.rebaseVars = sess.core.ss.NumVars() // the next call rebuilds the core
		}
		pc, vars := g.pc(), g.vars()
		switch iter % 20 {
		case 5:
			pc = append(pc, b.False())
		case 6:
			pc = append(pc, b.True())
		case 7:
			x := g.bvs[8][0]
			pc = append(pc, b.Ult(x, b.Const(3, 8)), b.Ugt(x, b.Const(5, 8)))
		case 8:
			pc = append(pc[:0], b.True()) // nothing constrains vars
		}
		want, err := probeMinModel(b, ref, nil, pc, vars)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Stats
		got, err := s.MinModelIn(sess, pc, vars)
		if err != nil {
			t.Fatal(err)
		}
		// Constant folding answers a pc whose conjuncts are all true or
		// one of which is false, without a SAT call.
		wantSAT := uint64(0)
		for _, c := range pc {
			if c.IsFalse() {
				wantSAT = 0
				break
			}
			if !c.IsTrue() {
				wantSAT = 1
			}
		}
		d := s.Stats
		if iter%25 == 24 {
			if wantSAT == 1 && d.SessionRebases == before.SessionRebases {
				t.Fatalf("iter %d: the forced rebase did not happen", iter)
			}
			sess.core.rebaseVars = defaultRebaseVars
		}
		if d.Queries-before.Queries != 1 || d.SATCalls-before.SATCalls != wantSAT ||
			d.ModelReuseHits != before.ModelReuseHits {
			t.Fatalf("iter %d: queries +%d, SAT +%d, reuse +%d; want 1/%d/0",
				iter, d.Queries-before.Queries, d.SATCalls-before.SATCalls,
				d.ModelReuseHits-before.ModelReuseHits, wantSAT)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("iter %d: pc %v: ordered solve sat=%v, oracle sat=%v", iter, pc, got != nil, want != nil)
		}
		if want == nil {
			unsat++
			continue
		}
		sats++
		if len(got) != len(want) {
			t.Fatalf("iter %d: model covers %d vars, oracle %d", iter, len(got), len(want))
		}
		for _, v := range vars {
			if got[v] != want[v] {
				t.Fatalf("iter %d: pc %v: %s = %d, oracle says %d\n got  %v\n want %v",
					iter, pc, v.Name, got[v], want[v], got, want)
			}
		}
	}
	if unsat < 20 || sats < 100 {
		t.Fatalf("degenerate draw: %d sat, %d unsat", sats, unsat)
	}
}

// cksumPCs builds the single-path conditions cksum's canonical tests are
// drawn from at the benchmark's testgen size (one 2-byte argument, one
// stdin byte): argv[1] is not "-q", and the CRC-16 bit loop over the stdin
// byte takes one of its 256 branch patterns, each pinning the byte.
func cksumPCs(b *expr.Builder) (pcs [][]*expr.Expr, vars []*expr.Expr) {
	a0, a1, in := b.Var("arg1_0", 8), b.Var("arg1_1", 8), b.Var("stdin0", 8)
	c32 := func(v uint64) *expr.Expr { return b.Const(v, 32) }
	for taken := 0; taken < 256; taken++ {
		pc := []*expr.Expr{b.Ne(a0, b.Const('-', 8))}
		h := b.BXor(c32(0xffff), b.Shl(b.ZExt(in, 32), c32(8)))
		for k := 0; k < 8; k++ {
			hi := b.Ne(b.BAnd(h, c32(0x8000)), c32(0))
			shifted := b.Shl(h, c32(1))
			if taken>>k&1 == 1 {
				pc = append(pc, hi)
				h = b.BAnd(b.BXor(shifted, c32(0x1021)), c32(0xffff))
			} else {
				pc = append(pc, b.Not(hi))
				h = b.BAnd(shifted, c32(0xffff))
			}
		}
		pc = append(pc, b.Ne(h, c32(0)))
		pcs = append(pcs, pc)
	}
	return pcs, []*expr.Expr{a0, a1, in}
}

// BenchmarkMinModelCanonical times the canonical tests of cksum's path
// family in one session: the ordered solve against the probe-loop oracle.
// satcalls/op counts the SAT calls one pass over the family costs.
func BenchmarkMinModelCanonical(b *testing.B) {
	for _, bc := range []struct {
		name string
		min  func(*expr.Builder, *Solver, *Session, []*expr.Expr, []*expr.Expr) (Model, error)
	}{
		{"ordered", func(_ *expr.Builder, s *Solver, sess *Session, pc, vars []*expr.Expr) (Model, error) {
			return s.MinModelIn(sess, pc, vars)
		}},
		{"probe", probeMinModel},
	} {
		b.Run(bc.name, func(b *testing.B) {
			build := expr.NewBuilder()
			pcs, vars := cksumPCs(build)
			s := New(DefaultOptions())
			sess := s.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, pc := range pcs {
					if m, err := bc.min(build, s, sess, pc, vars); err != nil || m == nil {
						b.Fatalf("cksum path: model %v err %v", m, err)
					}
				}
			}
			b.ReportMetric(float64(s.Stats.SATCalls)/float64(b.N), "satcalls/op")
		})
	}
}
