package solver

// Micro-benchmarks for the bit-blasting frontend and model reuse.

import (
	"slices"
	"testing"

	"symmerge/internal/expr"
)

// addersQuery builds x0 + x1 + ... + x(n-1) == target over 16-bit vars.
func addersQuery(b *expr.Builder, n int, target uint64) []*expr.Expr {
	sum := b.Const(0, 16)
	for i := 0; i < n; i++ {
		sum = b.Add(sum, b.Var("x"+string(rune('a'+i)), 16))
	}
	return []*expr.Expr{b.Eq(sum, b.Const(target, 16))}
}

func BenchmarkBlastAdderChain(b *testing.B) {
	eb := expr.NewBuilder()
	cs := addersQuery(eb, 6, 1234)
	for i := 0; i < b.N; i++ {
		s := New(Options{}) // fresh solver: no caching, pure blast+solve
		ok, _, err := s.CheckSat(cs)
		if err != nil || !ok {
			b.Fatalf("adder chain: ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkBlastIteChain(b *testing.B) {
	// A deep ite chain over one byte — the expression shape state merging
	// produces (the cost QCE exists to predict).
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	v := eb.Const(0, 8)
	for i := 0; i < 48; i++ {
		v = eb.Ite(eb.Eq(x, eb.Const(uint64(i), 8)), eb.Const(uint64(i*3), 8), v)
	}
	cs := []*expr.Expr{eb.Eq(v, eb.Const(60, 8))}
	for i := 0; i < b.N; i++ {
		s := New(Options{})
		ok, _, err := s.CheckSat(cs)
		if err != nil || !ok {
			b.Fatalf("ite chain: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkModelReuseLongPrefix measures the model-reuse fast path on the
// engine's branch-feasibility pattern: a 64-conjunct path condition whose
// conjuncts bound a merged-state ite chain (each one re-reads the whole
// chain below it), plus a fresh tail conjunct per query that seven of the
// eight ring models falsify. Every query is a reuse hit, so no SAT call
// refills the ring during the timed loop.
func BenchmarkModelReuseLongPrefix(b *testing.B) {
	const depth, tails = 64, 1024
	eb := expr.NewBuilder()
	vars := make([]*expr.Expr, 8)
	for i := range vars {
		vars[i] = eb.Var("a"+string(rune('0'+i)), 8)
	}
	pc := make([]*expr.Expr, depth)
	v := eb.Const(0, 8)
	for k := range pc {
		a := vars[k%len(vars)]
		v = eb.Ite(eb.Eq(a, eb.Const(uint64(k), 8)), eb.Add(v, a), v)
		pc[k] = eb.Ule(v, eb.Const(200, 8))
	}
	// Fill the ring: slot j holds a model of the path condition with t=j.
	t := eb.Var("t", 8)
	s := New(DefaultOptions())
	for j := range len(s.recentModels) {
		if ok, err := s.MayBeTrue(pc, eb.Eq(t, eb.Const(uint64(j), 8))); err != nil || !ok {
			b.Fatalf("fill %d: ok=%v err=%v", j, ok, err)
		}
	}
	// Tail i holds only under slot i%8's model (w is unbound, so 0 < i+1).
	w := eb.Var("w", 16)
	tail := make([]*expr.Expr, tails)
	for i := range tail {
		tail[i] = eb.And(eb.Eq(t, eb.Const(uint64(i%8), 8)), eb.Ult(w, eb.Const(uint64(i+1), 16)))
	}
	sat0 := s.Stats.SATCalls
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := s.MayBeTrue(pc, tail[i%tails]); err != nil || !ok {
			b.Fatalf("query %d: ok=%v err=%v", i, ok, err)
		}
	}
	b.StopTimer()
	if s.Stats.SATCalls != sat0 {
		b.Fatalf("%d queries missed the ring", s.Stats.SATCalls-sat0)
	}
}

// BenchmarkBlastTrialDivision runs factor's trial-division queries in one
// session, as the engine issues them: n is the parsed operand reduced
// mod 32, and for each constant divisor p the loop asks whether p can
// divide n, whether it can divide the quotient n sdiv p again, and then
// follows the branch where p does not divide n. Every divisor is a
// constant, so the divider encodings dominate; vars reports the CNF
// variables blasted per op.
func BenchmarkBlastTrialDivision(b *testing.B) {
	const maxP = 13
	eb := expr.NewBuilder()
	k := func(v uint64) *expr.Expr { return eb.Const(v, 32) }
	n := eb.SRem(eb.Var("arg", 32), k(32))
	var vars uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(Options{})
		sess := s.NewSession()
		pc := []*expr.Expr{eb.Sle(k(2), n)}
		sess.NoteConjunct(pc[0])
		for p := uint64(2); p <= maxP; p++ {
			divides := eb.Eq(eb.SRem(n, k(p)), k(0))
			again := eb.Eq(eb.SRem(eb.SDiv(n, k(p)), k(p)), k(0))
			if _, err := s.MayBeTrueIn(sess, pc, divides); err != nil {
				b.Fatal(err)
			}
			if _, err := s.MayBeTrueIn(sess, append(slices.Clip(pc), divides), again); err != nil {
				b.Fatal(err)
			}
			pc = append(pc, eb.Not(divides))
			sess.NoteConjunct(pc[len(pc)-1])
		}
		if ok, err := s.MayBeTrueIn(sess, pc[:len(pc)-1], pc[len(pc)-1]); err != nil || !ok {
			b.Fatalf("final path: ok=%v err=%v", ok, err)
		}
		vars += s.Stats.SATVars
	}
	b.ReportMetric(float64(vars)/float64(b.N), "vars")
}

// BenchmarkSessionDormantCore times one fixed query against a session core
// that also holds 0, 200 or 2,000 dormant conjuncts over other variables.
// A solve decides and propagates only the query's cone, so the time per
// query should barely grow with the dormant part; a search over the whole
// core would assign every dormant circuit on every call.
func BenchmarkSessionDormantCore(b *testing.B) {
	for _, n := range []int{0, 200, 2000} {
		b.Run("dormant="+itoa(n), func(b *testing.B) {
			eb := expr.NewBuilder()
			s := New(Options{}) // no model reuse: every query is a SAT call
			sess := s.NewSession()
			ws := make([]*expr.Expr, 16)
			for i := range ws {
				ws[i] = eb.Var("w"+itoa(i), 8)
			}
			for i := 0; i < n; i++ {
				sess.NoteConjunct(eb.Ne(eb.Add(ws[i%16], eb.Const(uint64(i), 8)), ws[(i+1)%16]))
			}
			x, y := eb.Var("x", 8), eb.Var("y", 8)
			q := []*expr.Expr{
				eb.Eq(eb.Add(x, y), eb.Const(100, 8)),
				eb.Ult(x, y),
				eb.Ult(y, eb.Const(90, 8)),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, _, err := s.CheckSatIn(sess, q); err != nil || !ok {
					b.Fatalf("query: ok=%v err=%v", ok, err)
				}
			}
			b.ReportMetric(float64(sess.core.ss.NumVars()), "corevars")
		})
	}
}
