package solver

// Micro-benchmarks for the bit-blasting frontend and the KLEE-style solver
// optimizations (counterexample cache, independence slicing, model reuse).

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

func BenchmarkCexCacheHitPath(b *testing.B) {
	// Repeated identical queries: after the first call everything is a
	// cache hit, measuring the lookup overhead the engine pays per branch.
	eb := expr.NewBuilder()
	s := New(DefaultOptions())
	cs := addersQuery(eb, 4, 99)
	if ok, _, err := s.CheckSat(cs); err != nil || !ok {
		b.Fatalf("warmup: ok=%v err=%v", ok, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, _ := s.CheckSat(cs); !ok {
			b.Fatal("cached query flipped")
		}
	}
}

// BenchmarkSessionVsOneShot measures the tentpole trade: a state exploring a
// path issues feasibility queries over an ever-growing prefix of dependent
// conjuncts (the engine's MayBeTrue pattern). The one-shot path re-blasts
// the whole prefix per query (O(n²) total encoding work); the session blasts
// each conjunct once and re-solves under assumptions (O(n) encoding work).
// Caches are disabled in both arms so the measurement isolates blasting +
// CDCL, matching the engine reality where every query along a path is
// distinct.
func BenchmarkSessionVsOneShot(b *testing.B) {
	const depth = 24
	eb := expr.NewBuilder()
	vars := make([]*expr.Expr, depth+1)
	for i := range vars {
		vars[i] = eb.Var("p"+string(rune('A'+i/26))+string(rune('a'+i%26)), 8)
	}
	// Dependent chain p0 < p1 < ... — connected, so independence slicing
	// could not split it on the one-shot path either.
	pc := make([]*expr.Expr, depth)
	for i := 0; i < depth; i++ {
		pc[i] = eb.Ult(vars[i], vars[i+1])
	}
	runPath := func(b *testing.B, useSession bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(Options{})
			var sess *Session
			if useSession {
				sess = s.NewSession()
			}
			for k := 1; k <= depth; k++ {
				ok, _, err := s.CheckSatIn(sess, pc[:k])
				if err != nil || !ok {
					b.Fatalf("prefix %d: ok=%v err=%v", k, ok, err)
				}
			}
			if useSession && s.Stats.SessionQueries != depth {
				b.Fatalf("only %d/%d queries took the session path",
					s.Stats.SessionQueries, depth)
			}
		}
	}
	b.Run("one-shot", func(b *testing.B) { runPath(b, false) })
	b.Run("session", func(b *testing.B) { runPath(b, true) })
}

func BenchmarkIndependenceSlicing(b *testing.B) {
	// Many independent conjuncts; slicing should keep per-query SAT
	// instances small even as the path condition grows.
	eb := expr.NewBuilder()
	var cs []*expr.Expr
	for i := 0; i < 24; i++ {
		v := eb.Var("v"+string(rune('a'+i)), 8)
		cs = append(cs, eb.Ult(v, eb.Const(uint64(10+i), 8)))
	}
	for i := 0; i < b.N; i++ {
		s := New(DefaultOptions())
		ok, _, err := s.CheckSat(cs)
		if err != nil || !ok {
			b.Fatalf("sliced query: ok=%v err=%v", ok, err)
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
		if s.Stats.SessionBypass != 0 {
			b.Fatalf("%d queries bypassed the session", s.Stats.SessionBypass)
		}
		vars += s.Stats.SATVars
	}
	b.ReportMetric(float64(vars)/float64(b.N), "vars")
}
