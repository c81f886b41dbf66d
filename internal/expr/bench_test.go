package expr

// Micro-benchmarks for the hash-consed expression layer: construction with
// consing hits, constant folding, and evaluation — the per-instruction costs
// of the engine's hot loop.

import "testing"

func BenchmarkBuilderConsHit(b *testing.B) {
	bld := NewBuilder()
	x := bld.Var("x", 32)
	y := bld.Var("y", 32)
	first := bld.Add(bld.Mul(x, y), bld.Const(7, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bld.Add(bld.Mul(x, y), bld.Const(7, 32)) != first {
			b.Fatal("hash consing missed")
		}
	}
}

func BenchmarkConstFold(b *testing.B) {
	bld := NewBuilder()
	for i := 0; i < b.N; i++ {
		// Varying constants defeat the cons cache, so every iteration
		// exercises the folding path itself.
		c := bld.Const(uint64(i)&0xffff, 32)
		v := bld.Mul(bld.Add(c, bld.Const(3, 32)), bld.Const(5, 32))
		if !v.IsConst() {
			b.Fatal("constant expression did not fold")
		}
	}
}

func BenchmarkEvalDeepTree(b *testing.B) {
	bld := NewBuilder()
	x := bld.Var("x", 32)
	e := x
	for i := 0; i < 64; i++ {
		e = bld.Add(bld.Mul(e, bld.Const(3, 32)), x)
	}
	env := Env{x: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Eval(e, env)
	}
}

func BenchmarkIteChainBuild(b *testing.B) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := bld.Const(0, 8)
		for k := 0; k < 32; k++ {
			v = bld.Ite(bld.Eq(x, bld.Const(uint64(k), 8)),
				bld.Const(uint64(k+i)&0xff, 8), v)
		}
	}
}

var witnessHeld int

// BenchmarkWitnessCheck is a shadow split's witness check: a branch
// condition over a merged ite chain, evaluated under a new witness model
// every iteration by one evaluator reset per witness. The memo is warmed
// before timing, so a reset evaluator should allocate nothing.
func BenchmarkWitnessCheck(b *testing.B) {
	bld := NewBuilder()
	xs := make([]*Expr, 8)
	for i := range xs {
		xs[i] = bld.Var("in"+string(rune('0'+i)), 8)
	}
	// 64 merges, each selecting on a guard over one input byte.
	v := bld.Const(0, 8)
	for k := range 64 {
		x := xs[k%len(xs)]
		v = bld.Ite(bld.Eq(x, bld.Const(uint64(k), 8)), bld.Add(v, x), v)
	}
	cond := bld.Ult(v, bld.Const(200, 8))
	envs := make([]Env, 16)
	for i := range envs {
		envs[i] = Env{}
		for j, x := range xs {
			envs[i][x] = uint64(i*8+j) & 0x3f
		}
	}
	var ev Evaluator
	ev.Reset(envs[0])
	ev.Bool(cond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset(envs[i%len(envs)])
		if ev.Bool(cond) {
			witnessHeld++
		}
	}
}
