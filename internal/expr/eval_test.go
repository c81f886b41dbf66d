package expr

// Tests of the evaluator's reusable memo (NodeMap): a Reset never lets a
// value computed under one environment answer under the next, also when
// the epoch counter wraps around, and nodes of two builders whose IDs
// coincide each get their own value.

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// sharedDAG builds a boolean DAG over x and y whose subterms are shared:
// a merged ite chain selecting on x, and comparisons over it and y.
func sharedDAG(b *Builder, x, y *Expr) *Expr {
	v := b.Const(0, 8)
	for k := uint64(0); k < 12; k++ {
		v = b.Ite(b.Eq(x, b.Const(k, 8)), b.Add(v, y), b.Sub(v, b.Const(k+1, 8)))
	}
	return b.Or(b.Ult(v, y), b.And(b.Eq(b.BAnd(v, x), y), b.Ule(x, v)))
}

// freshEval is the oracle: a new evaluator has nothing memoized.
func freshEval(e *Expr, env Env) uint64 {
	ev := Evaluator{Env: env}
	return ev.Eval(e)
}

func TestEvaluatorResetForgetsEarlierEnvironments(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	root := sharedDAG(b, x, y)
	// Every subterm, so that each node is read back after Reset.
	var nodes []*Expr
	seen := map[*Expr]bool{}
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if seen[e] {
			return
		}
		seen[e] = true
		for _, k := range e.Kids {
			walk(k)
		}
		nodes = append(nodes, e)
	}
	walk(root)

	rng := rand.New(rand.NewSource(1))
	randEnv := func() Env { return Env{x: uint64(rng.Intn(16)), y: uint64(rng.Intn(256))} }
	// check evaluates every node under env, in a random order, so that some
	// nodes are first read from the memo an earlier node's walk filled and
	// others are walked anew.
	check := func(ev *Evaluator, env Env, step int) {
		for _, i := range rng.Perm(len(nodes)) {
			if got, want := ev.Eval(nodes[i]), freshEval(nodes[i], env); got != want {
				t.Fatalf("step %d (epoch %d): node %d (%s) = %d under %v, want %d", step, ev.memo.epoch, nodes[i].ID(), nodes[i].Kind, got, env, want)
			}
		}
	}
	var ev Evaluator
	for step := 0; step < 200; step++ {
		env := randEnv()
		ev.Reset(env)
		check(&ev, env, step)
	}

	// Across the wrap-around: the slots written at epoch 1 must not count
	// when the counter comes back to 1.
	var wrap Evaluator
	env := randEnv()
	wrap.Reset(env)
	check(&wrap, env, 0)
	wrap.memo.epoch = math.MaxUint32 - 2
	for step := 1; step <= 8; step++ {
		env := randEnv()
		wrap.Reset(env)
		if step >= 3 {
			check(&wrap, env, step)
		}
	}
	if wrap.memo.epoch > 8 {
		t.Fatalf("epoch %d: the counter did not wrap", wrap.memo.epoch)
	}
}

// twin builds the same shape in a fresh builder with its own constant, so
// nodes of two twins share IDs but not values.
func twin(c uint64) (x, e *Expr) {
	b := NewBuilder()
	x = b.Var("x", 8)
	return x, b.Ite(b.Ult(x, b.Const(c, 8)), b.Add(x, b.Const(c, 8)), b.Mul(x, b.Const(c, 8)))
}

func TestEvaluatorTwoBuildersCollidingIDs(t *testing.T) {
	x1, e1 := twin(100)
	x2, e2 := twin(7)
	if e1.ID() != e2.ID() || x1.ID() != x2.ID() {
		t.Fatalf("twins have IDs %d/%d and %d/%d; the test needs them equal", x1.ID(), e1.ID(), x2.ID(), e2.ID())
	}
	env := Env{x1: 50, x2: 50}
	want1, want2 := freshEval(e1, env), freshEval(e2, env)
	if want1 == want2 {
		t.Fatalf("twins evaluate alike (%d); the test needs them apart", want1)
	}
	var ev Evaluator
	ev.Reset(env)
	for i := 0; i < 4; i++ {
		if got := ev.Eval(e1); got != want1 {
			t.Fatalf("round %d: builder 1's node = %d, want %d", i, got, want1)
		}
		if got := ev.Eval(e2); got != want2 {
			t.Fatalf("round %d: builder 2's node = %d, want %d", i, got, want2)
		}
		// Back to builder 1 below the node evaluated first: the memo now
		// holds builder 2's values under the same IDs.
		if got := ev.Eval(e1.Kids[1]); got != freshEval(e1.Kids[1], env) {
			t.Fatalf("round %d: builder 1's kid = %d", i, got)
		}
	}
}

func TestNodeMapRefusesForeignNodes(t *testing.T) {
	x1, e1 := twin(100)
	x2, e2 := twin(7)
	var m NodeMap[int]
	m.Put(e1, 1)
	if _, ok := m.Get(e2); ok {
		t.Fatal("a node of another builder with the same ID was found")
	}
	if m.Accepts(x2) || !m.Accepts(x1) {
		t.Fatal("Accepts does not follow the bound builder")
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "bound to builder") {
				t.Fatalf("Put of a foreign node: recovered %v, want a panic naming it", r)
			}
		}()
		m.Put(e2, 2)
	}()
	m.Clear()
	if !m.Accepts(x2) || m.Len() != 0 {
		t.Fatalf("after Clear: accepts %v, %d entries", m.Accepts(x2), m.Len())
	}
	m.Put(e2, 2)
	if v, ok := m.Get(e2); !ok || v != 2 || m.Len() != 1 {
		t.Fatalf("after rebinding: %d %v, %d entries", v, ok, m.Len())
	}
	// The builder refuses operands of another builder by name.
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "another builder") {
			t.Fatalf("mixing builders: recovered %v, want a panic", r)
		}
	}()
	b := NewBuilder()
	b.Add(b.Var("x", 8), x1)
}

// TestNodeMapGrowthIsLogarithmic pins that a NodeMap filled in ID order up
// to n IDs allocates O(log n) times: its slots grow by doubling.
func TestNodeMapGrowthIsLogarithmic(t *testing.T) {
	const n = 1 << 14
	b := NewBuilder()
	nodes := make([]*Expr, n)
	for i := range nodes {
		nodes[i] = b.Const(uint64(i), 32)
	}
	allocs := testing.AllocsPerRun(10, func() {
		var m NodeMap[int32]
		for i, e := range nodes {
			m.Put(e, int32(i))
		}
	})
	if limit := bits.Len(n) + 1; allocs > float64(limit) {
		t.Errorf("filling a NodeMap to %d IDs allocates %v times, want at most %d", n, allocs, limit)
	}
}
