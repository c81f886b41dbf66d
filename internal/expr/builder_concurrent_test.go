package expr

// Concurrency tests for the hash-consing builder: under `go test
// -race` these prove the interning discipline that makes a Builder safe
// for concurrent use.

import (
	"sync"
	"testing"
)

// TestBuilderConcurrentInterning has several goroutines construct the same
// expression DAG. Hash-consing must stay canonical across goroutines: every
// goroutine must end up with pointer-identical roots, and the node count
// must reflect one copy of the structure, not one per goroutine.
func TestBuilderConcurrentInterning(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)

	build := func() *Expr {
		// A moderately deep DAG exercising folding, canonical ordering,
		// and several shards.
		e := b.Add(x, y)
		for i := 0; i < 200; i++ {
			e = b.Add(b.Mul(e, b.Const(uint64(i%7+1), 32)), y)
			e = b.Ite(b.Ult(e, b.Const(uint64(i+1), 32)), e, x)
		}
		return e
	}

	const goroutines = 8
	roots := make([]*Expr, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			roots[g] = build()
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if roots[g] != roots[0] {
			t.Fatalf("goroutine %d interned a distinct root for identical structure", g)
		}
	}
	// One goroutine alone creates some N nodes; concurrent duplicates would
	// multiply that. Allow slack for transient interleavings (none expected
	// for identical structure, but the bound is what matters).
	single := NewBuilder()
	sx, sy := single.Var("x", 32), single.Var("y", 32)
	e := single.Add(sx, sy)
	for i := 0; i < 200; i++ {
		e = single.Add(single.Mul(e, single.Const(uint64(i%7+1), 32)), sy)
		e = single.Ite(single.Ult(e, single.Const(uint64(i+1), 32)), e, sx)
	}
	if got, want := b.Stats.Nodes.Load(), single.Stats.Nodes.Load(); got != want {
		t.Fatalf("concurrent interning created %d nodes, single-threaded baseline %d", got, want)
	}
}

// TestBuilderConcurrentDistinct has goroutines build disjoint expression
// families concurrently; IDs must stay unique and every family must remain
// internally canonical.
func TestBuilderConcurrentDistinct(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	const goroutines = 8
	var wg sync.WaitGroup
	ids := make([]map[uint64]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := map[uint64]bool{}
			v := b.Var(string(rune('a'+g)), 8)
			for i := 0; i < 500; i++ {
				e := b.Add(v, b.Const(uint64(i), 8))
				seen[e.ID()] = true
			}
			ids[g] = seen
		}(g)
	}
	wg.Wait()
	all := map[uint64]int{}
	for g, seen := range ids {
		for id := range seen {
			if prev, dup := all[id]; dup {
				t.Fatalf("node ID %d produced by goroutines %d and %d for distinct structures", id, prev, g)
			}
			all[id] = g
		}
	}
}
