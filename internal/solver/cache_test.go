package solver

// Tests for the counterexample cache and the model-reuse ring: fingerprint
// keying, collision safety, segment-based eviction, model-aliasing
// defenses, and the ring's per-slot node-value memo.

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"symmerge/internal/expr"
)

// modelSatisfies is the uncached reference check: every conjunct evaluated
// from scratch under m.
func modelSatisfies(m Model, constraints []*expr.Expr) bool {
	env := expr.Env(m)
	for _, c := range constraints {
		if !expr.EvalBool(c, env) {
			return false
		}
	}
	return true
}

func TestCacheCollisionChecked(t *testing.T) {
	c := newCexCache()
	// Two distinct fingerprints forced into the same bucket.
	idsA := []uint64{1, 2, 3}
	idsB := []uint64{4, 5, 6}
	const hash = 42
	c.insert(hash, idsA, true, Model{})
	c.insert(hash, idsB, false, nil)
	if sat, _, ok := c.lookup(hash, idsA, true); !ok || !sat {
		t.Fatalf("A: sat=%v ok=%v", sat, ok)
	}
	if sat, _, ok := c.lookup(hash, idsB, true); !ok || sat {
		t.Fatalf("B: sat=%v ok=%v", sat, ok)
	}
	if _, _, ok := c.lookup(hash, []uint64{7}, true); ok {
		t.Fatal("phantom hit for unseen fingerprint in occupied bucket")
	}
}

func TestCacheSegmentEviction(t *testing.T) {
	c := newCexCache()
	c.setSegCap(4) // rotate every 4 entries entering the current generation
	// Keep every probe in one shard so the per-shard rotation arithmetic
	// below is exact (shardFor stripes on the high hash bits).
	key := func(i uint64) []uint64 { return []uint64{i} }
	for i := uint64(0); i < 6; i++ {
		c.insert(i, key(i), true, nil)
	}
	// Inserts 0..3 filled generation 1 (rotated to old at insert 3);
	// 4..5 live in the current generation. Everything is still visible:
	// no full-reset cliff.
	for i := uint64(0); i < 6; i++ {
		if _, _, ok := c.lookup(i, key(i), true); !ok {
			t.Fatalf("entry %d evicted too early", i)
		}
	}
	if c.Len() > 2*4 {
		t.Fatalf("cache grew past both segments: %d", c.Len())
	}
	// The lookups above promoted 0..3 out of the old generation; after
	// the next rotation (insert 20 tips the refilled current generation)
	// the promoted entries must survive while never-again-touched ones
	// from the dropped generation are gone.
	c.insert(20, key(20), true, nil)
	if _, _, ok := c.lookup(20, key(20), true); !ok {
		t.Fatal("fresh entry 20 missing after rotation")
	}
	survivors, dropped := 0, 0
	for i := uint64(0); i < 6; i++ {
		if _, _, ok := c.lookup(i, key(i), true); ok {
			survivors++
		} else {
			dropped++
		}
	}
	if survivors == 0 {
		t.Fatal("rotation behaved like a full reset: nothing survived")
	}
	if c.Len() > 2*4 {
		t.Fatalf("cache grew past both segments: %d", c.Len())
	}
}

func TestCacheModelAliasing(t *testing.T) {
	b := expr.NewBuilder()
	s := New(DefaultOptions())
	x := b.Var("x", 8)
	q := []*expr.Expr{b.Eq(x, b.Const(9, 8))}
	ok, m1, err := s.CheckSat(q)
	if err != nil || !ok || m1[x] != 9 {
		t.Fatalf("setup: ok=%v err=%v m=%v", ok, err, m1)
	}
	// Corrupt the returned model; the cached copy must be unaffected.
	m1[x] = 77
	y := b.Var("y", 8)
	m1[y] = 1
	ok, m2, err := s.CheckSat(q)
	if err != nil || !ok {
		t.Fatalf("cached: ok=%v err=%v", ok, err)
	}
	if m2[x] != 9 {
		t.Fatalf("cached model corrupted by caller mutation: x=%d", m2[x])
	}
	if _, leaked := m2[y]; leaked {
		t.Fatal("caller-added binding leaked into the cache")
	}
}

func TestRecentModelAliasing(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{EnableModelReuse: true})
	x := b.Var("x", 8)
	if ok, _, _ := s.CheckSat([]*expr.Expr{b.Eq(x, b.Const(9, 8))}); !ok {
		t.Fatal("setup query unsat")
	}
	// Reuse hit hands out a model; mutate it.
	ok, m, _ := s.CheckSat([]*expr.Expr{b.Ugt(x, b.Const(3, 8))})
	if !ok || m[x] != 9 {
		t.Fatalf("reuse: ok=%v m=%v", ok, m)
	}
	m[x] = 0 // would violate x > 3 if retained by the ring
	ok, m2, _ := s.CheckSat([]*expr.Expr{b.Ugt(x, b.Const(4, 8))})
	if !ok || m2[x] != 9 {
		t.Fatalf("ring corrupted by caller mutation: ok=%v m=%v", ok, m2)
	}
}

// TestRecentModelMemoResetOnRefill pins that refilling a ring slot drops
// the node values memoized under the model it evicts: a verdict cached for
// the old model must not answer for the new one.
func TestRecentModelMemoResetOnRefill(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{EnableModelReuse: true})
	x, y := b.Var("x", 8), b.Var("y", 8)
	gt3 := b.Ugt(x, b.Const(3, 8))
	if ok, _, _ := s.CheckSat([]*expr.Expr{b.Eq(x, b.Const(9, 8))}); !ok {
		t.Fatal("setup query unsat")
	}
	// Slot 0 holds x=9 and now memoizes x>3 as true.
	if ok, _, _ := s.CheckSat([]*expr.Expr{gt3}); !ok || s.Stats.ModelReuseHits != 1 {
		t.Fatalf("x>3 not answered by slot 0: ok=%v hits=%d", ok, s.Stats.ModelReuseHits)
	}
	// Eight sat queries no ring model satisfies wrap the ring, leaving
	// slot 0 (refilled last) with x=0.
	zero := b.Eq(x, b.Const(0, 8))
	for i := range len(s.recentModels) {
		if ok, _, _ := s.CheckSat([]*expr.Expr{zero, b.Eq(y, b.Const(uint64(i), 8))}); !ok {
			t.Fatalf("refill %d unsat", i)
		}
	}
	if s.Stats.ModelReuseHits != 1 || s.recentNext != 1 {
		t.Fatalf("refills were not SAT answers: hits=%d next=%d",
			s.Stats.ModelReuseHits, s.recentNext)
	}
	if got := Model(s.recentModels[0].Env)[x]; got != 0 {
		t.Fatalf("slot 0 not refilled: x=%d", got)
	}
	ok, m, err := s.CheckSat([]*expr.Expr{gt3})
	if err != nil || !ok {
		t.Fatalf("x>3: ok=%v err=%v", ok, err)
	}
	if s.Stats.ModelReuseHits != 1 {
		t.Fatalf("x>3 answered from the ring after every slot got x=0 (model %v)", m)
	}
	if m[x] <= 3 {
		t.Fatalf("returned model violates x>3: %v", m)
	}
}

// refRing is the model-reuse layer without memoization: the same 8-slot
// ring scanned in slot order, each model checked by re-evaluating every
// conjunct from scratch.
type refRing struct {
	models [8]Model
	next   int
}

func (r *refRing) try(cs []*expr.Expr) Model {
	for _, m := range r.models {
		if m != nil && modelSatisfies(m, cs) {
			return m
		}
	}
	return nil
}

func (r *refRing) remember(m Model) {
	r.models[r.next] = cloneModel(m)
	r.next = (r.next + 1) % len(r.models)
}

// TestRecentModelsMatchReference drives the memoized ring and the reference
// scan through one random sequence of growing-path-condition queries over
// three 4-bit variables. Every query must agree on hit or miss, verdict,
// returned model, and the running ModelReuseHits count.
func TestRecentModelsMatchReference(t *testing.T) {
	b := expr.NewBuilder()
	rng := rand.New(rand.NewSource(13))
	x, y, z := b.Var("x", 4), b.Var("y", 4), b.Var("z", 4)
	gens := []*exprGen{{rng: rng, b: b, x: x, y: y}, {rng: rng, b: b, x: y, y: z}}
	cond := func() *expr.Expr {
		for {
			if c := gens[rng.Intn(len(gens))].cond(2); !c.IsConst() {
				return c
			}
		}
	}
	memo := New(Options{EnableModelReuse: true})
	plain := New(Options{})
	var ring refRing
	var refHits, satMisses uint64
	var pc []*expr.Expr
	for iter := 0; iter < 250; iter++ {
		q := append(slices.Clone(pc), cond())

		hits0 := memo.Stats.ModelReuseHits
		got, gotM, err := memo.CheckSat(q)
		if err != nil {
			t.Fatal(err)
		}
		gotHit := memo.Stats.ModelReuseHits != hits0

		var want, wantHit bool
		var wantM Model
		if m := ring.try(q); m != nil {
			want, wantM, wantHit = true, cloneModel(m), true
			refHits++
		} else {
			if want, wantM, err = plain.CheckSat(q); err != nil {
				t.Fatal(err)
			}
			if want {
				ring.remember(wantM)
				satMisses++
			}
		}

		if got != want || gotHit != wantHit || !maps.Equal(gotM, wantM) ||
			memo.Stats.ModelReuseHits != refHits {
			t.Fatalf("iter %d: memoized sat=%v hit=%v model=%v hits=%d; reference sat=%v hit=%v model=%v hits=%d",
				iter, got, gotHit, gotM, memo.Stats.ModelReuseHits, want, wantHit, wantM, refHits)
		}
		// Walk like an explorer: extend the path on a feasible branch,
		// backtrack to a shorter prefix now and then.
		switch {
		case want && rng.Intn(3) > 0:
			pc = q
		case rng.Intn(4) == 0:
			pc = pc[:rng.Intn(len(pc)+1)]
		}
	}
	if satMisses <= uint64(len(ring.models)) || refHits == 0 {
		t.Fatalf("sequence too tame: %d SAT-sat answers (ring never wrapped?), %d reuse hits",
			satMisses, refHits)
	}
}

func TestFingerprintCanonical(t *testing.T) {
	b := expr.NewBuilder()
	s := New(Options{})
	x := b.Var("x", 8)
	c1 := b.Ult(x, b.Const(5, 8))
	c2 := b.Ugt(x, b.Const(1, 8))
	h1, ids1 := s.fingerprint([]*expr.Expr{c1, c2})
	ids1 = append([]uint64(nil), ids1...) // scratch: copy before reuse
	h2, ids2 := s.fingerprint([]*expr.Expr{c2, c1, c2})
	if h1 != h2 || !slices.Equal(ids1, ids2) {
		t.Fatalf("order/duplicates changed the fingerprint: %x/%v vs %x/%v",
			h1, ids1, h2, ids2)
	}
	h3, _ := s.fingerprint([]*expr.Expr{c1})
	if h3 == h1 {
		t.Fatal("distinct constraint sets hashed equal (FNV degenerate)")
	}
}
