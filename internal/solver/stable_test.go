package solver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"symmerge/internal/expr"
)

// memBackend is a map-backed StableBackend for tests.
type memBackend struct {
	mu      sync.Mutex
	entries map[expr.FP]memEntry
	inserts int
}

type memEntry struct {
	sat   bool
	model []StableAssign
}

func newMemBackend() *memBackend { return &memBackend{entries: map[expr.FP]memEntry{}} }

func (b *memBackend) LookupCex(fp expr.FP) (bool, []StableAssign, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fp]
	return e.sat, e.model, ok
}

func (b *memBackend) InsertCex(fp expr.FP, sat bool, model []StableAssign) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inserts++
	b.entries[fp] = memEntry{sat: sat, model: model}
}

// domainSolver builds a (builder, cache-with-stable-backend, solver) triple
// the way symx.Domain wires them.
func domainSolver(back StableBackend) (*expr.Builder, *Solver) {
	b := expr.NewBuilder()
	c := NewSharedCache()
	c.AttachStable(back, &expr.Fingerprinter{})
	opts := DefaultOptions()
	opts.SharedCache = c
	s := New(opts)
	s.AttachBuilder(b)
	return b, s
}

// queries issues a fixed mixed workload (sat with model, unsat, and a set
// of variable-disjoint conjuncts) and returns the verdicts observed.
func queries(t *testing.T, b *expr.Builder, s *Solver) []bool {
	t.Helper()
	x, y := b.Var("x", 8), b.Var("y", 8)
	sets := [][]*expr.Expr{
		{b.Eq(b.Add(x, b.Const(1, 8)), b.Const(5, 8))},
		{b.Ult(x, b.Const(3, 8)), b.Ugt(x, b.Const(5, 8))},
		// Variable-disjoint conjuncts: one over x, one over y.
		{b.Ugt(x, b.Const(200, 8)), b.Eq(b.Mul(y, b.Const(3, 8)), b.Const(33, 8))},
	}
	var out []bool
	for _, set := range sets {
		ok, m, err := s.CheckSat(set)
		if err != nil {
			t.Fatalf("CheckSat: %v", err)
		}
		if ok && !modelSatisfies(m, set) {
			t.Fatalf("returned model does not satisfy the constraints: %v", m)
		}
		out = append(out, ok)
	}
	return out
}

func TestStableBackendWarmHit(t *testing.T) {
	back := newMemBackend()

	bCold, sCold := domainSolver(back)
	cold := queries(t, bCold, sCold)
	if sCold.Stats.StableHits != 0 {
		t.Fatalf("cold run claims %d stable hits", sCold.Stats.StableHits)
	}
	if back.inserts == 0 {
		t.Fatal("cold run persisted nothing")
	}

	// Fresh builder + fresh ID cache, same backend: the warm "process".
	bWarm, sWarm := domainSolver(back)
	warm := queries(t, bWarm, sWarm)
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("query %d: cold verdict %v, warm verdict %v", i, cold[i], warm[i])
		}
	}
	if sWarm.Stats.StableHits == 0 {
		t.Fatalf("warm run hit the stable layer 0 times (SAT calls: %d)", sWarm.Stats.SATCalls)
	}
	if sWarm.Stats.SATCalls >= sCold.Stats.SATCalls {
		t.Errorf("warm run did not save SAT calls: cold %d, warm %d",
			sCold.Stats.SATCalls, sWarm.Stats.SATCalls)
	}
}

func TestStableNeverPersistsBudgetVerdicts(t *testing.T) {
	back := newMemBackend()
	b := expr.NewBuilder()
	c := NewSharedCache()
	c.AttachStable(back, &expr.Fingerprinter{})
	opts := DefaultOptions()
	opts.SharedCache = c
	s := New(opts)
	s.AttachBuilder(b)
	s.SetDeadline(time.Now().Add(-time.Second)) // every SAT call times out

	// Pigeonhole (6 pigeons, 5 holes): unsat, and hard enough that CDCL
	// reaches its first restart — where the expired deadline is checked —
	// before settling.
	var vars, cs []*expr.Expr
	for i := 0; i <= 5; i++ {
		vars = append(vars, b.Var(fmt.Sprintf("p%d", i), 8))
		cs = append(cs, b.Ult(vars[i], b.Const(5, 8)))
	}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			cs = append(cs, b.Not(b.Eq(vars[i], vars[j])))
		}
	}
	_, _, err := s.CheckSat(cs)
	if err == nil {
		t.Fatal("expired deadline did not produce a budget error")
	}
	if back.inserts != 0 {
		t.Fatalf("budget-limited verdict was persisted (%d inserts)", back.inserts)
	}
}
