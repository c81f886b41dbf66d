package search

// Model-based property tests: each strategy is driven with random
// Add/Remove/Pick sequences and compared against a naive reference
// implementation — the pre-optimization eager-splice worklist for DFS/BFS
// and the linear-scan minimum for Topo. The deterministic strategies must
// agree with the reference on every Pick; the randomized ones must satisfy
// the membership contract. Run under -race in CI like the rest of the suite.

import (
	"math/rand"
	"testing"

	"symmerge/internal/core"
)

// refWorklist is the naive order-preserving reference: eager O(n) splice on
// Remove, scan-based Pick. Exactly the semantics the optimized strategies
// must preserve.
type refWorklist struct {
	items []*core.State
	ctx   core.StrategyContext
}

func (r *refWorklist) Add(st *core.State) { r.items = append(r.items, st) }

func (r *refWorklist) Remove(st *core.State) {
	for i, x := range r.items {
		if x == st {
			r.items = append(r.items[:i], r.items[i+1:]...)
			return
		}
	}
}

func (r *refWorklist) Len() int { return len(r.items) }

func (r *refWorklist) PickLIFO() *core.State {
	if len(r.items) == 0 {
		return nil
	}
	return r.items[len(r.items)-1]
}

func (r *refWorklist) PickFIFO() *core.State {
	if len(r.items) == 0 {
		return nil
	}
	return r.items[0]
}

func (r *refWorklist) PickTopo() *core.State {
	if len(r.items) == 0 {
		return nil
	}
	best := r.items[0]
	for _, st := range r.items[1:] {
		if r.ctx.TopoLess(st, best) {
			best = st
		}
	}
	return best
}

// TestRemovePreservesPickOrder is the regression test for the lazy-deletion
// rewrite: removing states from arbitrary positions (as DSM fast-forwarding
// and merging do) must leave the remaining LIFO/FIFO pick order
// intact — a swap-delete would pass the membership contract and still
// corrupt it.
func TestRemovePreservesPickOrder(t *testing.T) {
	states := make([]*core.State, 8)
	for i := range states {
		states[i] = mkState(uint64(i+1), i)
	}
	t.Run("dfs", func(t *testing.T) {
		s := mustNew(t, DFS, &fakeCtx{}, 0)
		for _, st := range states {
			s.Add(st)
		}
		// Remove from the middle and the live end.
		s.Remove(states[3])
		s.Remove(states[7])
		s.Remove(states[5])
		want := []uint64{7, 5, 3, 2, 1} // IDs newest-first, skipping removed
		for _, id := range want {
			got := s.Pick()
			if got == nil || got.ID != id {
				t.Fatalf("Pick = %v, want ID %d", got, id)
			}
			s.Remove(got)
		}
		if s.Pick() != nil {
			t.Fatal("drained worklist still picks")
		}
	})
	t.Run("bfs", func(t *testing.T) {
		s := mustNew(t, BFS, &fakeCtx{}, 0)
		for _, st := range states {
			s.Add(st)
		}
		s.Remove(states[0])
		s.Remove(states[4])
		s.Remove(states[6])
		want := []uint64{2, 3, 4, 6, 8} // IDs oldest-first, skipping removed
		for _, id := range want {
			got := s.Pick()
			if got == nil || got.ID != id {
				t.Fatalf("Pick = %v, want ID %d", got, id)
			}
			s.Remove(got)
		}
		if s.Pick() != nil {
			t.Fatal("drained worklist still picks")
		}
	})
}

// TestStrategyAgainstReference drives every strategy and the reference with
// the same random op sequence. DFS/BFS/Topo must pick exactly what the
// reference picks at every step; Random/Coverage must pick members.
func TestStrategyAgainstReference(t *testing.T) {
	ctx := &fakeCtx{}
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(kind)) * 7919))
			s := mustNew(t, kind, ctx, 3)
			ref := &refWorklist{ctx: ctx}
			member := map[*core.State]bool{}
			var pool []*core.State
			nextID := uint64(1)
			refPick := func() *core.State {
				switch kind {
				case DFS:
					return ref.PickLIFO()
				case BFS:
					return ref.PickFIFO()
				case Topo:
					return ref.PickTopo()
				}
				return nil
			}
			for step := 0; step < 5000; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // add
					st := mkState(nextID, int(rng.Intn(23)))
					nextID++
					pool = append(pool, st)
					s.Add(st)
					ref.Add(st)
					member[st] = true
				case op < 7: // remove (members and non-members alike)
					if len(pool) == 0 {
						continue
					}
					st := pool[rng.Intn(len(pool))]
					s.Remove(st)
					ref.Remove(st)
					delete(member, st)
				default: // pick
					got := s.Pick()
					switch kind {
					case DFS, BFS, Topo:
						if want := refPick(); got != want {
							t.Fatalf("step %d: Pick = %v, reference picks %v", step, got, want)
						}
					default:
						if len(member) == 0 {
							if got != nil {
								t.Fatalf("step %d: Pick on empty returned %v", step, got)
							}
						} else if got == nil || !member[got] {
							t.Fatalf("step %d: Pick returned non-member %v", step, got)
						}
					}
				}
				if s.Len() != ref.Len() {
					t.Fatalf("step %d: Len = %d, reference %d", step, s.Len(), ref.Len())
				}
			}
		})
	}
}
