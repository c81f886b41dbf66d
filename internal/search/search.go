// Package search provides the exploration strategies ("pickNext" in the
// paper's Algorithm 1) that drive the symbolic execution engine: DFS, BFS,
// seeded random search, a coverage-optimized heuristic in the spirit of
// KLEE's covnew, and the CFG-topological order used by static state merging.
//
// Dynamic state merging itself is not a strategy here: following Algorithm 2
// it is a layer inside the engine that overrides whatever driving strategy
// is configured whenever the fast-forwarding set is non-empty.
package search

import (
	"fmt"
	"math/rand"

	"symmerge/internal/core"
)

// Kind names a strategy.
type Kind string

// Strategy kinds.
const (
	DFS      Kind = "dfs"
	BFS      Kind = "bfs"
	Random   Kind = "random"
	Coverage Kind = "coverage"
	Topo     Kind = "topo" // CFG topological order (for SSM)
)

// Kinds lists every valid strategy kind.
func Kinds() []Kind { return []Kind{DFS, BFS, Random, Coverage, Topo} }

// Validate reports whether kind names a known strategy. The empty kind is
// invalid too: defaulting is the caller's decision (symx resolves it from
// the merge mode), not this package's.
func Validate(kind Kind) error {
	for _, k := range Kinds() {
		if kind == k {
			return nil
		}
	}
	return fmt.Errorf("search: unknown strategy %q (valid: dfs, bfs, random, coverage, topo)", kind)
}

// New builds a strategy. ctx is the engine (its StrategyContext view); seed
// feeds the deterministic RNG of the randomized strategies. An unknown kind
// is an error — a silent fallback would explore under a different strategy
// than the one the caller (and any corpus manifest recording the
// configuration) believes it asked for.
func New(kind Kind, ctx core.StrategyContext, seed int64) (core.Strategy, error) {
	switch kind {
	case DFS:
		return newStackStrategy(true), nil
	case BFS:
		return newStackStrategy(false), nil
	case Random:
		return &randomStrategy{rng: rand.New(rand.NewSource(seed)), pos: map[*core.State]int{}}, nil
	case Coverage:
		return &coverageStrategy{
			ctx: ctx,
			rng: rand.New(rand.NewSource(seed)),
			pos: map[*core.State]int{},
		}, nil
	case Topo:
		return &topoStrategy{ctx: ctx, pos: map[*core.State]int{}}, nil
	default:
		return nil, Validate(kind)
	}
}

// --- DFS / BFS ---

// stackStrategy explores newest-first (DFS) or oldest-first (BFS).
//
// Removal is order-preserving lazy deletion: the engine removes a state on
// every scheduler step (and DSM's fast-forwarding and merging remove states
// from arbitrary positions), so an eager O(n) splice — or a
// swap-delete, which would silently corrupt LIFO/FIFO order — made stepping
// quadratic on large worklists. Instead, an index map locates the slot, the
// slot becomes a tombstone (nil), and Pick skips and trims tombstones at the
// live end; a full order-preserving compaction runs when tombstones outnumber
// live states. Every operation is amortized O(1).
type stackStrategy struct {
	lifo  bool
	items []*core.State       // insertion order; nil slots are tombstones
	pos   map[*core.State]int // state -> index in items
	head  int                 // first slot that may be live (FIFO end)
	dead  int                 // tombstones in items[head:]
}

func newStackStrategy(lifo bool) *stackStrategy {
	return &stackStrategy{lifo: lifo, pos: map[*core.State]int{}}
}

func (s *stackStrategy) Add(st *core.State) {
	s.pos[st] = len(s.items)
	s.items = append(s.items, st)
}

func (s *stackStrategy) Remove(st *core.State) {
	i, ok := s.pos[st]
	if !ok {
		return
	}
	delete(s.pos, st)
	s.items[i] = nil
	s.dead++
}

func (s *stackStrategy) Pick() *core.State {
	// Trim tombstones at the picking end so the scan below is amortized
	// O(1): every trimmed slot was tombstoned by exactly one Remove.
	if s.lifo {
		for n := len(s.items); n > s.head && s.items[n-1] == nil; n = len(s.items) {
			s.items = s.items[:n-1]
			s.dead--
		}
		if len(s.items) == s.head {
			return nil
		}
		s.compactIfStale()
		return s.items[len(s.items)-1]
	}
	for s.head < len(s.items) && s.items[s.head] == nil {
		s.head++
		s.dead--
	}
	if s.head == len(s.items) {
		return nil
	}
	s.compactIfStale()
	return s.items[s.head]
}

// compactIfStale rebuilds the slice in order once tombstones dominate,
// bounding memory at O(live) without disturbing LIFO/FIFO order.
func (s *stackStrategy) compactIfStale() {
	if s.dead <= len(s.pos) {
		return
	}
	live := s.items[:0]
	for _, st := range s.items[s.head:] {
		if st != nil {
			s.pos[st] = len(live)
			live = append(live, st)
		}
	}
	s.items = live
	s.head = 0
	s.dead = 0
}

func (s *stackStrategy) Len() int { return len(s.pos) }

// --- Random ---

// randomStrategy picks uniformly at random with a deterministic seed
// (KLEE's random-state search, used by the paper for complete explorations).
type randomStrategy struct {
	rng   *rand.Rand
	items []*core.State
	pos   map[*core.State]int
}

func (s *randomStrategy) Add(st *core.State) {
	s.pos[st] = len(s.items)
	s.items = append(s.items, st)
}

func (s *randomStrategy) Remove(st *core.State) {
	i, ok := s.pos[st]
	if !ok {
		return
	}
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.pos[s.items[i]] = i
	s.items = s.items[:last]
	delete(s.pos, st)
}

func (s *randomStrategy) Pick() *core.State {
	if len(s.items) == 0 {
		return nil
	}
	return s.items[s.rng.Intn(len(s.items))]
}

func (s *randomStrategy) Len() int { return len(s.items) }

// --- Coverage-optimized ---

// coverageStrategy prioritizes states whose next instruction is uncovered
// (KLEE's coverage-optimized search [6], simplified): uncovered-next states
// are picked first (round-robin among them); otherwise a uniformly random
// state, biasing exploration toward new code instead of deeper loop
// unrollings (paper §2.2, §5.5).
type coverageStrategy struct {
	ctx   core.StrategyContext
	rng   *rand.Rand
	items []*core.State
	pos   map[*core.State]int
}

func (s *coverageStrategy) Add(st *core.State) {
	s.pos[st] = len(s.items)
	s.items = append(s.items, st)
}

func (s *coverageStrategy) Remove(st *core.State) {
	i, ok := s.pos[st]
	if !ok {
		return
	}
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.pos[s.items[i]] = i
	s.items = s.items[:last]
	delete(s.pos, st)
}

func (s *coverageStrategy) Pick() *core.State {
	if len(s.items) == 0 {
		return nil
	}
	// Prefer a state sitting at uncovered code; sample a bounded number
	// of random probes so Pick stays O(1)-ish on huge worklists.
	probes := len(s.items)
	if probes > 64 {
		probes = 64
	}
	start := s.rng.Intn(len(s.items))
	for k := 0; k < probes; k++ {
		st := s.items[(start+k)%len(s.items)]
		if !s.ctx.IsCovered(st.Loc()) {
			return st
		}
	}
	return s.items[s.rng.Intn(len(s.items))]
}

func (s *coverageStrategy) Len() int { return len(s.items) }

// --- Topological (SSM) ---

// topoStrategy always picks the topologically earliest state, realizing the
// exploration order of static state merging: all predecessors of a join
// point execute before any state at the join point, maximizing merge
// opportunities (paper §2.2 "static state merging", §5.4).
//
// The worklist is a binary min-heap ordered by the engine's topological rank
// (core.StrategyContext.TopoLess, a total order — ties break on state ID), with
// an index map for O(log n) removal of arbitrary states. The previous
// linear-scan Pick made SSM exploration O(n²) in the worklist size; the heap
// picks the same state — the unique TopoLess-minimum — in O(1), so corpus
// digests and exploration orders are unchanged. States are immutable while
// queued (the engine removes a state before stepping it), so heap keys never
// rot.
type topoStrategy struct {
	ctx   core.StrategyContext
	items []*core.State       // binary min-heap under ctx.TopoLess
	pos   map[*core.State]int // state -> heap index
}

func (s *topoStrategy) less(i, j int) bool { return s.ctx.TopoLess(s.items[i], s.items[j]) }

func (s *topoStrategy) swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.pos[s.items[i]] = i
	s.pos[s.items[j]] = j
}

func (s *topoStrategy) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *topoStrategy) down(i int) {
	n := len(s.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
	}
}

func (s *topoStrategy) Add(st *core.State) {
	s.pos[st] = len(s.items)
	s.items = append(s.items, st)
	s.up(len(s.items) - 1)
}

func (s *topoStrategy) Remove(st *core.State) {
	i, ok := s.pos[st]
	if !ok {
		return
	}
	last := len(s.items) - 1
	s.swap(i, last)
	s.items = s.items[:last]
	delete(s.pos, st)
	if i < last {
		s.down(i)
		s.up(i)
	}
}

func (s *topoStrategy) Pick() *core.State {
	if len(s.items) == 0 {
		return nil
	}
	return s.items[0]
}

func (s *topoStrategy) Len() int { return len(s.items) }
