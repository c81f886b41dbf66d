package solver

// The stable cache layer: a pluggable, builder-independent backend behind
// the counterexample cache, keyed by 128-bit content fingerprints
// (expr.Fingerprinter) instead of builder-local IDs. The in-memory ID cache
// stays the fast path; the stable layer is consulted only on an ID-cache
// miss and answers whole queries across builder rotations and process
// restarts.
//
// The backend interface is defined here — not in internal/store — so the
// solver does not import its own persistence layer; internal/store
// implements StableBackend on top of its segment files.
//
// Soundness: verdicts are persisted only for queries that completed
// (err == nil); budget/timeout unknowns never enter the store. Models
// round-trip by (variable name, width), which identifies a variable in any
// builder. A persisted verdict can therefore only ever substitute for a
// solve that would have returned the same sat/unsat answer — and the
// canonical corpus derives from verdicts alone, so warm stores cannot
// change results, only skip work.

import (
	"sort"

	"symmerge/internal/expr"
)

// StableAssign is one variable binding of a persisted model, identified by
// name and width rather than by node pointer.
type StableAssign struct {
	Name  string `json:"n"`
	Width uint8  `json:"w"`
	Val   uint64 `json:"v,string"`
}

// StableBackend is a persistent verdict store keyed by stable query
// fingerprints. Implementations must be safe for concurrent use.
type StableBackend interface {
	// LookupCex returns the persisted verdict for a query fingerprint.
	LookupCex(fp expr.FP) (sat bool, model []StableAssign, ok bool)
	// InsertCex persists a verdict. Implementations may drop inserts
	// (capacity, shutdown); the layer is an accelerator, not a ledger.
	InsertCex(fp expr.FP, sat bool, model []StableAssign)
}

// AttachStable plugs a persistent backend behind the cache. The
// fingerprinter must be paired with the expression builder shared by every
// solver using this cache (fingerprints memoize by node pointer). Attach
// before the cache is shared with running solvers; the fields are read
// without synchronization afterwards.
func (c *Cache) AttachStable(b StableBackend, f *expr.Fingerprinter) {
	c.stable = b
	c.fper = f
}

// StableHits returns the aggregate count of queries answered by the stable
// backend across all sharing solvers — the daemon's warm-cache counter.
func (c *Cache) StableHits() uint64 { return c.stableHits.Load() }

// stableFP canonicalizes a constraint set into one stable fingerprint.
func (s *Solver) stableFP(constraints []*expr.Expr) expr.FP {
	fps := s.keyFPs[:0]
	for _, c := range constraints {
		fps = append(fps, s.cache.fper.Of(c))
	}
	s.keyFPs = fps
	return expr.CombineFPs(fps)
}

// stableEnabled reports whether the stable layer can serve this solver: a
// backend is attached and the builder is available to materialize models.
func (s *Solver) stableEnabled() bool {
	return s.opts.EnableCexCache && s.cache.stable != nil && s.build != nil
}

// stableLookup consults the persistent backend for a constraint set and
// materializes the model into this solver's builder on a hit.
func (s *Solver) stableLookup(constraints []*expr.Expr) (bool, Model, bool) {
	fp := s.stableFP(constraints)
	sat, assigns, ok := s.cache.stable.LookupCex(fp)
	if !ok {
		return false, nil, false
	}
	s.cache.stableHits.Add(1)
	var m Model
	if sat {
		m = make(Model, len(assigns))
		for _, a := range assigns {
			m[s.build.Var(a.Name, a.Width)] = a.Val
		}
	}
	return sat, m, true
}

// stableInsert persists a completed verdict for a constraint set.
func (s *Solver) stableInsert(constraints []*expr.Expr, sat bool, m Model) {
	fp := s.stableFP(constraints)
	s.cache.stable.InsertCex(fp, sat, stableModel(m))
}

// stableModel serializes a model by (name, width), sorted by name for
// deterministic wire bytes. Non-variable keys (never produced by the
// blaster) are skipped rather than trusted.
func stableModel(m Model) []StableAssign {
	if len(m) == 0 {
		return nil
	}
	out := make([]StableAssign, 0, len(m))
	for v, val := range m {
		if v.Kind != expr.KVar {
			continue
		}
		out = append(out, StableAssign{Name: v.Name, Width: v.Width, Val: val})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Width < out[j].Width
	})
	return out
}
