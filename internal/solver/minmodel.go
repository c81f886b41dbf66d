package solver

// Canonical model extraction for replayable test generation.
//
// A plain GetModel answer depends on solver internals — clause order, the
// model-reuse ring's contents, learned clauses inherited from earlier
// queries — none of which is stable across search strategies, merging
// regimes, or a checkpoint resume. The corpus subsystem (internal/corpus) needs the
// *same* concrete input for the same path no matter how the exploration was
// scheduled, so test files stay byte-identical across runs and deduplication
// is meaningful. MinModelIn delivers that: it fixes the given variables, in
// the caller's order, to the lexicographically smallest satisfying
// assignment (bit by bit, most significant first, preferring 0), in one
// ordered SAT call whose search decides those bits first, in that order, at
// value 0 (see sat.Solver.SolvePrefer; the cone-restricted SolveCone a
// session runs decides preferred literals the same way). Whatever the
// session has learned, every bit the search could not set to 0 was forced
// by the path condition and the smaller bits before it, so the result
// depends only on the *semantics* of the constraint set and the variable
// order, never on the solver's history.

import (
	"symmerge/internal/expr"
	"symmerge/internal/obs"
)

// MinModelIn returns the lexicographically minimal satisfying assignment of
// pc over vars (in the given order; bits compared most significant first),
// or nil when pc is unsatisfiable. Variables of width 0 are booleans.
// Constant entries in vars are skipped. The answer is one session query:
// pc's conjuncts join the session (a nil session stands for a fresh one
// used for this call only) and one ordered SAT call decides them; the
// model-reuse ring is neither consulted nor filled.
func (s *Solver) MinModelIn(sess *Session, pc []*expr.Expr, vars []*expr.Expr) (Model, error) {
	s.Stats.Queries++
	live, ok := s.liveConjuncts(pc, nil)
	if !ok {
		return nil, nil
	}
	if len(live) == 0 {
		// Nothing constrains vars: the minimum is all zeros.
		out := make(Model, len(vars))
		for _, v := range vars {
			if !v.IsConst() {
				out[v] = 0
			}
		}
		return out, nil
	}
	if sess == nil {
		sess = s.freshSession()
	}
	sp := s.beginQuery()
	res, err := sess.solve(live, vars)
	s.endQuery(sp, obs.QuerySession, res, err)
	if !res {
		return nil, err
	}
	out := make(Model, len(vars))
	for _, v := range vars {
		if !v.IsConst() {
			out[v] = sess.core.bl.modelValue(v)
		}
	}
	return out, nil
}
