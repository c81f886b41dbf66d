package solver

// passes.go: the ordered preprocessing-pass pipeline applied to one-shot
// queries before bit-blasting.
//
// A query is a mutable Query value threaded through the solver's passes in
// the order New fixes, after which the (possibly grouped) constraints are
// bit-blasted. The incremental-session path (session.go) deliberately bypasses the pipeline:
// rewriting conjuncts would change their identity and defeat the
// blast-once/assume-many reuse that sessions exist for.
//
// Every pass must be semantics-preserving (sat/unsat verdicts and the
// original constraints' satisfiability under the returned model are
// invariant) and safe for concurrent use from multiple Solvers: pass values
// are stateless — all mutable state lives in the per-query Query.

import "symmerge/internal/expr"

// Query is the mutable state threaded through the preprocessing pipeline
// for one satisfiability question.
type Query struct {
	// Constraints is the working constraint set (a conjunction).
	Constraints []*expr.Expr
	// Binding accumulates variables pinned to constants by substitution
	// passes. The solver folds the bindings back into the model after
	// solving, so callers still see values for substituted variables.
	Binding expr.Env
	// Groups, when non-nil, partitions Constraints into variable-disjoint
	// subsets that are satisfiability-independent; the solver then blasts
	// and solves each group separately (the slice pass's output).
	Groups [][]*expr.Expr
}

// Pass is one step of the preprocessing pipeline. It mutates q in place;
// the Solver is passed for its builder and statistics.
type Pass func(s *Solver, q *Query)

// simplifyPass canonicalizes the constraint set through the expression
// rewrite table (expr/rules.go): each conjunct is simplified bottom-up,
// then the set is re-conjoined through the n-ary constructor — which
// deduplicates, eliminates complementary pairs, absorbs, and factors
// across conjuncts — and flattened back into conjuncts.
func simplifyPass(s *Solver, q *Query) {
	if s.build == nil {
		return
	}
	q.Constraints = s.build.SimplifySet(q.Constraints)
}

// substitutePass rewrites the constraint set using the equalities it
// contains (KLEE's ConstraintManager simplification): a conjunct of the
// form `x = const` lets every other conjunct evaluate x concretely, which
// often collapses whole subtrees before bit-blasting.
func substitutePass(s *Solver, q *Query) {
	if s.build == nil {
		return
	}
	out, binding := substituteEqualities(s.build, q.Constraints)
	if len(binding) == 0 {
		return
	}
	q.Constraints = out
	if q.Binding == nil {
		q.Binding = binding
		return
	}
	for v, val := range binding {
		q.Binding[v] = val
	}
}

// slicePass partitions the constraints into independent groups (connected
// components of the shared-variable graph); the conjunction is sat iff
// every component is, and each component blasts to a much smaller CNF.
func slicePass(s *Solver, q *Query) {
	if len(q.Constraints) <= 1 {
		return
	}
	groups := independentGroups(q.Constraints)
	if len(groups) > 1 {
		s.Stats.IndepSliced++
		q.Groups = groups
	}
}

// runPasses executes the pipeline over the live constraint set and records
// the node-count trajectory (`symx -stats`). Counts use the per-node
// construction sizes cached in Expr.Nodes() — O(1) per conjunct — rather
// than a distinct-node DAG walk, so the bookkeeping costs nothing on the
// query path.
func (s *Solver) runPasses(live []*expr.Expr) *Query {
	q := &Query{Constraints: live}
	if len(s.passes) == 0 {
		return q
	}
	s.Stats.PreprocQueries++
	s.Stats.PreprocNodesIn += sumNodes(live)
	for _, p := range s.passes {
		p(s, q)
	}
	s.Stats.PreprocNodesOut += sumNodes(q.Constraints)
	return q
}

// sumNodes totals the cached tree-node counts of a constraint set.
func sumNodes(cs []*expr.Expr) uint64 {
	var n uint64
	for _, c := range cs {
		n += uint64(c.Nodes())
	}
	return n
}
