// Package analysis is a generic forward/backward dataflow framework over
// the internal/cfg control-flow graphs, plus the production analyses built
// on it: interval/constancy propagation with pointer-origin tracking (the
// engine consults it to prune statically-infeasible branch sides and elide
// provably-in-bounds CheckBounds queries), and may-liveness of locals with
// full-overwrite array kills (QCE's Qadd mask and the merge-key slimming in
// internal/core).
//
// Everything here is a pure function of the program: fact tables are
// computed once, shared read-only across engines and workers, and iterated
// in deterministic (reverse-)postorder, so every artifact derived from them
// — pruned branch sets, elided queries, merge keys — is stable across runs,
// worker counts, and strategies. That stability is what lets the engine
// promise byte-identical corpora with the analyses on or off.
package analysis

import (
	"symmerge/internal/cfg"
)

// Direction selects which way facts flow.
type Direction int

// Flow directions.
const (
	Forward Direction = iota
	Backward
)

// Problem defines one dataflow problem over a single function: the lattice
// (Bottom/Join/Equal), the boundary fact, and the per-instruction transfer.
// Facts are treated as immutable values: Transfer and Join must return
// fresh values (or provably-unaliased ones) rather than mutate arguments.
type Problem[F any] interface {
	Direction() Direction
	// Bottom is the initial fact at every program point (the "unreached"
	// value; Join(Bottom, x) = x).
	Bottom() F
	// Boundary is the fact at the flow entry: function entry for forward
	// problems, every function exit for backward ones.
	Boundary() F
	// Join combines facts meeting at a control-flow join.
	Join(a, b F) F
	// Equal reports lattice equality (fixpoint detection).
	Equal(a, b F) bool
	// Transfer flows a fact through the instruction at pc: for forward
	// problems f is the fact before pc and the result the fact after it;
	// for backward problems the mirror.
	Transfer(pc int, f F) F
}

// EdgeRefiner is an optional Problem extension: RefineEdge sharpens the
// fact flowing along the CFG edge from the terminator at pc to the block
// starting at succ (branch-side refinement for forward problems).
type EdgeRefiner[F any] interface {
	RefineEdge(pc, succ int, f F) F
}

// Widener is an optional Problem extension for infinite-height lattices:
// the solver applies Widen at loop-header entry facts once a header has
// been revisited enough times, guaranteeing termination.
type Widener[F any] interface {
	Widen(prev, next F) F
}

// widenAfter is how many times a loop header's entry fact may change
// before the solver starts widening it. Two plain rounds keep counted
// loops precise (init joined with one increment brackets the range);
// widening from the third change on bounds the climb.
const widenAfter = 2

// Solve runs the worklist fixpoint for p over g and returns the fact table:
// facts[pc] is the fact at the program point immediately before instruction
// pc (for both directions — a backward problem's facts[pc] is what holds
// when pc is about to execute), with one extra slot facts[len] for the
// fall-through end of straight-line functions. Blocks are iterated in RPO
// (forward) or reverse RPO (backward) in repeated deterministic rounds
// until stable, so the table is a pure function of the program.
func Solve[F any](g *cfg.FuncCFG, p Problem[F]) []F {
	n := 0
	if g.Fn != nil {
		n = len(g.Fn.Instrs)
	}
	facts := make([]F, n+1)
	for i := range facts {
		facts[i] = p.Bottom()
	}
	if n == 0 {
		return facts
	}
	if p.Direction() == Forward {
		solveForward(g, p, facts)
	} else {
		solveBackward(g, p, facts)
	}
	return facts
}

func solveForward[F any](g *cfg.FuncCFG, p Problem[F], facts []F) {
	refine, _ := p.(EdgeRefiner[F])
	widen, _ := p.(Widener[F])
	facts[0] = p.Join(facts[0], p.Boundary())
	changes := make([]int, len(g.Blocks)) // entry-fact change count per block
	fn := g.Fn
	for changed := true; changed; {
		changed = false
		for _, bi := range g.RPO {
			b := g.Blocks[bi]
			w := facts[b.Start]
			for pc := b.Start; pc < b.End; pc++ {
				w = p.Transfer(pc, w)
				if pc+1 < b.End {
					if !p.Equal(facts[pc+1], w) {
						facts[pc+1] = w
						changed = true
					}
					w = facts[pc+1]
				}
			}
			term := b.End - 1
			for _, sb := range b.Succs {
				out := w
				if refine != nil {
					out = refine.RefineEdge(term, g.Blocks[sb].Start, out)
				}
				entry := g.Blocks[sb].Start
				joined := p.Join(facts[entry], out)
				if !p.Equal(facts[entry], joined) {
					changes[sb]++
					isHeader := g.LoopOf[sb] >= 0 && g.Loops[g.LoopOf[sb]].Header == sb
					// Headers widen early; any block still climbing after
					// many rounds widens too (termination backstop for
					// shapes findLoops does not classify).
					if widen != nil && ((isHeader && changes[sb] > widenAfter) || changes[sb] > 4*widenAfter) {
						joined = widen.Widen(facts[entry], joined)
					}
					facts[entry] = joined
					changed = true
				}
			}
			// Fall-through off the end of the function (no terminator).
			if !fn.Instrs[term].IsTerminator() && b.End == len(fn.Instrs) {
				if !p.Equal(facts[b.End], w) {
					facts[b.End] = w
					changed = true
				}
			}
		}
	}
}

func solveBackward[F any](g *cfg.FuncCFG, p Problem[F], facts []F) {
	fn := g.Fn
	n := len(fn.Instrs)
	var succ []int
	for changed := true; changed; {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.Blocks[g.RPO[i]]
			for pc := b.End - 1; pc >= b.Start; pc-- {
				in := &fn.Instrs[pc]
				var out F
				if in.IsTerminator() {
					succ = in.Successors(pc, succ[:0])
					out = p.Boundary()
					first := true
					for _, s := range succ {
						if s > n {
							continue
						}
						if first {
							out = facts[s]
							first = false
						} else {
							out = p.Join(out, facts[s])
						}
					}
				} else {
					out = facts[pc+1]
				}
				nf := p.Transfer(pc, out)
				if !p.Equal(facts[pc], nf) {
					facts[pc] = nf
					changed = true
				}
			}
		}
	}
}
