// Package analysis computes the static facts that QCE and the engine share:
// each function's control-flow graph (internal/cfg) and the may-liveness of
// its locals, with full-overwrite array kills. QCE masks Qadd with liveness,
// and the engine's merge skips ite selectors for locals that are dead at the
// merge point.
//
// Everything here is a pure function of the program. Analyze runs once per
// program, and its tables are shared read-only by QCE and every engine.
// Liveness iterates in deterministic reverse postorder, so every merge key
// derived from it is stable across runs and strategies. That stability is what lets the engine promise byte-identical
// corpora with merge slimming on or off.
package analysis

import (
	"fmt"
	"strings"

	"symmerge/internal/cfg"
	"symmerge/internal/ir"
)

// FuncFacts bundles the static facts of one function.
type FuncFacts struct {
	Fn *ir.Func
	G  *cfg.FuncCFG
	// Live[pc][v] is the may-liveness of local v just before pc, with one
	// trailing row for the function end.
	Live [][]bool
}

// Program is the static-analysis result for one ir.Program: per-function
// CFGs and liveness tables. It is computed once per program, immutable
// afterwards, and safe to share across engines.
type Program struct {
	Prog  *ir.Program
	Funcs []*FuncFacts // parallel to Prog.Funcs
}

// Analyze builds every function's CFG and liveness table.
func Analyze(p *ir.Program) *Program {
	a := &Program{Prog: p, Funcs: make([]*FuncFacts, len(p.Funcs))}
	for i, fn := range p.Funcs {
		g := cfg.Build(fn)
		a.Funcs[i] = &FuncFacts{Fn: fn, G: g, Live: Liveness(fn, g)}
	}
	return a
}

// LivenessString renders the live-local sets, one line per pc, for
// cmd/qcedump -facts liveness.
func (ff *FuncFacts) LivenessString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s liveness:\n", ff.Fn.Name)
	for pc := range ff.Fn.Instrs {
		var parts []string
		for li, loc := range ff.Fn.Locals {
			if ff.Live[pc][li] {
				parts = append(parts, loc.Name)
			}
		}
		fmt.Fprintf(&b, "  %3d: {%s}\n", pc, strings.Join(parts, ","))
	}
	return b.String()
}
