package analysis

import (
	"fmt"
	"strings"

	"symmerge/internal/cfg"
	"symmerge/internal/ir"
)

// Verdict is the static decision for a conditional branch.
type Verdict uint8

// Branch verdicts.
const (
	VUnknown Verdict = iota // both sides may be feasible
	VTrue                   // condition is statically always true
	VFalse                  // condition is statically always false
)

func (v Verdict) String() string {
	switch v {
	case VTrue:
		return "always"
	case VFalse:
		return "never"
	}
	return "?"
}

// FuncFacts bundles the per-instruction fact tables of one function. All
// tables are indexed by pc with one trailing slot for the function end; a
// nil Intervals/Origins row marks a statically-unreachable point.
type FuncFacts struct {
	Fn        *ir.Func
	G         *cfg.FuncCFG
	Intervals [][]Interval // value range of each local before pc
	Origins   [][]Origin   // pointer origin of each local before pc
	Branch    []Verdict    // OpCondBr static verdicts (VUnknown elsewhere)
	Live      [][]bool     // may-liveness of each local before pc
}

// Program is the full static-analysis result for one ir.Program: per-function
// interval/origin/liveness tables and branch verdicts. It is computed once
// per program, immutable afterwards, and safe to share across engines and
// workers; every table is a pure function of the program, so anything
// derived from it is stable across runs.
type Program struct {
	Prog     *ir.Program
	Funcs    []*FuncFacts // parallel to Prog.Funcs
	SiteSize []int64      // allocation site -> constant cell count, -1 unknown
}

// Analyze runs all analyses over the program.
func Analyze(p *ir.Program) *Program {
	a := &Program{
		Prog:     p,
		Funcs:    make([]*FuncFacts, len(p.Funcs)),
		SiteSize: siteSizes(p),
	}
	for i, fn := range p.Funcs {
		a.Funcs[i] = analyzeFunc(fn)
	}
	return a
}

// siteSizes scans the program for the constant cell count of each
// allocation site (-1 when a site's size is not a compile-time constant).
func siteSizes(p *ir.Program) []int64 {
	sizes := make([]int64, p.AllocSites)
	for i := range sizes {
		sizes[i] = -1
	}
	for _, fn := range p.Funcs {
		for pc := range fn.Instrs {
			in := &fn.Instrs[pc]
			if in.Op == ir.OpAlloc && in.A.IsConst && in.Site >= 0 && in.Site < len(sizes) {
				sizes[in.Site] = in.A.Const
			}
		}
	}
	return sizes
}

func analyzeFunc(fn *ir.Func) *FuncFacts {
	g := cfg.Build(fn)
	ff := &FuncFacts{Fn: fn, G: g}
	facts := Solve[*ivFact](g, &intervalProblem{fn: fn, g: g})
	ff.Intervals = make([][]Interval, len(facts))
	ff.Origins = make([][]Origin, len(facts))
	for pc, f := range facts {
		if f != nil {
			ff.Intervals[pc] = f.iv
			ff.Origins[pc] = f.org
		}
	}
	ff.Branch = make([]Verdict, len(fn.Instrs))
	for pc := range fn.Instrs {
		in := &fn.Instrs[pc]
		if in.Op != ir.OpCondBr || in.Target == in.FTarget {
			continue
		}
		iv := ff.OperandInterval(pc, in.A)
		switch {
		case iv.Empty():
			// Unreachable branch: leave unknown (it never executes).
		case iv.Lo >= 1:
			ff.Branch[pc] = VTrue
		case iv.Hi <= 0:
			ff.Branch[pc] = VFalse
		}
	}
	ff.Live = Liveness(fn, g)
	return ff
}

// OperandInterval returns the static value range of an operand just before
// pc; unreachable points yield the empty interval.
func (ff *FuncFacts) OperandInterval(pc int, o ir.Operand) Interval {
	if o.IsConst {
		return Interval{o.Const, o.Const}
	}
	row := ff.Intervals[pc]
	if row == nil {
		return Interval{1, 0}
	}
	return row[o.Local]
}

// OperandOrigin returns the pointer origin of an operand just before pc.
func (ff *FuncFacts) OperandOrigin(pc int, o ir.Operand) Origin {
	if o.IsConst {
		return unknownOrigin
	}
	row := ff.Origins[pc]
	if row == nil {
		return unknownOrigin
	}
	return row[o.Local]
}

// IndexInBounds reports whether the operand is provably within [0, n) just
// before pc — the engine elides the bounds-check query pair for such array
// accesses.
func (ff *FuncFacts) IndexInBounds(pc int, o ir.Operand, n int) bool {
	iv := ff.OperandInterval(pc, o)
	return !iv.Empty() && iv.Lo >= 0 && iv.Hi < int64(n)
}

// PtrSite resolves the allocation site a pointer operand provably addresses
// with an in-object offset, or -1. A non-negative result means the pointed-to
// object was minted by that site's OpAlloc on every path reaching pc and the
// dereference offset cannot escape it, so the engine may skip the heap
// bounds/mapping check.
func (a *Program) PtrSite(ff *FuncFacts, pc int, o ir.Operand) int {
	org := ff.OperandOrigin(pc, o)
	if org.Site < 0 || org.Site >= len(a.SiteSize) {
		return -1
	}
	sz := a.SiteSize[org.Site]
	if sz <= 0 || org.Off.Empty() || !org.Off.Within(0, sz-1) {
		return -1
	}
	return org.Site
}

// --- Fact dumps (cmd/qcedump -facts) ---

// IntervalsString renders the non-trivial interval and origin facts, one
// line per pc, for debugging and doc examples.
func (ff *FuncFacts) IntervalsString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s intervals:\n", ff.Fn.Name)
	for pc := range ff.Fn.Instrs {
		row := ff.Intervals[pc]
		if row == nil {
			fmt.Fprintf(&b, "  %3d: unreachable\n", pc)
			continue
		}
		var parts []string
		for li, loc := range ff.Fn.Locals {
			iv := row[li]
			if iv == typeTop(loc.Type) {
				continue
			}
			s := fmt.Sprintf("%s=[%d,%d]", loc.Name, iv.Lo, iv.Hi)
			if org := ff.Origins[pc][li]; org.Site >= 0 {
				s += fmt.Sprintf("@site%d+[%d,%d]", org.Site, org.Off.Lo, org.Off.Hi)
			}
			parts = append(parts, s)
		}
		if ff.Branch[pc] != VUnknown {
			parts = append(parts, fmt.Sprintf("branch:%s", ff.Branch[pc]))
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, "  %3d: %s\n", pc, strings.Join(parts, " "))
		}
	}
	return b.String()
}

// LivenessString renders the live-local sets, one line per pc.
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
