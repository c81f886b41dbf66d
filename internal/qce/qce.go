// Package qce implements Query Count Estimation (paper §3): a lightweight
// static analysis, run before symbolic execution, that estimates for every
// program location ℓ
//
//   - Qt(ℓ): the expected number of future solver queries after ℓ, and
//   - Qadd(ℓ,v): the number of *additional* queries that would appear after ℓ
//     if variable v held a symbolic (or divergent concrete) value,
//
// using the recursion q(ℓ,c) of the paper's Equation (3)/(6): every branch
// contributes its own cost c(ℓ,e) plus β times each successor's count, with
// loops unrolled κ times.
//
// The engine uses these tables to build the similarity relation ∼qce of
// Equation (1): two states at ℓ may merge iff every "hot" variable — one
// with Qadd(ℓ,v) > α·Qt(ℓ) — is either equal in both states or already
// symbolic in one of them (Equation 2). Following the paper's prototype,
// the Qite term of the full cost model (§3.3) is dropped by default; an
// option restores it for the ablation benchmarks.
//
// Interprocedurally, per-function local counts are computed bottom-up over
// the call graph (recursion cut by κ); the engine adds the local counts of
// the return locations on the call stack at run time to obtain global
// counts (paper §3.2, "Interprocedural QCE").
package qce

import (
	"fmt"
	"strings"

	"symmerge/internal/analysis"
	"symmerge/internal/cfg"
	"symmerge/internal/ir"
)

// Params are the QCE tuning knobs (paper §3.2/§5.4).
type Params struct {
	Alpha float64 // hot-variable threshold; the paper's tuned value is 1e-12
	Beta  float64 // branch feasibility probability; paper uses 0.8
	Kappa int     // loop unroll bound for unknown trip counts; paper uses 10
	// Zeta weights queries that gain ite expressions (the full variant of
	// §3.3). The prototype variant — and our default — ignores it
	// (Zeta = 1 disables the term).
	Zeta float64
}

// DefaultParams returns the default parameter values: β and κ as published
// (0.8 and 10), and α = 0.5 from the paper's worked example (§3.2).
//
// The paper's production tuning α = 1e-12 effectively marks every variable
// with any nonzero Qadd as hot; it behaved selectively in their prototype
// only because the LLVM-based analysis tracked few in-memory variables
// (§5.1). Our dependence analysis sees every local precisely, so the
// worked-example threshold reproduces the intended merge selectivity (e.g.
// H(7) = {arg} for the echo example, allowing the r-differing states to
// merge). Figure 7's benchmark sweeps α across the full range either way.
func DefaultParams() Params {
	return Params{Alpha: 0.5, Beta: 0.8, Kappa: 10, Zeta: 1}
}

// FuncQCE holds the per-location query-count tables of one function.
type FuncQCE struct {
	Fn *ir.Func
	// Qt[pc] is the local total query-count estimate at pc, already
	// scaled by the paper's ϕ (folded into α).
	Qt []float64
	// Qadd[pc][local] is the local additional-query estimate for making
	// the given local divergent at pc.
	Qadd [][]float64
	// EntryQt and EntryQadd summarize the function for callers: the
	// counts at the entry location (EntryQadd indexed by parameter).
	EntryQt   float64
	EntryQadd []float64
	// Reach[v] is the flow-insensitive forward dependence closure: the
	// set of locals whose value may be influenced by local v.
	Reach []map[int]bool
}

// Analysis is the whole-program QCE result.
type Analysis struct {
	Params  Params
	Prog    *ir.Program
	PerFunc []*FuncQCE
	CG      *cfg.CallGraph
}

// Analyze runs QCE over the program, computing its CFGs and liveness
// first. Callers that already hold the program's static facts use FromFacts.
func Analyze(p *ir.Program, params Params) *Analysis {
	return FromFacts(analysis.Analyze(p), params)
}

// FromFacts runs QCE over the CFGs and liveness tables an already holds,
// without rebuilding them.
func FromFacts(an *analysis.Program, params Params) *Analysis {
	if params.Beta <= 0 || params.Beta >= 1 {
		params.Beta = 0.8
	}
	if params.Kappa <= 0 {
		params.Kappa = 10
	}
	if params.Zeta < 1 {
		params.Zeta = 1
	}
	p := an.Prog
	a := &Analysis{
		Params:  params,
		Prog:    p,
		PerFunc: make([]*FuncQCE, len(p.Funcs)),
		CG:      cfg.BuildCallGraph(p),
	}
	// Bottom-up over the call graph so callee summaries exist at call
	// sites. Recursive cycles fall back to zero summaries on first use
	// (equivalent to cutting recursion at depth 0 beyond κ-unrolled
	// self-loops), matching the "bounded recursion" note in §5.1.
	for _, fi := range a.CG.BottomUp {
		a.PerFunc[fi] = a.analyzeFunc(an.Funcs[fi])
	}
	return a
}

// analyzeFunc computes the per-location tables for one function.
func (a *Analysis) analyzeFunc(ff *analysis.FuncFacts) *FuncQCE {
	fn, g := ff.Fn, ff.G
	n := len(fn.Instrs)
	nl := len(fn.Locals)
	fq := &FuncQCE{
		Fn:   fn,
		Qt:   make([]float64, n+1),
		Qadd: make([][]float64, n+1),
	}
	for pc := range fq.Qadd {
		fq.Qadd[pc] = make([]float64, nl)
	}
	if n == 0 {
		fq.EntryQadd = make([]float64, fn.Params)
		return fq
	}

	fq.Reach = dependenceClosure(fn)

	// Per-instruction cost selectors.
	//
	// costTotal[pc] is the c(ℓ,e)=1 contribution to Qt: any instruction
	// that can issue a solver query when its inputs are symbolic —
	// branches, asserts, and symbolic-index accesses (paper footnote 1).
	//
	// costVar[pc] is the set of locals v for which this instruction
	// contributes to Qadd(·,v): the instruction queries an expression
	// that may depend on v's current value.
	costTotal := make([]float64, n)
	costVar := make([][]int, n)
	for pc := 0; pc < n; pc++ {
		in := &fn.Instrs[pc]
		var queryOperands []ir.Operand
		switch in.Op {
		case ir.OpCondBr:
			queryOperands = []ir.Operand{in.A}
		case ir.OpAssert:
			queryOperands = []ir.Operand{in.A}
		case ir.OpLoad:
			// Symbolic index => expensive ite-expansion + queries.
			queryOperands = []ir.Operand{in.B}
		case ir.OpStore:
			queryOperands = []ir.Operand{in.A}
		case ir.OpPtrLoad, ir.OpPtrStore:
			// Symbolic address => guarded-select expansion over every
			// heap object + queries; the pointer operand is the source
			// of divergence, and through the dependence closure it makes
			// the locals feeding it (and the heap cells proxied by the
			// pointer, see dependenceClosure) hot.
			queryOperands = []ir.Operand{in.A}
		case ir.OpArgChar:
			queryOperands = []ir.Operand{in.A, in.B}
		case ir.OpStdin:
			queryOperands = []ir.Operand{in.A}
		default:
			continue
		}
		costTotal[pc] = 1
		seen := map[int]bool{}
		for _, o := range queryOperands {
			if o.IsConst {
				continue
			}
			for v := 0; v < nl; v++ {
				if !seen[v] && fq.Reach[v][o.Local] {
					seen[v] = true
					costVar[pc] = append(costVar[pc], v)
				}
			}
		}
	}

	// Backward data-flow, Gauss–Seidel in reverse postorder, κ passes:
	// pass k propagates counts across up to k back-edge hops, realizing
	// the paper's κ-bounded loop unrolling. A statically known trip
	// count below κ is honored by damping that loop's header after its
	// trip count is reached (approximation: we run min(trip, κ) passes
	// per loop by freezing headers of exhausted loops).
	beta := a.Params.Beta
	order := instrBackwardOrder(g)
	passes := a.Params.Kappa
	loopBound := make([]int, len(g.Loops))
	for li, l := range g.Loops {
		loopBound[li] = passes
		if l.TripCount > 0 && l.TripCount < passes {
			loopBound[li] = l.TripCount
		}
	}

	update := func(pass int) {
		for _, pc := range order {
			in := &fn.Instrs[pc]
			// Freeze headers of loops whose bound is exhausted so
			// extra passes do not keep growing them.
			if li := loopIndexOfHeader(g, pc); li >= 0 && pass >= loopBound[li] {
				continue
			}
			switch in.Op {
			case ir.OpCondBr:
				fq.Qt[pc] = beta*fq.Qt[in.Target] + beta*fq.Qt[in.FTarget] + costTotal[pc]
				dst := fq.Qadd[pc]
				t1, t2 := fq.Qadd[in.Target], fq.Qadd[in.FTarget]
				for v := 0; v < nl; v++ {
					dst[v] = beta * (t1[v] + t2[v])
				}
				for _, v := range costVar[pc] {
					dst[v]++
				}
			case ir.OpBr:
				fq.Qt[pc] = fq.Qt[in.Target]
				copy(fq.Qadd[pc], fq.Qadd[in.Target])
			case ir.OpRet, ir.OpHalt:
				fq.Qt[pc] = 0
				zero(fq.Qadd[pc])
			case ir.OpCall:
				callee := a.PerFunc[in.Callee]
				fq.Qt[pc] = fq.Qt[pc+1]
				copy(fq.Qadd[pc], fq.Qadd[pc+1])
				if callee != nil {
					fq.Qt[pc] += callee.EntryQt
					// Map callee parameter counts back to
					// caller variables feeding those args.
					for i, arg := range in.Args {
						if arg.IsConst || i >= len(callee.EntryQadd) {
							continue
						}
						add := callee.EntryQadd[i]
						if add == 0 {
							continue
						}
						for v := 0; v < nl; v++ {
							if fq.Reach[v][arg.Local] {
								fq.Qadd[pc][v] += add
							}
						}
					}
				}
			default:
				fq.Qt[pc] = fq.Qt[pc+1] + costTotal[pc]
				copy(fq.Qadd[pc], fq.Qadd[pc+1])
				for _, v := range costVar[pc] {
					fq.Qadd[pc][v]++
				}
			}
		}
	}
	for pass := 0; pass < passes; pass++ {
		update(pass)
	}

	// Mask Qadd with liveness (internal/analysis): a variable that is
	// dead at ℓ cannot make future queries more expensive through its
	// current value, even if the same register is reused later. Our IR is
	// not SSA, so without this mask a reinitialized loop counter would
	// keep its stale dependence; LLVM's SSA form gives the paper's
	// implementation the distinction for free. This is strictly weaker
	// than the liveness-based pruning of Boonstoppel et al. [3], which
	// the paper §6 compares against: QCE still merges live variables
	// whose future query count is below the α threshold. The shared
	// analysis also kills arrays before loops that provably overwrite
	// them in full, so a buffer about to be initialized does not count
	// toward pre-loop hot sets.
	for pc := 0; pc < n; pc++ {
		for v := 0; v < nl; v++ {
			if !ff.Live[pc][v] {
				fq.Qadd[pc][v] = 0
			}
		}
	}

	fq.EntryQt = fq.Qt[0]
	fq.EntryQadd = make([]float64, fn.Params)
	for i := 0; i < fn.Params; i++ {
		fq.EntryQadd[i] = fq.Qadd[0][i]
	}
	return fq
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// loopIndexOfHeader returns the loop whose header block starts at pc, or -1.
func loopIndexOfHeader(g *cfg.FuncCFG, pc int) int {
	if len(g.Blocks) == 0 {
		return -1
	}
	b := g.BlockOf[pc]
	for li, l := range g.Loops {
		if l.Header == b && g.Blocks[b].Start == pc {
			return li
		}
	}
	return -1
}

// instrBackwardOrder returns instruction PCs such that processing them in
// order propagates backward flow along forward edges in one pass: blocks in
// reverse RPO, instructions within a block from last to first.
func instrBackwardOrder(g *cfg.FuncCFG) []int {
	var out []int
	for i := len(g.RPO) - 1; i >= 0; i-- {
		b := g.Blocks[g.RPO[i]]
		for pc := b.End - 1; pc >= b.Start; pc-- {
			out = append(out, pc)
		}
	}
	return out
}

// dependenceClosure computes, flow-insensitively, for each local v the set
// of locals whose value may be derived from v (paper: "path-insensitive
// data dependence analysis"; our IR plays the role of LLVM's SSA form).
func dependenceClosure(fn *ir.Func) []map[int]bool {
	nl := len(fn.Locals)
	// Direct edges: src -> dst for every def.
	succ := make([][]int, nl)
	addEdge := func(src ir.Operand, dst int) {
		if src.IsConst || dst < 0 {
			return
		}
		succ[src.Local] = append(succ[src.Local], dst)
	}
	for pc := range fn.Instrs {
		in := &fn.Instrs[pc]
		switch in.Op {
		case ir.OpLoad:
			addEdge(in.A, in.Dst) // array contents flow to dst
			addEdge(in.B, in.Dst) // index influences the value read
		case ir.OpStore:
			// Value and index flow into the array variable.
			addEdge(in.A, in.Dst)
			addEdge(in.B, in.Dst)
		case ir.OpAlloc:
			addEdge(in.A, in.Dst) // size influences the address space
		case ir.OpPtrLoad:
			// The pointer local proxies its heap object: contents and
			// address both flow to the destination.
			addEdge(in.A, in.Dst)
		case ir.OpPtrStore:
			// The stored value flows into the heap reached through the
			// pointer; the pointer local proxies that object, mirroring
			// how OpStore folds array contents into the array local.
			// (The address operand is usually a per-statement temp; the
			// pointer alias clusters below carry the flow onward to the
			// named pointer local and from there into future loads.)
			if !in.A.IsConst {
				addEdge(in.B, in.A.Local)
			}
		case ir.OpCall:
			// Array arguments are passed by reference: the callee
			// may both read and write them. Conservatively link
			// scalar args to nothing here (handled by summaries)
			// and array args to themselves via the return value.
			if in.Dst >= 0 {
				for _, arg := range in.Args {
					addEdge(arg, in.Dst)
				}
			}
		case ir.OpCondBr, ir.OpBr, ir.OpRet, ir.OpHalt,
			ir.OpAssert, ir.OpAssume, ir.OpOut:
			// No dataflow def.
		case ir.OpArgc, ir.OpStdinLen, ir.OpSymInt, ir.OpSymByte,
			ir.OpSymBool, ir.OpMakeSymArr, ir.OpNop:
			// Defines from the environment; no local operand flows in
			// (the zero-valued A/B operands are not real reads).
		case ir.OpArgChar:
			addEdge(in.A, in.Dst)
			addEdge(in.B, in.Dst)
		case ir.OpStdin:
			addEdge(in.A, in.Dst)
		case ir.OpMov, ir.OpNot, ir.OpNeg, ir.OpBNot,
			ir.OpIntToByte, ir.OpByteToInt, ir.OpBoolToInt:
			// Unary: the zero-valued B operand is not a real read.
			addEdge(in.A, in.Dst)
		default:
			if in.Dst >= 0 {
				addEdge(in.A, in.Dst)
				addEdge(in.B, in.Dst)
			}
		}
	}
	// Pointer locals form alias clusters: a derived pointer (q = p + i, or
	// the address temp the compiler emits for p[i]) addresses the same heap
	// object as its base, so dependence flows both ways between them — the
	// forward def edge above plus this reverse edge. Without the reverse
	// edge, an OpPtrStore's value lands on the address temp and stops
	// there; with it, the value reaches the named pointer local and, from
	// there, every future load through that pointer.
	for pc := range fn.Instrs {
		in := &fn.Instrs[pc]
		if in.Dst < 0 || fn.Locals[in.Dst].Type.Kind != ir.Ptr {
			continue
		}
		switch in.Op {
		case ir.OpAdd, ir.OpSub:
			for _, o := range []ir.Operand{in.A, in.B} {
				if !o.IsConst && fn.Locals[o.Local].Type.Kind == ir.Ptr {
					addEdge(ir.LocalOp(in.Dst), o.Local)
				}
			}
		case ir.OpMov:
			if !in.A.IsConst && fn.Locals[in.A.Local].Type.Kind == ir.Ptr {
				addEdge(ir.LocalOp(in.Dst), in.A.Local)
			}
		}
	}

	// Reflexive-transitive closure via BFS from each local.
	reach := make([]map[int]bool, nl)
	for v := 0; v < nl; v++ {
		r := map[int]bool{v: true}
		stack := []int{v}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range succ[x] {
				if !r[y] {
					r[y] = true
					stack = append(stack, y)
				}
			}
		}
		reach[v] = r
	}
	return reach
}

// HotSet returns the indices of the locals that are hot at pc given the
// global total query count (local Qt at pc plus the stack contribution the
// engine supplies). Equation (2): v is hot iff Qadd(pc,v) > α·Qt_global.
func (fq *FuncQCE) HotSet(pc int, globalQt float64, alpha float64, out []int) []int {
	out = out[:0]
	threshold := alpha * globalQt
	for v, q := range fq.Qadd[pc] {
		if q > threshold {
			out = append(out, v)
		}
	}
	return out
}

// QtAt returns the local query-count estimate Qt at pc, clamping a PC past
// the function end (a return location, where the PC already points beyond
// the call) to the last instruction. Zero for a function with no table.
func (fq *FuncQCE) QtAt(pc int) float64 {
	if len(fq.Qt) == 0 {
		return 0
	}
	if pc >= len(fq.Qt) {
		pc = len(fq.Qt) - 1
	}
	if pc < 0 {
		pc = 0
	}
	return fq.Qt[pc]
}

// Threshold is the merge-gate cutoff α·Qt_global of Equation (2) — the
// value a variable's Qadd (or, in the ζ variant, Equation (7)'s aggregate
// cost term) must stay below for a merge to be accepted. The observability
// layer records it alongside each merge decision so traces show the
// estimate that decided the gate.
func (p Params) Threshold(globalQt float64) float64 {
	return p.Alpha * globalQt
}

// String renders the per-location tables for debugging and the qcedump tool.
func (fq *FuncQCE) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qce %s:\n", fq.Fn.Name)
	for pc := 0; pc < len(fq.Fn.Instrs); pc++ {
		fmt.Fprintf(&b, "  %3d: Qt=%-8.3f", pc, fq.Qt[pc])
		for v, q := range fq.Qadd[pc] {
			if q > 0 {
				fmt.Fprintf(&b, " %s=%.3f", fq.Fn.Locals[v].Name, q)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
