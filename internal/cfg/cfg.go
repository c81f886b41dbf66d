// Package cfg computes control-flow structure over the ir representation:
// basic blocks, reverse postorder, natural loops with static trip-count
// detection, topological ranks for the static-state-merging exploration
// order, and the interprocedural call graph with a bottom-up SCC order used
// by the compositional QCE analysis.
package cfg

import (
	"sort"

	"symmerge/internal/ir"
)

// Block is a maximal straight-line sequence of instructions.
type Block struct {
	Index int // block index in the function CFG
	Start int // first instruction PC
	End   int // one past the last instruction PC
	Succs []int
	Preds []int
}

// FuncCFG is the control-flow graph of one function.
type FuncCFG struct {
	Fn        *ir.Func
	Blocks    []*Block
	BlockOf   []int // PC -> block index
	RPO       []int // block indices in reverse postorder from entry
	RPOIndex  []int // block index -> position in RPO (topological rank)
	BackEdges []Edge
	Loops     []*Loop
	LoopOf    []int // block index -> innermost loop index, -1 if none
}

// Edge is a CFG edge between blocks.
type Edge struct{ From, To int }

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Header    int          // header block index
	Body      map[int]bool // block indices, header included
	TripCount int          // statically known trip count, 0 if unknown

	// Counted-loop shape, filled when TripCount != 0 (the canonical
	// `condbr (cmp i, C)` header detectTripCount recognizes); liveness
	// reuses it for full-overwrite array kills. IVar is -1 when the shape
	// was not recognized.
	IVar  int   // induction variable local index
	Init  int64 // constant initial value reaching the header
	Step  int64 // constant increment per iteration
	Bound int64 // comparison bound C
	CmpOp ir.Op // OpLt, OpLe or OpNe
}

// Build computes the CFG for a function.
func Build(fn *ir.Func) *FuncCFG {
	n := len(fn.Instrs)
	if n == 0 {
		return &FuncCFG{Fn: fn}
	}
	// Find leaders.
	leader := make([]bool, n)
	leader[0] = true
	var scratch []int
	for pc := range fn.Instrs {
		in := &fn.Instrs[pc]
		if in.IsTerminator() {
			scratch = in.Successors(pc, scratch[:0])
			for _, s := range scratch {
				if s < n {
					leader[s] = true
				}
			}
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}
	g := &FuncCFG{Fn: fn, BlockOf: make([]int, n)}
	for pc := 0; pc < n; {
		end := pc + 1
		for end < n && !leader[end] && !fn.Instrs[end-1].IsTerminator() {
			end++
		}
		// A block ends at its first terminator or just before the next leader.
		for e := pc; e < end; e++ {
			if fn.Instrs[e].IsTerminator() {
				end = e + 1
				break
			}
		}
		b := &Block{Index: len(g.Blocks), Start: pc, End: end}
		g.Blocks = append(g.Blocks, b)
		for i := pc; i < end; i++ {
			g.BlockOf[i] = b.Index
		}
		pc = end
	}
	// Successor edges.
	for _, b := range g.Blocks {
		last := &fn.Instrs[b.End-1]
		scratch = last.Successors(b.End-1, scratch[:0])
		if !last.IsTerminator() && b.End < n {
			scratch = append(scratch[:0], b.End)
		}
		seen := map[int]bool{}
		for _, s := range scratch {
			if s >= n {
				continue
			}
			sb := g.BlockOf[s]
			if !seen[sb] {
				seen[sb] = true
				b.Succs = append(b.Succs, sb)
			}
		}
		sort.Ints(b.Succs)
		for _, sb := range b.Succs {
			g.Blocks[sb].Preds = append(g.Blocks[sb].Preds, b.Index)
		}
	}
	g.computeRPO()
	g.findLoops()
	return g
}

func (g *FuncCFG) computeRPO() {
	nb := len(g.Blocks)
	visited := make([]bool, nb)
	post := make([]int, 0, nb)
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		// Visit successors in descending block order so that the
		// compiler's fall-through layout (loop body before loop exit)
		// ends up with the body *earlier* in reverse postorder; this
		// keeps TopoRank a true topological order on the acyclic part
		// with in-loop code ranked before the code after the loop.
		succs := g.Blocks[b].Succs
		for i := len(succs) - 1; i >= 0; i-- {
			if s := succs[i]; !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if nb > 0 {
		dfs(0)
	}
	// Unreachable blocks go last, in index order.
	for b := 0; b < nb; b++ {
		if !visited[b] {
			post = append([]int{b}, post...)
		}
	}
	g.RPO = make([]int, len(post))
	g.RPOIndex = make([]int, nb)
	for i := range post {
		g.RPO[i] = post[len(post)-1-i]
	}
	for i, b := range g.RPO {
		g.RPOIndex[b] = i
	}
}

// findLoops detects back edges (edge u->h where h's RPO rank ≤ u's and h
// dominates u approximately via natural-loop construction) and builds
// natural loops. For reducible graphs produced by the MiniC compiler this
// matches classic natural loops.
func (g *FuncCFG) findLoops() {
	nb := len(g.Blocks)
	g.LoopOf = make([]int, nb)
	for i := range g.LoopOf {
		g.LoopOf[i] = -1
	}
	dom := g.dominators()
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if dominates(dom, s, b.Index) {
				g.BackEdges = append(g.BackEdges, Edge{From: b.Index, To: s})
			}
		}
	}
	for _, e := range g.BackEdges {
		l := &Loop{Header: e.To, Body: map[int]bool{e.To: true}}
		// Walk predecessors from the latch up to the header.
		stack := []int{e.From}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.Body[x] {
				continue
			}
			l.Body[x] = true
			for _, p := range g.Blocks[x].Preds {
				stack = append(stack, p)
			}
		}
		l.IVar = -1
		l.TripCount = g.detectTripCount(l)
		idx := len(g.Loops)
		g.Loops = append(g.Loops, l)
		for b := range l.Body {
			// Inner loops (smaller bodies) win.
			if g.LoopOf[b] == -1 || len(g.Loops[g.LoopOf[b]].Body) > len(l.Body) {
				g.LoopOf[b] = idx
			}
		}
	}
}

// dominators computes the dominator sets with the classic iterative
// algorithm (bitset-free; functions are small).
func (g *FuncCFG) dominators() []map[int]bool {
	nb := len(g.Blocks)
	dom := make([]map[int]bool, nb)
	all := map[int]bool{}
	for i := 0; i < nb; i++ {
		all[i] = true
	}
	for i := range dom {
		if i == 0 {
			dom[i] = map[int]bool{0: true}
		} else {
			cp := map[int]bool{}
			for k := range all {
				cp[k] = true
			}
			dom[i] = cp
		}
	}
	changed := true
	for changed {
		changed = false
		for _, bi := range g.RPO {
			if bi == 0 {
				continue
			}
			b := g.Blocks[bi]
			var inter map[int]bool
			for _, p := range b.Preds {
				if inter == nil {
					inter = map[int]bool{}
					for k := range dom[p] {
						inter[k] = true
					}
				} else {
					for k := range inter {
						if !dom[p][k] {
							delete(inter, k)
						}
					}
				}
			}
			if inter == nil {
				inter = map[int]bool{}
			}
			inter[bi] = true
			if len(inter) != len(dom[bi]) {
				dom[bi] = inter
				changed = true
				continue
			}
			for k := range inter {
				if !dom[bi][k] {
					dom[bi] = inter
					changed = true
					break
				}
			}
		}
	}
	return dom
}

func dominates(dom []map[int]bool, a, b int) bool { return dom[b][a] }

// detectTripCount recognizes the canonical counted loop emitted by the MiniC
// compiler: a header block whose terminator is `condbr (lt i, C) body exit`
// with a single in-loop store to i of the form `i = i + 1` and an initial
// constant assignment reaching the header from outside. Returns 0 when the
// trip count is not statically evident.
func (g *FuncCFG) detectTripCount(l *Loop) int {
	fn := g.Fn
	hdr := g.Blocks[l.Header]
	term := &fn.Instrs[hdr.End-1]
	if term.Op != ir.OpCondBr || term.A.IsConst {
		return 0
	}
	condReg := term.A.Local
	// Find the comparison defining condReg inside the header block.
	var cmp *ir.Instr
	for pc := hdr.Start; pc < hdr.End-1; pc++ {
		in := &fn.Instrs[pc]
		if in.Dst == condReg && (in.Op == ir.OpLt || in.Op == ir.OpLe || in.Op == ir.OpNe) {
			cmp = in
		}
	}
	if cmp == nil || cmp.A.IsConst || !cmp.B.IsConst {
		return 0
	}
	ivar := cmp.A.Local
	bound := cmp.B.Const
	// The induction variable must be incremented by a constant exactly
	// once in the loop and never otherwise written inside the loop.
	step := int64(0)
	writes := 0
	for bi := range l.Body {
		b := g.Blocks[bi]
		for pc := b.Start; pc < b.End; pc++ {
			in := &fn.Instrs[pc]
			if in.Dst != ivar {
				continue
			}
			if bi == l.Header && in == cmp {
				continue
			}
			writes++
			if in.Op == ir.OpAdd && !in.A.IsConst && in.A.Local == ivar && in.B.IsConst {
				step = in.B.Const
			}
		}
	}
	if writes != 1 || step <= 0 {
		return 0
	}
	// Find a constant initialization dominating the loop: scan backwards
	// from the header start in the straight-line prefix.
	init, found := int64(0), false
	for pc := hdr.Start - 1; pc >= 0; pc-- {
		in := &fn.Instrs[pc]
		if in.Dst == ivar {
			if in.Op == ir.OpMov && in.A.IsConst {
				init, found = in.A.Const, true
			}
			break
		}
		if in.IsTerminator() {
			break
		}
	}
	if !found {
		return 0
	}
	var trips int64
	switch cmp.Op {
	case ir.OpLt:
		trips = (bound - init + step - 1) / step
	case ir.OpLe:
		trips = (bound - init + step) / step
	case ir.OpNe:
		if (bound-init)%step != 0 {
			return 0
		}
		trips = (bound - init) / step
	}
	if trips <= 0 || trips > 1<<20 {
		return 0
	}
	l.IVar, l.Init, l.Step, l.Bound, l.CmpOp = ivar, init, step, bound, cmp.Op
	return int(trips)
}

// --- Call graph ---

// CallGraph holds per-function callee lists and a bottom-up traversal order.
type CallGraph struct {
	Callees  [][]int // function index -> callee indices (deduplicated)
	BottomUp []int   // function indices, callees before callers (SCCs broken arbitrarily)
	InCycle  []bool  // function participates in a recursion cycle
}

// BuildCallGraph computes the call graph of a program.
func BuildCallGraph(p *ir.Program) *CallGraph {
	n := len(p.Funcs)
	cg := &CallGraph{Callees: make([][]int, n), InCycle: make([]bool, n)}
	for i, f := range p.Funcs {
		seen := map[int]bool{}
		for pc := range f.Instrs {
			in := &f.Instrs[pc]
			if in.Op == ir.OpCall && !seen[in.Callee] {
				seen[in.Callee] = true
				cg.Callees[i] = append(cg.Callees[i], in.Callee)
			}
		}
		sort.Ints(cg.Callees[i])
	}
	// Tarjan SCC to find recursion and produce bottom-up order.
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	var sccs [][]int
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range cg.Callees[v] {
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	// Tarjan emits SCCs in reverse topological order of the condensation,
	// i.e. callees' SCCs before callers': exactly bottom-up.
	for _, scc := range sccs {
		if len(scc) > 1 {
			for _, v := range scc {
				cg.InCycle[v] = true
			}
		} else {
			v := scc[0]
			for _, w := range cg.Callees[v] {
				if w == v {
					cg.InCycle[v] = true
				}
			}
		}
		cg.BottomUp = append(cg.BottomUp, scc...)
	}
	return cg
}

// TopoRank returns a global topological rank for a location, used by the
// static-state-merging strategy to pick states in CFG topological order:
// earlier blocks in RPO come first; within a block, instruction order.
func (g *FuncCFG) TopoRank(pc int) int {
	if len(g.Blocks) == 0 {
		return pc
	}
	b := g.BlockOf[pc]
	return g.RPOIndex[b]<<16 | (pc - g.Blocks[b].Start)
}
