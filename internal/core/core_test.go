package core

// White-box engine tests: state forking and copy-on-write, path-condition
// prefix sharing, merging mechanics, similarity hashing, and the
// Algorithm 1 / Algorithm 2 bookkeeping that the public API tests cannot
// observe directly.

import (
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"symmerge/internal/analysis"
	"symmerge/internal/expr"
	"symmerge/internal/solver"

	"symmerge/internal/lang"
	"symmerge/internal/qce"
)

// dfs is a minimal strategy for white-box engine tests.
type dfs struct{ items []*State }

func (s *dfs) Add(st *State) { s.items = append(s.items, st) }
func (s *dfs) Remove(st *State) {
	for i, x := range s.items {
		if x == st {
			s.items = append(s.items[:i], s.items[i+1:]...)
			return
		}
	}
}
func (s *dfs) Pick() *State {
	if len(s.items) == 0 {
		return nil
	}
	return s.items[len(s.items)-1]
}
func (s *dfs) Len() int { return len(s.items) }

func newTestEngine(t testing.TB, src string, cfg Config) *Engine {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UseQCE && cfg.QCE.Beta == 0 {
		cfg.QCE = qce.DefaultParams()
	}
	return NewEngine(p, cfg, &dfs{})
}

const arraySrc = `
void touch(byte buf[4]) {
    buf[1] = 7;
}
void main() {
    byte b[4];
    b[0] = 1;
    touch(b);
    putchar(b[0]);
}
`

func TestForkCopyOnWrite(t *testing.T) {
	e := newTestEngine(t, arraySrc, Config{})
	s := e.initialState()
	// Write into the parent's array, fork, then write into the child.
	obj := s.object(ObjRef{Depth: 0, Local: 0}, true)
	obj.Cells[0] = e.build.Const(11, 8)

	child := s.fork(99)
	cobj := child.object(ObjRef{Depth: 0, Local: 0}, true)
	cobj.Cells[0] = e.build.Const(22, 8)

	// The parent must be unaffected by the child's write.
	pv := s.object(ObjRef{Depth: 0, Local: 0}, false).Cells[0]
	if pv.Val != 11 {
		t.Fatalf("parent cell changed to %d after child write", pv.Val)
	}
	cv := child.object(ObjRef{Depth: 0, Local: 0}, false).Cells[0]
	if cv.Val != 22 {
		t.Fatalf("child cell is %d, want 22", cv.Val)
	}
}

func TestForkSharesUntouchedObjects(t *testing.T) {
	e := newTestEngine(t, arraySrc, Config{})
	s := e.initialState()
	child := s.fork(99)
	// Reading must not clone.
	po := s.object(ObjRef{Depth: 0, Local: 0}, false)
	co := child.object(ObjRef{Depth: 0, Local: 0}, false)
	if po != co {
		t.Fatal("untouched objects were copied on fork")
	}
}

func TestAppendPCSharing(t *testing.T) {
	e := newTestEngine(t, arraySrc, Config{})
	b := e.build
	x := b.Var("x", 8)
	base := appendPC(nil, b.Ult(x, b.Const(5, 8)))
	c1 := appendPC(base, b.Eq(x, b.Const(1, 8)))
	c2 := appendPC(base, b.Eq(x, b.Const(2, 8)))
	// The shared prefix must remain pointer-identical for prefix
	// factoring during merges.
	if c1[0] != c2[0] || c1[0] != base[0] {
		t.Fatal("prefix sharing broken")
	}
	if len(base) != 1 {
		t.Fatal("appendPC mutated its input")
	}
}

func TestStackHashAndSameStack(t *testing.T) {
	e := newTestEngine(t, arraySrc, Config{})
	a := e.initialState()
	b := e.initialState()
	if a.stackHash() != b.stackHash() || !sameStack(a, b) {
		t.Fatal("identical stacks hash differently")
	}
	b.top().PC = 3
	if a.stackHash() == b.stackHash() || sameStack(a, b) {
		t.Fatal("different PCs produce same stack hash")
	}
}

func TestMergeScalarsAndMultiplicity(t *testing.T) {
	src := `
void main() {
    int r = 1;
    if (argchar(1, 0) == '-') {
        r = 0;
    }
    putchar(tobyte('0' + r));
}
`
	e := newTestEngine(t, src, Config{NArgs: 1, ArgLen: 1, Merge: MergeSSM})
	s := e.initialState()
	succ := e.stepBlock(s)
	if len(succ) != 2 {
		t.Fatalf("branch produced %d states, want 2", len(succ))
	}
	a, b := succ[0], succ[1]
	// Drive both to the same location (the merge point after the if).
	for !sameStack(a, b) {
		if e.TopoLess(a, b) {
			a = e.stepBlock(a)[0]
		} else {
			b = e.stepBlock(b)[0]
		}
	}
	if !e.similar(a, b) {
		t.Fatal("same-location states not similar under merge-everything")
	}
	m := e.merge(a, b)
	if m.Mult.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("merged multiplicity %s, want 2", m.Mult)
	}
	// r must now be an ite (or otherwise symbolic) in the merged store.
	rIdx := -1
	for i, l := range e.prog.Main.Locals {
		if l.Name == "r" {
			rIdx = i
		}
	}
	rv := m.Frames[0].Locals[rIdx].E
	if rv == nil || !rv.IsSymbolic() {
		t.Fatalf("merged r = %v, want symbolic ite", rv)
	}
	// The merged path condition must be weaker than either side: its
	// conjunction is satisfiable and covers both branches.
	if ok, _, err := e.solv.CheckSat(m.PC); err != nil || !ok {
		t.Fatalf("merged pc unsat: %v", err)
	}
}

func TestMergePrefixFactoring(t *testing.T) {
	e := newTestEngine(t, arraySrc, Config{})
	b := e.build
	x := b.Var("x", 8)
	shared := b.Ult(x, b.Const(100, 8))

	s1 := e.initialState()
	s2 := s1.fork(e.nextID)
	s1.PC = appendPC(appendPC(nil, shared), b.Eq(x, b.Const(1, 8)))
	s2.PC = appendPC(appendPC(nil, shared), b.Eq(x, b.Const(2, 8)))
	m := e.merge(s1, s2)
	// The merged pc must keep the shared conjunct unwrapped and add a
	// single disjunction for the differing suffix.
	if len(m.PC) != 2 {
		t.Fatalf("merged pc has %d conjuncts, want 2 (prefix + disjunction)", len(m.PC))
	}
	if m.PC[0] != shared {
		t.Fatal("common prefix not factored")
	}
}

func TestSimilarRequiresEqualHotConcretes(t *testing.T) {
	src := `
void main() {
    int n = 0;
    if (argchar(1, 0) == 'x') {
        n = 2;
    } else {
        n = 1;
    }
    for (int i = 0; i < n; i++) {
        putchar('y');
    }
    putchar('\n');
}
`
	// n drives a later loop bound: with a small alpha it must be hot, so
	// states with different concrete n may not merge. Both branches fall
	// into the loop, so the states first share a stack at the loop body
	// where n is live.
	cfg := Config{NArgs: 1, ArgLen: 1, Merge: MergeSSM, UseQCE: true}
	cfg.QCE = qce.Params{Alpha: 0.01, Beta: 0.8, Kappa: 10, Zeta: 1}
	e := newTestEngine(t, src, cfg)
	s := e.initialState()
	succ := e.stepBlock(s)
	if len(succ) != 2 {
		t.Fatalf("got %d successors", len(succ))
	}
	a, b := succ[0], succ[1]
	for !sameStack(a, b) {
		if e.TopoLess(a, b) {
			a = e.stepBlock(a)[0]
		} else {
			b = e.stepBlock(b)[0]
		}
	}
	if e.similar(a, b) {
		t.Fatal("states with differing hot concrete n reported similar")
	}
	// With merging-everything (no QCE) they must be similar.
	e.qce = nil
	if !e.similar(a, b) {
		t.Fatal("merge-everything rejected same-location states")
	}
}

func TestSimHashFiltersSymbolic(t *testing.T) {
	e := newTestEngine(t, arraySrc, Config{UseQCE: true, Merge: MergeDSM})
	b := e.build
	if filterHash(b.Var("x", 8)) != filterHash(b.Var("y", 8)) {
		t.Fatal("two symbolic values hash differently (must both be ⋆)")
	}
	if filterHash(b.Const(1, 8)) == filterHash(b.Const(2, 8)) {
		t.Fatal("distinct concrete values collide trivially")
	}
}

func TestHistoryRing(t *testing.T) {
	s := &State{}
	for i := uint64(1); i <= 10; i++ {
		s.pushHistory(i, 4)
	}
	if len(s.history) != 4 {
		t.Fatalf("ring size %d, want 4", len(s.history))
	}
	// Must contain exactly 7..10.
	seen := map[uint64]bool{}
	for _, h := range s.history {
		seen[h] = true
	}
	for i := uint64(7); i <= 10; i++ {
		if !seen[i] {
			t.Fatalf("ring lost recent entry %d: %v", i, s.history)
		}
	}
}

// TestOutputGuardedMerge merges two states that each printed 'a' on their
// own after a shared 'x', one of them then 'b': a model of either side must
// print exactly what that side printed.
func TestOutputGuardedMerge(t *testing.T) {
	e := newTestEngine(t, arraySrc, Config{})
	b := e.build
	c := b.Var("c", 0)
	s1 := e.initialState()
	s1.Output = putOut(nil, b.Const('x', 8))
	s2 := s1.fork(e.nextID)
	s1.PC = appendPC(nil, c)
	s2.PC = appendPC(nil, b.Not(c))
	s1.Output = putOut(putOut(s1.Output, b.Const('a', 8)), b.Const('b', 8))
	s2.Output = putOut(s2.Output, b.Const('a', 8))
	m := e.merge(s1, s2)
	for _, tc := range []struct {
		c    uint64
		want string
	}{{1, "xab"}, {0, "xa"}} {
		got := emitOut(&expr.Evaluator{Env: expr.Env{c: tc.c}}, m.Output)
		if string(got) != tc.want {
			t.Errorf("c=%d: merged state prints %q, want %q", tc.c, got, tc.want)
		}
	}
}

// refEntry and refOut are the output representation the persistent stream
// replaced, kept as the oracle for it: a flat list of guarded entries. A
// merge keeps the two lists' value-equal common prefix and appends each
// side's remaining entries with that side's path-condition suffix
// conjoined to their guards (guardOut).
type refEntry struct {
	Guard *expr.Expr // nil = unconditional
	Val   *expr.Expr
}

type refOut []refEntry

func guardOut(b *expr.Builder, en refEntry, cond *expr.Expr) refEntry {
	if en.Guard == nil {
		return refEntry{Guard: cond, Val: en.Val}
	}
	return refEntry{Guard: b.And(en.Guard, cond), Val: en.Val}
}

func refMerge(b *expr.Builder, o1, o2 refOut, c1, c2 *expr.Expr) refOut {
	k := 0
	for k < len(o1) && k < len(o2) && o1[k] == o2[k] {
		k++
	}
	out := append(refOut(nil), o1[:k]...)
	for _, en := range o1[k:] {
		out = append(out, guardOut(b, en, c1))
	}
	for _, en := range o2[k:] {
		out = append(out, guardOut(b, en, c2))
	}
	return out
}

func (o refOut) emit(ev *expr.Evaluator) []byte {
	var out []byte
	for _, en := range o {
		if en.Guard == nil || ev.Bool(en.Guard) {
			out = append(out, byte(ev.Eval(en.Val)))
		}
	}
	return out
}

// streamGen drives random fork/putchar/merge sequences on an engine's
// states, keeping the reference representation beside each state's stream.
type streamGen struct {
	e     *Engine
	rng   *rand.Rand
	bools []*expr.Expr // b0..b3
	bytes []*expr.Expr // x0, x1
}

// cuts are the constants byte conditions compare against.
var cuts = []uint64{10, 200}

type genState struct {
	s   *State
	ref refOut
}

func (g *streamGen) cond() *expr.Expr {
	b := g.e.build
	switch g.rng.Intn(3) {
	case 0:
		return g.bools[g.rng.Intn(len(g.bools))]
	case 1:
		return b.Ult(g.bytes[g.rng.Intn(len(g.bytes))], b.Const(cuts[g.rng.Intn(len(cuts))], 8))
	default:
		return b.Eq(g.bytes[g.rng.Intn(len(g.bytes))], b.Const(cuts[g.rng.Intn(len(cuts))], 8))
	}
}

// byteVal is a constant or symbolic byte to print.
func (g *streamGen) byteVal() *expr.Expr {
	b := g.e.build
	x := g.bytes[g.rng.Intn(len(g.bytes))]
	switch g.rng.Intn(4) {
	case 0, 1:
		return b.Const(uint64('a'+g.rng.Intn(2)), 8)
	case 2:
		return x
	default:
		return b.Ite(g.bools[g.rng.Intn(len(g.bools))], b.Add(x, b.Const(1, 8)), b.Const('n', 8))
	}
}

func (g *streamGen) put(st genState, v *expr.Expr) genState {
	st.s.Output = putOut(st.s.Output, v)
	st.ref = append(st.ref[:len(st.ref):len(st.ref)], refEntry{Val: v})
	return st
}

func (g *streamGen) print(st genState) genState {
	for n := g.rng.Intn(3); n > 0; n-- {
		st = g.put(st, g.byteVal())
	}
	return st
}

// fork splits st on a fresh condition; half the time both sides then print
// the same byte, each on its own.
func (g *streamGen) fork(st genState) (genState, genState) {
	c := g.cond()
	other := genState{s: st.s.fork(g.e.nextID), ref: st.ref}
	g.e.nextID++
	st.s.PC = appendPC(st.s.PC, c)
	other.s.PC = appendPC(other.s.PC, g.e.build.Not(c))
	if g.rng.Intn(2) == 0 {
		v := g.byteVal()
		st, other = g.put(st, v), g.put(other, v)
	}
	return st, other
}

// merge merges both the states and their references, in random order.
func (g *streamGen) merge(x, y genState) genState {
	if g.rng.Intn(2) == 0 {
		x, y = y, x
	}
	k := 0
	for k < len(x.s.PC) && k < len(y.s.PC) && x.s.PC[k] == y.s.PC[k] {
		k++
	}
	b := g.e.build
	ref := refMerge(b, x.ref, y.ref, b.AndN(x.s.PC[k:]), b.AndN(y.s.PC[k:]))
	return genState{s: g.e.merge(x.s, y.s), ref: ref}
}

// run prints, forks and merges below st, nesting merges depth deep. A
// three-way split merges a merged state with a state forked before it.
func (g *streamGen) run(st genState, depth int) genState {
	st = g.print(st)
	if depth == 0 {
		return st
	}
	a, b := g.fork(st)
	var m genState
	if g.rng.Intn(3) == 0 {
		b1, b2 := g.fork(g.print(b))
		a, b1, b2 = g.run(a, depth-1), g.run(b1, depth-1), g.run(b2, depth-1)
		if g.rng.Intn(2) == 0 {
			m = g.merge(g.merge(a, b1), b2)
		} else {
			m = g.merge(a, g.merge(b1, b2))
		}
	} else {
		m = g.merge(g.run(a, depth-1), g.run(b, depth-1))
	}
	return g.print(m)
}

// assignments lists every assignment of the boolean inputs, with each byte
// input ranging over the values around the constants conditions compare it
// with: together they decide every condition both ways in every
// combination.
func (g *streamGen) assignments() []expr.Env {
	vals := []uint64{0, 255}
	for _, c := range cuts {
		vals = append(vals, c-1, c, c+1)
	}
	envs := []expr.Env{{}}
	for _, v := range g.bools {
		var next []expr.Env
		for _, env := range envs {
			for _, x := range []uint64{0, 1} {
				e := maps.Clone(env)
				e[v] = x
				next = append(next, e)
			}
		}
		envs = next
	}
	for _, v := range g.bytes {
		var next []expr.Env
		for _, env := range envs {
			for _, x := range vals {
				e := maps.Clone(env)
				e[v] = x
				next = append(next, e)
			}
		}
		envs = next
	}
	return envs
}

// TestOutputStreamMatchesReference runs random fork/putchar/merge sequences
// with merges nested at least four deep. Under every input assignment that
// satisfies the final path condition the stream must print what the
// reference prints, and so must the state rebuilt from its frontier, both
// through the producing builder and through a fresh one. The frontier of
// either rebuilt state must equal the one it was rebuilt from.
func TestOutputStreamMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		e := newTestEngine(t, arraySrc, Config{})
		b := e.build
		g := &streamGen{e: e, rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 4; i++ {
			g.bools = append(g.bools, b.Var(fmt.Sprintf("b%d", i), 0))
		}
		for i := 0; i < 2; i++ {
			g.bytes = append(g.bytes, b.Var(fmt.Sprintf("x%d", i), 8))
		}
		final := g.run(genState{s: e.initialState()}, 4)

		fr := e.frontier([]*State{final.s})
		restored, err := e.statesFromWire(&fr)
		if err != nil {
			t.Fatalf("seed %d: same-builder restore: %v", seed, err)
		}
		same := restored[0]
		if again := e.frontier(restored); !reflect.DeepEqual(again, fr) {
			t.Fatalf("seed %d: restored state's frontier differs from the one it was restored from", seed)
		}
		e2 := newTestEngine(t, arraySrc, Config{})
		restored, err = e2.statesFromWire(&fr)
		if err != nil {
			t.Fatalf("seed %d: fresh-builder restore: %v", seed, err)
		}
		fresh := restored[0]
		if again := e2.frontier(restored); !reflect.DeepEqual(again, fr) {
			t.Fatalf("seed %d: frontier restored through a fresh builder does not snapshot back identically", seed)
		}

		sat := 0
		for _, env := range g.assignments() {
			ev := &expr.Evaluator{Env: env}
			holds := true
			for _, c := range final.s.PC {
				if !ev.Bool(c) {
					holds = false
					break
				}
			}
			if !holds {
				continue
			}
			sat++
			want := final.ref.emit(ev)
			env2 := expr.Env{}
			for v, x := range env {
				env2[e2.build.Var(v.Name, v.Width)] = x
			}
			for _, got := range []struct {
				label string
				out   []byte
			}{
				{"stream", emitOut(ev, final.s.Output)},
				{"same-builder restore", emitOut(ev, same.Output)},
				{"fresh-builder restore", emitOut(&expr.Evaluator{Env: env2}, fresh.Output)},
			} {
				if string(got.out) != string(want) {
					t.Fatalf("seed %d, %v: %s prints %q, reference %q", seed, env, got.label, got.out, want)
				}
			}
		}
		if sat == 0 {
			t.Fatalf("seed %d: no assignment satisfies the final path condition", seed)
		}
	}
}

// BenchmarkMergeLongOutput merges states that share an n-byte printed
// prefix and each print a few bytes of their own, nesting the merges four
// levels deep (15 merges per op). A merge should cost what the two states
// printed since they diverged, not the length of the shared prefix.
func BenchmarkMergeLongOutput(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			e := newTestEngine(b, arraySrc, Config{})
			bld := e.build
			root := e.initialState()
			for i := 0; i < n; i++ {
				root.Output = putOut(root.Output, bld.Const(uint64('a'+i%26), 8))
			}
			var conds []*expr.Expr
			for i := 0; i < 4; i++ {
				conds = append(conds, bld.Var(fmt.Sprintf("c%d", i), 0))
			}
			divergent := []*expr.Expr{bld.Const('0', 8), bld.Const('1', 8), bld.Const('2', 8)}
			var level func(s *State, d int) *State
			level = func(s *State, d int) *State {
				if d == len(conds) {
					return s
				}
				s1, s2 := s, s.fork(e.nextID)
				e.nextID++
				s1.PC = appendPC(s1.PC, conds[d])
				s2.PC = appendPC(s2.PC, bld.Not(conds[d]))
				for _, v := range divergent {
					s1.Output = putOut(s1.Output, v)
					s2.Output = putOut(s2.Output, v)
				}
				return e.merge(level(s1, d+1), level(s2, d+1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mergeSink = level(root.fork(e.nextID), 0)
			}
		})
	}
}

var mergeSink *State

// summarySrc calls a branching helper twice: function-summary merging must
// collapse the helper's intraprocedural paths at each return, keeping the
// caller's state count flat where plain exploration multiplies it.
const summarySrc = `
int classify(byte c) {
    if (c == '-') { return 0; }
    if (c < '0') { return 1; }
    if (c > '9') { return 2; }
    return 3;
}
void main() {
    int a = classify(argchar(1, 0));
    int b = classify(argchar(2, 0));
    putchar(tobyte('0' + a + b));
}
`

func runWithMode(t *testing.T, src string, mode MergeMode) *Result {
	t.Helper()
	cfg := Config{NArgs: 2, ArgLen: 1, Merge: mode}
	e := newTestEngine(t, src, cfg)
	if mode != MergeNone {
		// Summary/SSM merging needs topological exploration; the engine
		// test strategy is DFS, which suffices here because merging
		// happens whenever states meet — drive with topo for fairness.
		e.strategy = &topoTestStrategy{e: e}
	}
	res := e.Run()
	if !res.Completed {
		t.Fatalf("mode %v did not complete", mode)
	}
	return res
}

// topoTestStrategy picks the topologically earliest state (test-local clone
// of search.Topo, which core cannot import without a cycle).
type topoTestStrategy struct {
	e     *Engine
	items []*State
}

func (s *topoTestStrategy) Add(st *State) { s.items = append(s.items, st) }
func (s *topoTestStrategy) Remove(st *State) {
	for i, x := range s.items {
		if x == st {
			s.items = append(s.items[:i], s.items[i+1:]...)
			return
		}
	}
}
func (s *topoTestStrategy) Pick() *State {
	if len(s.items) == 0 {
		return nil
	}
	best := s.items[0]
	for _, st := range s.items[1:] {
		if s.e.TopoLess(st, best) {
			best = st
		}
	}
	return best
}
func (s *topoTestStrategy) Len() int { return len(s.items) }

func TestMergeFuncSummaries(t *testing.T) {
	plain := runWithMode(t, summarySrc, MergeNone)
	summ := runWithMode(t, summarySrc, MergeFunc)

	// Soundness: the summary run must account for exactly the same number
	// of single paths via multiplicity.
	if summ.Stats.PathsMult.Uint64() != plain.Stats.PathsCompleted {
		t.Fatalf("summary multiplicity %s != plain paths %d",
			summ.Stats.PathsMult, plain.Stats.PathsCompleted)
	}
	if summ.Stats.Merges == 0 {
		t.Fatal("function-summary merging performed no merges")
	}
	// Benefit: merging at each classify return collapses 4 callee paths
	// into 1, so far fewer states complete.
	if summ.Stats.PathsCompleted >= plain.Stats.PathsCompleted {
		t.Fatalf("summary completed %d states, plain %d; expected a reduction",
			summ.Stats.PathsCompleted, plain.Stats.PathsCompleted)
	}
}

// TestMergeFuncOnlyAtReturns: in a program whose branching happens only in
// main (no calls), MergeFunc must behave exactly like MergeNone.
func TestMergeFuncOnlyAtReturns(t *testing.T) {
	src := `
void main() {
    int r = 1;
    if (argchar(1, 0) == '-') { r = 0; }
    if (argchar(1, 1) == 'n') { r = r + 2; }
    putchar(tobyte('0' + r));
}
`
	plain := runWithMode(t, src, MergeNone)
	summ := runWithMode(t, src, MergeFunc)
	if summ.Stats.Merges != 0 {
		t.Fatalf("MergeFunc merged %d times with no call sites", summ.Stats.Merges)
	}
	if summ.Stats.PathsCompleted != plain.Stats.PathsCompleted {
		t.Fatalf("paths %d != plain %d", summ.Stats.PathsCompleted, plain.Stats.PathsCompleted)
	}
}

// TestFullVariantStricterThanPrototype: with a huge ζ, merging symbolic-
// differing values becomes expensive in the Equation (7) criterion, so the
// full variant must reject merges the prototype variant accepts.
func TestFullVariantStricterThanPrototype(t *testing.T) {
	src := `
void main() {
    int x = 0;
    if (argchar(1, 0) == 'x') {
        x = toint(argchar(1, 1)); // symbolic on this side
    }
    for (int i = 0; i < 3; i++) {
        if (x > i) { putchar('y'); }
    }
}
`
	mk := func(zeta float64) (*Engine, *State, *State) {
		cfg := Config{NArgs: 1, ArgLen: 2, Merge: MergeSSM, UseQCE: true}
		cfg.QCE = qce.Params{Alpha: 0.5, Beta: 0.8, Kappa: 10, Zeta: zeta}
		e := newTestEngine(t, src, cfg)
		s := e.initialState()
		succ := e.stepBlock(s)
		if len(succ) != 2 {
			t.Fatalf("got %d successors", len(succ))
		}
		a, b := succ[0], succ[1]
		for i := 0; i < 200 && !sameStack(a, b); i++ {
			if e.TopoLess(a, b) {
				a = e.stepBlock(a)[0]
			} else {
				b = e.stepBlock(b)[0]
			}
		}
		if !sameStack(a, b) {
			t.Fatal("states did not meet")
		}
		return e, a, b
	}
	e1, a1, b1 := mk(1) // prototype variant: x symbolic in one side => mergeable
	if !e1.similar(a1, b1) {
		t.Fatal("prototype variant rejected a merge Equation (1) allows")
	}
	e2, a2, b2 := mk(1e9) // full variant with prohibitive ite cost
	if e2.similar(a2, b2) {
		t.Fatal("full variant with huge ζ still merged ite-creating states")
	}
}

// TestSplitShadowWitnesses pins the census split's query budget and its
// answers. With a witness per shadow path, a split asks at most one query per
// path (the side the witness does not satisfy); without witnesses it asks
// both sides. Either way each side receives exactly the paths the two-query
// reference finds feasible, every filed witness satisfies its path, and the
// witnesses handed in are left untouched. A one-sided split (an assume)
// keeps exactly the reference's true side.
func TestSplitShadowWitnesses(t *testing.T) {
	e := newTestEngine(t, "void main() { }", Config{TrackExactPaths: true})
	b := e.build
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	c8 := func(v uint64) *expr.Expr { return b.Const(v, 8) }
	// Eight disjoint ranges of x, one of them also pinning y.
	var paths [][]*expr.Expr
	for i := uint64(0); i < 8; i++ {
		p := []*expr.Expr{b.Uge(x, c8(32*i)), b.Ult(x, c8(32*i+31))}
		if i == 3 {
			p = append(p, b.Eq(y, c8(9)))
		}
		paths = append(paths, p)
	}
	// cond cuts range 2 in two and otherwise follows the range order;
	// through y it also depends on a variable the witnesses may lack.
	cond := b.Or(b.Ult(x, c8(80)), b.Eq(y, c8(9)))
	notCond := b.Not(cond)
	feasible := func(p []*expr.Expr, c *expr.Expr) bool {
		may, err := e.solv.MayBeTrue(p, c)
		if err != nil {
			t.Fatal(err)
		}
		return may
	}
	var wantTrue, wantFalse [][]*expr.Expr
	for _, p := range paths {
		if feasible(p, cond) {
			wantTrue = append(wantTrue, appendPC(p, cond))
		}
		if feasible(p, notCond) {
			wantFalse = append(wantFalse, appendPC(p, notCond))
		}
	}
	sameShadows := func(label string, s *State, want [][]*expr.Expr) {
		t.Helper()
		if len(s.Shadow) != len(want) || len(s.shadowWit) != len(want) {
			t.Fatalf("%s: %d shadows, %d witnesses, want %d", label, len(s.Shadow), len(s.shadowWit), len(want))
		}
		for i, p := range s.Shadow {
			if len(p) != len(want[i]) {
				t.Fatalf("%s: shadow %d is %v, want %v", label, i, p, want[i])
			}
			for k := range p {
				if p[k] != want[i][k] {
					t.Fatalf("%s: shadow %d is %v, want %v", label, i, p, want[i])
				}
			}
			w := s.shadowWit[i]
			for _, c := range p {
				if w == nil || !expr.EvalBool(c, expr.Env(w)) {
					t.Fatalf("%s: witness %v does not satisfy shadow %d: %v", label, w, i, p)
				}
			}
		}
	}
	witnesses := func() []solver.Model {
		ws := make([]solver.Model, len(paths))
		for i, p := range paths {
			ok, m, err := e.solv.CheckSat(p)
			if err != nil || !ok {
				t.Fatalf("path %d: ok=%v err=%v", i, ok, err)
			}
			ws[i] = m
		}
		return ws
	}

	for _, withWit := range []bool{true, false} {
		s := e.initialState()
		s.Shadow = paths
		s.shadowWit = nil
		var before []solver.Model
		if withWit {
			s.shadowWit = witnesses()
			for _, w := range s.shadowWit {
				before = append(before, maps.Clone(w))
			}
		}
		handed := s.shadowWit
		other := s.fork(e.nextID)
		q0 := e.solv.Stats.Queries
		e.splitShadow(s, other, cond)
		queries := e.solv.Stats.Queries - q0
		label := fmt.Sprintf("witnesses=%v", withWit)
		if withWit && queries > uint64(len(paths)) {
			t.Errorf("%s: %d queries for %d shadow paths, want at most one each", label, queries, len(paths))
		}
		if !withWit && queries != 2*uint64(len(paths)) {
			t.Errorf("%s: %d queries for %d shadow paths, want two each", label, queries, len(paths))
		}
		sameShadows(label+"/true", s, wantTrue)
		sameShadows(label+"/false", other, wantFalse)
		for i := range before {
			if !maps.Equal(handed[i], before[i]) {
				t.Fatalf("%s: split mutated witness %d", label, i)
			}
		}

		// One-sided: an assume keeps only the true side.
		a := e.initialState()
		a.Shadow = paths
		if withWit {
			a.shadowWit = witnesses()
		}
		e.splitShadow(a, nil, cond)
		sameShadows(label+"/assume", a, wantTrue)
	}
}

// TestEngineUsesSharedFacts: an engine given the program's static facts
// takes each function's CFG from them, and the QCE tables it is given,
// instead of building its own; without facts it builds its own CFGs.
func TestEngineUsesSharedFacts(t *testing.T) {
	p, err := lang.Compile(arraySrc)
	if err != nil {
		t.Fatal(err)
	}
	an := analysis.Analyze(p)
	tables := qce.FromFacts(an, qce.DefaultParams())
	e := NewEngine(p, Config{
		Merge: MergeSSM, UseQCE: true, QCE: qce.DefaultParams(),
		Analysis: an, QCEAnalysis: tables,
	}, &dfs{})
	for i, ff := range an.Funcs {
		if e.cfgs[i] != ff.G {
			t.Errorf("%s: engine built its own CFG despite Config.Analysis", ff.Fn.Name)
		}
	}
	if e.qce != tables {
		t.Error("engine rebuilt the QCE tables it was given")
	}
	own := NewEngine(p, Config{}, &dfs{})
	for i, ff := range an.Funcs {
		if own.cfgs[i] == nil || own.cfgs[i] == ff.G {
			t.Errorf("%s: engine without Config.Analysis has no CFG of its own", ff.Fn.Name)
		}
	}
}

// pigeonAssertSrc asserts that six symbolic bytes are distinct values below
// 5, which they never are (pigeonhole). The condition is one expression,
// not an && chain (which compiles to branches), so its holding side is one
// query whose refutation takes CDCL past its first restart, while its
// failing side is sat at once.
func pigeonAssertSrc() string {
	var src strings.Builder
	var conj []string
	src.WriteString("void main() {\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&src, "    byte p%d = sym_byte();\n", i)
		conj = append(conj, fmt.Sprintf("toint(p%d < 5)", i))
		for j := 0; j < i; j++ {
			conj = append(conj, fmt.Sprintf("toint(p%d != p%d)", j, i))
		}
	}
	fmt.Fprintf(&src, "    assert((%s) == 1);\n}\n", strings.Join(conj, " & "))
	return src.String()
}

// TestAssertTimeoutIsNotAFailure: an assert whose holding side runs out of
// solver budget ends its path with a budget error, not with a definite
// assertion failure that a corpus would keep as a replayable test. The
// SAT solver checks its deadline at restarts, so under an expired deadline
// the failing side is answered and the holding side times out.
func TestAssertTimeoutIsNotAFailure(t *testing.T) {
	e := newTestEngine(t, pigeonAssertSrc(), Config{})
	e.Solver().SetDeadline(time.Now().Add(-time.Second))
	res := e.Run()
	if n := e.Solver().Stats.Timeouts; n != 1 {
		t.Fatalf("solver timeouts = %d, want 1 (the holding side)", n)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("error paths = %v, want 1", res.Errors)
	}
	if pe := res.Errors[0]; pe.Assert || pe.Msg != "solver budget exhausted at assert" {
		t.Fatalf("error path %q with Assert %v, want the budget error without Assert", pe.Msg, pe.Assert)
	}
}
