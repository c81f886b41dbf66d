package core

import (
	"context"
	"math/big"
	"sort"
	"sync/atomic"
	"time"

	"symmerge/internal/analysis"
	"symmerge/internal/cfg"
	"symmerge/internal/checkpoint/faultinject"
	"symmerge/internal/expr"
	"symmerge/internal/ir"
	"symmerge/internal/obs"
	"symmerge/internal/qce"
	"symmerge/internal/solver"
)

// MergeMode selects the state-merging regime (paper §2.2, §4).
type MergeMode uint8

// Merge modes.
const (
	// MergeNone explores every path separately (plain KLEE).
	MergeNone MergeMode = iota
	// MergeSSM is static state merging: states are picked in CFG
	// topological order and merged at join points whenever the
	// similarity relation allows.
	MergeSSM
	// MergeDSM is dynamic state merging (Algorithm 2): an arbitrary
	// driving strategy picks states, and fast-forwarding briefly
	// overrides it when a state is similar to a recent predecessor of
	// another worklist state.
	MergeDSM
	// MergeFunc merges states only at function-exit join points,
	// realizing precise symbolic function summaries (paper §2.2,
	// "Compositionality"): all intraprocedural paths of a callee are
	// combined into one state when the call returns, and no other merge
	// points exist. With UseQCE the summaries become selective.
	MergeFunc
)

func (m MergeMode) String() string {
	switch m {
	case MergeNone:
		return "none"
	case MergeSSM:
		return "ssm"
	case MergeDSM:
		return "dsm"
	case MergeFunc:
		return "func"
	}
	return "?"
}

// Strategy picks the next state to explore; implementations live in
// symmerge/internal/search. The engine calls Add for every state entering
// the worklist and Remove for every state leaving it.
type Strategy interface {
	Add(*State)
	Remove(*State)
	Pick() *State
	Len() int
}

// StrategyContext is the engine view offered to strategies.
type StrategyContext interface {
	// IsCovered reports whether the instruction has been executed.
	IsCovered(ir.Loc) bool
	// TopoLess orders states by interprocedural CFG topological order.
	TopoLess(a, b *State) bool
}

// Config configures an exploration.
type Config struct {
	Merge MergeMode
	// UseQCE enables the QCE similarity relation; when false and merging
	// is on, all same-location states merge (the Hansen-style baseline).
	UseQCE bool
	QCE    qce.Params

	// Symbolic environment (paper §5.1: symbolic command line and stdin).
	NArgs    int // number of symbolic arguments
	ArgLen   int // max characters per argument (zero-terminated)
	StdinLen int // symbolic stdin bytes

	// ConcreteArgs/ConcreteStdin pin the environment to constants instead
	// (overriding NArgs/ArgLen/StdinLen), turning the engine into a
	// reference interpreter: exactly one path is feasible per branch.
	// Used by the model-conformance tests and for replaying test cases.
	ConcreteArgs  [][]byte
	ConcreteStdin []byte

	// DSMDelta is the fast-forwarding distance δ in basic blocks
	// (paper §5.5 uses 8).
	DSMDelta int

	// Budgets; zero means unlimited.
	MaxSteps  uint64
	MaxTime   time.Duration
	MaxStates int // prune excess states beyond this worklist size

	// Context, when non-nil, cancels the exploration early: the step loop
	// polls it on the same cadence as the wall-clock deadline, so portfolio
	// losers and interrupted CLI runs stop promptly with Completed=false.
	Context context.Context

	// PollEvery sets the step cadence of the context/deadline poll (0 =
	// every 64 steps). The checkpoint driver sets 1: its epoch boundaries
	// arrive as context timeouts, and the default cadence would quantize
	// an epoch shorter than 64 steps' worth of work up to that boundary.
	// A step executes a whole basic block (often with solver queries), so
	// even the every-step poll is noise there.
	PollEvery int

	// Builder, when non-nil, supplies the expression builder instead of a
	// private one. The parallel subsystem shares one (concurrency-safe)
	// builder across all workers so expression identity — pointer equality,
	// builder-unique IDs, and thus counterexample-cache fingerprints — is
	// globally consistent and states can migrate between workers.
	Builder *expr.Builder

	// QCEAnalysis, when non-nil and UseQCE is set, supplies a precomputed
	// analysis instead of running qce.Analyze per engine. The analysis is
	// immutable after construction, so parallel workers share one.
	QCEAnalysis *qce.Analysis

	// Analysis, when non-nil, attaches the program's static dataflow facts
	// (internal/analysis): branch sides the interval analysis proves
	// infeasible are taken without solver queries or path-condition
	// conjuncts, provably-in-bounds array and heap accesses skip their
	// CheckBounds queries, and merging skips ite selectors for locals that
	// are dead at the merge point. All facts are sound over-approximations,
	// so the explored path set — and with it coverage, errors, the exact-path
	// census, and canonical corpora — is identical with or without it; only
	// the work spent proving feasibility shrinks. Immutable after
	// construction; parallel workers share one.
	Analysis *analysis.Program

	// CrossCheckAnalysis re-validates every statically-pruned branch side
	// with a solver query and panics when the solver finds it satisfiable
	// (pruned ⇒ unsat is the analysis soundness contract). Test-only: the
	// fuzz harness runs with it set.
	CrossCheckAnalysis bool

	// CheckBounds makes out-of-bounds array accesses path errors instead
	// of returning 0 / ignoring the write.
	CheckBounds bool

	// TrackExactPaths enables the shadow path census used by Figure 3.
	TrackExactPaths bool

	// MaxTests bounds the number of recorded test cases (0 = 256).
	MaxTests int

	// CollectTests solves for a concrete model at every path end.
	CollectTests bool

	// CanonicalTests makes collected tests replayable and run-independent:
	// inputs come from the lexicographically minimal model of each path
	// (solver.MinModelIn) instead of an arbitrary solver model, so the same
	// path yields byte-identical inputs regardless of worker count, search
	// strategy, or cache state; and a merged state with a shadow census
	// (TrackExactPaths) emits one test per constituent single path rather
	// than one per state, so the union of the tests' concrete executions
	// covers exactly what the symbolic run covered. The corpus subsystem
	// sets this; plain CollectTests keeps the cheaper arbitrary-model path.
	CanonicalTests bool

	// TestSink, when non-nil, receives every collected test case as it is
	// generated, before (and regardless of) the MaxTests-bounded in-memory
	// recording. The corpus writer streams tests to disk through it; with
	// parallel workers all engines share one sink, which therefore must be
	// safe for concurrent calls.
	TestSink func(TestCase)

	// DisableSessions turns off the incremental solver sessions (one
	// blast-once/assume-many SAT instance shared along a state lineage)
	// and makes every query take the one-shot blast path. Ablation knob:
	// the default, sessions on, is measurably faster on branch-heavy
	// workloads.
	DisableSessions bool

	// Obs, when non-nil, attaches the observability layer: each engine
	// takes one trace/metrics lane from it (NewLane) and threads it through
	// its own hooks and its solver. Purely observational — exploration
	// results are byte-identical with or without it.
	Obs *obs.Run

	SolverOpts solver.Options
}

// TestCase is a concrete input reproducing one explored path.
type TestCase struct {
	Args   [][]byte // argv[1..]
	Stdin  []byte
	Output []byte // concrete output bytes under this input (best effort)
	Exit   int64
	IsErr  bool
	Msg    string
	// Assert marks an error test whose failure is an assert tripping —
	// program semantics a concrete interpreter reproduces. Other error
	// kinds (bounds checking, solver budget) are engine analyses with no
	// concrete-replay counterpart; the corpus writer skips those.
	Assert bool
}

// Stats aggregates engine activity.
type Stats struct {
	Steps        uint64
	Instructions uint64
	Forks        uint64

	MergeAttempts uint64 // similarity checks at matching locations
	Merges        uint64
	FFSelected    uint64 // states picked from the fast-forwarding set
	FFMerged      uint64 // fast-forwarded states that did merge

	PathsCompleted uint64   // halted states (a merged state counts once)
	PathsMult      *big.Int // Σ multiplicity over halted states
	ExactPaths     uint64   // shadow census: true single paths completed

	ErrorsFound int
	MaxWorklist int
	Pruned      uint64

	// Static-analysis activity (zero unless Config.Analysis is set).
	PrunedStatic uint64 // branch sides decided without solver queries
	BoundsElided uint64 // array/heap bounds queries skipped as provably safe

	CoveredInstrs  int
	TotalInstrs    int
	ElapsedSeconds float64

	// Corpus emission counters, filled by the symx layer when the run was
	// configured with a CorpusDir: tests streamed to the writer and
	// duplicates dropped by input-hash deduplication.
	TestsEmitted int
	TestsDeduped int
	// TestGenFailures counts path ends whose test was dropped because the
	// model solve failed (solver budget/deadline) rather than being
	// infeasible. A non-zero count means the test set under-represents
	// the explored paths — corpus emission turns it into a CorpusErr so
	// a later replay parity failure is explained at emission time.
	TestGenFailures int

	Solver solver.Stats

	// Rules is a snapshot of the expression builder's per-rewrite-rule hit
	// counters (expr/rules.go), most active first. With a shared builder
	// (parallel workers) the counts are builder-global, not per-engine.
	Rules []expr.RuleHit
}

// Coverage returns statement coverage as a fraction in [0,1].
func (st *Stats) Coverage() float64 {
	if st.TotalInstrs == 0 {
		return 0
	}
	return float64(st.CoveredInstrs) / float64(st.TotalInstrs)
}

// Engine explores a program symbolically.
type Engine struct {
	prog  *ir.Program
	cfg   Config
	build *expr.Builder
	solv  *solver.Solver
	qce   *qce.Analysis
	an    *analysis.Program
	cfgs  []*cfg.FuncCFG

	strategy Strategy
	worklist map[*State]bool
	byStack  map[uint64][]*State // merge-candidate index (stack hash)

	// DSM bookkeeping.
	predCount map[uint64]int             // multiset of all worklist states' history hashes
	curIndex  map[uint64]map[*State]bool // states by current similarity hash
	ffSet     map[*State]uint64          // fast-forwarding set F with matched hash

	coverage []bool
	covered  int

	nextID uint64
	zero8  *expr.Expr
	zero32 *expr.Expr
	argv   [][]*expr.Expr // argv[i] = cells (length ArgLen+1, last forced 0)
	argv0  []byte
	stdin  []*expr.Expr
	hotBuf []int
	inVars []*expr.Expr // cached canonical input-variable order (inputVars)

	stats     Stats
	testCases []TestCase
	errors    []PathError
	deadline  time.Time
	started   time.Time
	stopCause Interrupted
	pollSAT   uint64 // solver SAT-call count at the last context/deadline poll

	// sessRoot is the engine's root solver session. Every state lineage —
	// the entry state and every injected migrant — forks it, so the whole
	// engine shares one persistent SAT core: conjuncts blast once per
	// worker and learned clauses amortize across subtrees, exactly as they
	// do across fork lineages in a sequential run. Nil until first use and
	// when sessions are disabled.
	sessRoot *solver.Session

	// obs is this engine's observability lane (nil when disabled); progPub
	// holds the latest published progress snapshot, the race-free view
	// Stats/LiveProgress serve to other goroutines.
	obs     *obs.Observer
	progPub atomic.Pointer[progressSnap]
}

// progressSnap is one published progress snapshot: a self-contained Stats
// copy (PathsMult detached), the coverage bitmap, and the worklist length
// at publish time. Immutable once stored.
type progressSnap struct {
	stats    Stats
	coverage []bool
	worklist int
}

// NewEngine prepares an exploration of prog under cfg with the given driving
// strategy (may be nil for MergeNone+DFS default — callers normally supply
// one from symmerge/internal/search).
func NewEngine(prog *ir.Program, config Config, strat Strategy) *Engine {
	build := config.Builder
	if build == nil {
		build = expr.NewBuilder()
	}
	e := &Engine{
		prog:      prog,
		cfg:       config,
		build:     build,
		solv:      solver.New(config.SolverOpts),
		worklist:  map[*State]bool{},
		byStack:   map[uint64][]*State{},
		predCount: map[uint64]int{},
		curIndex:  map[uint64]map[*State]bool{},
		ffSet:     map[*State]uint64{},
		coverage:  make([]bool, prog.NumLocations()),
		strategy:  strat,
	}
	e.solv.AttachBuilder(e.build)
	e.zero8 = e.build.Const(0, 8)
	e.zero32 = e.build.Const(0, 32)
	e.cfgs = make([]*cfg.FuncCFG, len(prog.Funcs))
	for i, f := range prog.Funcs {
		e.cfgs[i] = cfg.Build(f)
	}
	if config.UseQCE {
		if config.QCEAnalysis != nil {
			e.qce = config.QCEAnalysis
		} else {
			e.qce = qce.Analyze(prog, config.QCE)
		}
	}
	e.an = config.Analysis
	if e.cfg.DSMDelta == 0 {
		e.cfg.DSMDelta = 8
	}
	if e.cfg.MaxTests == 0 {
		e.cfg.MaxTests = 256
	}
	e.obs = config.Obs.NewLane()
	e.solv.Observe(e.obs)
	e.setupEnv()
	e.publishProgress() // Stats() is valid (if empty) before Begin
	return e
}

// Obs exposes the engine's observability lane (nil when disabled); the
// parallel pool emits frontier steal/donate events on the lane of the
// engine doing the stealing or donating.
func (e *Engine) Obs() *obs.Observer { return e.obs }

// Builder exposes the engine's expression builder (used by tests).
func (e *Engine) Builder() *expr.Builder { return e.build }

// Solver exposes the engine's solver (used by tests).
func (e *Engine) Solver() *solver.Solver { return e.solv }

// setupEnv creates the argv and stdin cell arrays: symbolic variables by
// default, constants when the configuration pins concrete inputs.
func (e *Engine) setupEnv() {
	e.argv0 = []byte("prog")
	if e.cfg.ConcreteArgs != nil || e.cfg.ConcreteStdin != nil {
		for _, arg := range e.cfg.ConcreteArgs {
			cells := make([]*expr.Expr, len(arg)+1)
			for j, c := range arg {
				cells[j] = e.build.Const(uint64(c), 8)
			}
			cells[len(arg)] = e.zero8
			e.argv = append(e.argv, cells)
		}
		e.cfg.NArgs = len(e.cfg.ConcreteArgs)
		for _, c := range e.cfg.ConcreteStdin {
			e.stdin = append(e.stdin, e.build.Const(uint64(c), 8))
		}
		e.cfg.StdinLen = len(e.cfg.ConcreteStdin)
		return
	}
	for i := 0; i < e.cfg.NArgs; i++ {
		cells := make([]*expr.Expr, e.cfg.ArgLen+1)
		for j := 0; j < e.cfg.ArgLen; j++ {
			cells[j] = e.build.Var(argName(i+1, j), 8)
		}
		cells[e.cfg.ArgLen] = e.zero8 // forced terminator
		e.argv = append(e.argv, cells)
	}
	for j := 0; j < e.cfg.StdinLen; j++ {
		e.stdin = append(e.stdin, e.build.Var(stdinName(j), 8))
	}
}

func argName(arg, idx int) string { return "arg" + itoa(arg) + "_" + itoa(idx) }
func stdinName(idx int) string    { return "stdin_" + itoa(idx) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// initialState builds the entry state at main.
func (e *Engine) initialState() *State {
	s := &State{
		ID:   e.nextID,
		Mult: big.NewInt(1),
	}
	if n := e.prog.AllocSites; n > 0 {
		s.allocs = make([]uint16, n)
	}
	s.sess = e.forkRootSession()
	e.nextID++
	s.pushFrame(e.newFrame(e.prog.Main, -1))
	if e.cfg.TrackExactPaths {
		s.addShadow(nil, solver.Model{}) // the empty path: anything satisfies it
	}
	return s
}

// newFrame allocates a frame with zero-initialized locals and fresh array
// objects for array-typed locals.
func (e *Engine) newFrame(fn *ir.Func, retDst int) *Frame {
	f := &Frame{Fn: fn.Index, RetDst: retDst}
	f.Locals = make([]Value, len(fn.Locals))
	f.Objects = make([]*Object, len(fn.Locals))
	for i, l := range fn.Locals {
		switch l.Type.Kind {
		case ir.Bool:
			f.Locals[i] = Value{E: e.build.False()}
		case ir.Byte:
			f.Locals[i] = Value{E: e.zero8}
		case ir.Int, ir.Ptr: // ptr zero-initializes to the null pointer
			f.Locals[i] = Value{E: e.zero32}
		case ir.ArrayByte, ir.ArrayInt:
			w := uint8(8)
			zeroCell := e.zero8
			if l.Type.Kind == ir.ArrayInt {
				w, zeroCell = 32, e.zero32
			}
			cells := make([]*expr.Expr, l.Type.Len)
			for c := range cells {
				cells[c] = zeroCell
			}
			f.Objects[i] = &Object{Cells: cells, Width: w}
			f.Locals[i] = Value{Ref: ObjRef{Depth: -1, Local: i}} // own; depth fixed on push
		}
	}
	return f
}

// pushFrame appends the frame, fixing self-references to the actual depth.
func (s *State) pushFrame(f *Frame) {
	depth := len(s.Frames)
	for i := range f.Locals {
		if f.Objects[i] != nil {
			f.Locals[i].Ref = ObjRef{Depth: depth, Local: i}
		}
	}
	s.Frames = append(s.Frames, f)
}

// Interrupted classifies why an exploration returned with Completed=false,
// so a truncated run is never silently reported as a full census. The
// values are ordered by how much the caller should care: when parallel
// workers stop for different reasons the aggregate keeps the maximum.
type Interrupted uint8

// Interruption causes.
const (
	// IntrNone: not interrupted (the worklist drained).
	IntrNone Interrupted = iota
	// IntrBudget: a resource budget tripped (MaxSteps or MaxTime).
	IntrBudget
	// IntrContext: Config.Context was cancelled (Ctrl-C, portfolio loss).
	IntrContext
	// IntrCheckpoint: the run stopped early but its frontier was written to
	// a checkpoint — the exploration is resumable, nothing was dropped.
	// Set by the symx checkpoint driver, not by the engine itself.
	IntrCheckpoint
)

func (i Interrupted) String() string {
	switch i {
	case IntrNone:
		return "none"
	case IntrBudget:
		return "budget"
	case IntrContext:
		return "context"
	case IntrCheckpoint:
		return "checkpoint"
	}
	return "?"
}

// Result bundles the outcome of Run.
type Result struct {
	Stats  Stats
	Tests  []TestCase
	Errors []PathError
	// Completed is true when the worklist drained (exhaustive
	// exploration); false when a budget stopped the run.
	Completed bool
	// Interrupted records why the run stopped when Completed is false
	// (budget, cancellation, or preemption-with-checkpoint); IntrNone when
	// the exploration finished.
	Interrupted Interrupted
	// PortfolioWinner is the index of the winning configuration when the
	// run raced a portfolio (symx.Config.Portfolio); -1 otherwise.
	PortfolioWinner int
	// CoverageMask is the per-location coverage bitmap (Program.LocIndex
	// order; CoveredInstrs counts its set bits). The corpus manifest
	// records it as the symbolic covered set replays are checked against.
	CoverageMask []bool
	// CorpusErr reports a corpus-emission failure (symx.Config.CorpusDir):
	// an unwritable directory, a non-replayable program, or an I/O error
	// while streaming tests. The exploration result itself is unaffected.
	CorpusErr error
	// CheckpointErr reports a failure to persist a snapshot
	// (symx.Config.CheckpointDir). The exploration result itself is
	// unaffected, but a crash would lose the progress made since the last
	// snapshot that did persist.
	CheckpointErr error
	// ConfigErr reports a configuration the run refused up front (an
	// unknown search strategy, for example): nothing was explored and the
	// rest of the result is empty. Refusing beats the historical behaviour
	// of silently exploring under a fallback strategy while any corpus
	// manifest recorded the misspelled name.
	ConfigErr error
	// Trace accounting, filled by the symx layer when the run was
	// configured with a trace file: events written, events dropped because
	// the sink's bounded buffer was full (a non-zero count means the trace
	// is incomplete — the exploration itself is never affected), and any
	// write/close error on the trace stream.
	TraceEvents uint64
	TraceDrops  uint64
	TraceErr    error
}

// Run explores until the worklist drains or a budget trips.
func (e *Engine) Run() *Result {
	e.Begin(true)
	completed := true
	for e.strategy.Len() > 0 {
		if e.stopRequested() {
			completed = false
			break
		}
		if !e.stepOnce() {
			break
		}
	}
	return e.Finish(completed)
}

// Begin starts the exploration clock, arms the budgets, and (when seed is
// set) enqueues the entry state. Parallel workers call Begin(false) and
// receive their states via Inject; Run calls Begin(true).
func (e *Engine) Begin(seed bool) {
	e.started = time.Now()
	if e.cfg.MaxTime > 0 {
		e.deadline = e.started.Add(e.cfg.MaxTime)
		// Bound individual solver calls by the same deadline (plus
		// slack for the final call in flight): merged states can
		// produce single queries that would otherwise outlive the
		// whole exploration budget.
		e.solv.SetDeadline(e.deadline.Add(e.cfg.MaxTime / 4))
	}
	e.stats.PathsMult = big.NewInt(0)
	e.stats.TotalInstrs = e.prog.NumLocations()
	if seed {
		e.addState(e.initialState())
	}
	e.publishProgress()
}

// stopRequested reports whether a budget or cancellation should end the
// exploration, recording the cause for Result.Interrupted. The wall clock
// and the context are polled every 64 steps, and after any step that
// reached SAT: such a step can take long enough to overrun the budget on
// its own, while a step answered without SAT is too cheap to pay for a
// clock read.
func (e *Engine) stopRequested() bool {
	if e.cfg.MaxSteps > 0 && e.stats.Steps >= e.cfg.MaxSteps {
		e.stopCause = IntrBudget
		return true
	}
	poll := uint64(64)
	if e.cfg.PollEvery > 0 {
		poll = uint64(e.cfg.PollEvery)
	}
	if e.stats.Steps%poll == 0 || e.solv.Stats.SATCalls != e.pollSAT {
		e.pollSAT = e.solv.Stats.SATCalls
		if e.cfg.Context != nil && e.cfg.Context.Err() != nil {
			e.stopCause = IntrContext
			return true
		}
		if !e.deadline.IsZero() && time.Now().After(e.deadline) {
			e.stopCause = IntrBudget
			return true
		}
	}
	return false
}

// stepOnce runs one scheduler step: pick, step to the next block boundary,
// dispatch successors. It reports whether a state was stepped.
func (e *Engine) stepOnce() bool {
	faultinject.Hit(faultinject.PointStep)
	s := e.pickNext()
	if s == nil {
		return false
	}
	e.removeState(s)
	e.stats.Steps++
	t0 := e.obs.StepStart()
	succs := e.stepBlock(s)
	for _, ns := range succs {
		e.dispatch(ns)
	}
	e.obs.StepDone(t0, len(e.worklist))
	if n := e.strategy.Len(); n > e.stats.MaxWorklist {
		e.stats.MaxWorklist = n
	}
	if e.cfg.MaxStates > 0 {
		e.pruneExcess()
	}
	if e.stats.Steps&63 == 0 {
		e.publishProgress()
	}
	return true
}

// RunStatus is the outcome of a bounded StepN call.
type RunStatus uint8

// StepN outcomes.
const (
	// RunMore: the quantum ran out with work remaining.
	RunMore RunStatus = iota
	// RunDrained: the worklist is empty.
	RunDrained
	// RunStopped: a budget tripped or the context was cancelled.
	RunStopped
)

// StepN runs up to n scheduler steps. It is the quantum the parallel
// subsystem's workers interleave with frontier polls: returning to the
// caller every n steps bounds how stale a worker's view of the shared
// frontier (hungry peers, cancellation) can get.
func (e *Engine) StepN(n int) RunStatus {
	for i := 0; i < n; i++ {
		if e.strategy.Len() == 0 {
			return RunDrained
		}
		if e.stopRequested() {
			return RunStopped
		}
		if !e.stepOnce() {
			return RunDrained
		}
	}
	if e.strategy.Len() == 0 {
		return RunDrained
	}
	return RunMore
}

// Finish closes the exploration and packages the result. completed should
// be false when a budget or cancellation stopped the run early.
func (e *Engine) Finish(completed bool) *Result {
	e.stats.CoveredInstrs = e.covered
	e.stats.Solver = e.solv.Stats
	if e.cfg.Builder == nil {
		// Rule counters are builder-global. Only an engine that owns its
		// builder may embed them; with a shared builder (parallel workers,
		// the checkpoint driver) every worker would report the same global
		// counters and summing snapshots would multiply them by the worker
		// count — parallel.Combine attributes the shared builder's counters
		// exactly once, at the pool level.
		e.stats.Rules = e.build.RuleHits()
	}
	e.stats.ElapsedSeconds = time.Since(e.started).Seconds()
	e.publishProgress()
	res := &Result{
		Stats:           e.stats,
		Tests:           e.testCases,
		Errors:          e.errors,
		Completed:       completed,
		PortfolioWinner: -1,
		CoverageMask:    e.CoverageMask(),
	}
	if !completed {
		res.Interrupted = e.stopCause
		if res.Interrupted == IntrNone {
			// Stopped for a reason the engine never observed itself (a
			// parallel frontier closing on a peer's budget): a budget-class
			// interruption.
			res.Interrupted = IntrBudget
		}
	}
	return res
}

// Progress packages the engine's cumulative result so far WITHOUT closing
// the exploration: the checkpoint driver persists it alongside the frontier
// snapshot between StepN quanta while the run continues.
func (e *Engine) Progress() *Result {
	res := e.Finish(false)
	res.Interrupted = IntrNone
	if res.Stats.PathsMult != nil {
		// Detach from the live counter, which later steps mutate in place.
		res.Stats.PathsMult = new(big.Int).Set(res.Stats.PathsMult)
	}
	return res
}

// WorklistLen reports the number of live states awaiting exploration.
func (e *Engine) WorklistLen() int { return len(e.worklist) }

// Inject adopts a state detached from another engine (or freshly seeded by
// the splitter): it re-numbers the state into this engine's ID space —
// keeping victim selection and TopoLess tie-breaks deterministic per worker
// — attaches a fresh solver session (the path condition re-blasts here on
// demand), and dispatches it, so an incoming state may immediately merge
// with a resident one.
func (e *Engine) Inject(s *State) {
	s.ID = e.nextID
	e.nextID++
	if s.sess == nil {
		s.sess = e.forkRootSession()
	}
	e.dispatch(s)
}

// forkRootSession hands out a lineage session sharing the engine-wide
// persistent SAT core (nil when sessions are disabled).
func (e *Engine) forkRootSession() *solver.Session {
	if e.cfg.DisableSessions {
		return nil
	}
	if e.sessRoot == nil {
		e.sessRoot = e.solv.NewSession()
	}
	return e.sessRoot.Fork()
}

// ExtractStates detaches up to max worklist states for migration to another
// engine, always leaving at least one behind (the donor keeps working).
// Victims are the oldest states (lowest ID): in a forking exploration the
// oldest frontier entries root the largest unexplored subtrees, which makes
// them the best work to ship elsewhere. Returned states are fully detached
// — no mutable memory is shared with this engine (see State.detach).
func (e *Engine) ExtractStates(max int) []*State {
	return e.extract(max, 1)
}

// ExtractAll detaches every worklist state (the splitter's hand-off to the
// frontier after the initial sharding phase).
func (e *Engine) ExtractAll() []*State {
	return e.extract(len(e.worklist), 0)
}

func (e *Engine) extract(max, keep int) []*State {
	n := len(e.worklist) - keep
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil
	}
	all := make([]*State, 0, len(e.worklist))
	for s := range e.worklist {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	victims := all[:n]
	for _, s := range victims {
		e.removeState(s)
		s.detach()
	}
	return victims
}

// CoverageMask returns a copy of the per-location coverage bitmap, for
// cross-worker union at join time.
func (e *Engine) CoverageMask() []bool {
	out := make([]bool, len(e.coverage))
	copy(out, e.coverage)
	return out
}

// dispatch routes a stepped successor: record completion, attempt merging,
// or return it to the worklist.
func (e *Engine) dispatch(ns *State) {
	if ns.Halt != HaltNone {
		e.finishState(ns)
		return
	}
	mergeable := e.cfg.Merge != MergeNone
	if e.cfg.Merge == MergeFunc {
		// Function-summary merging joins states only where a call just
		// returned; everywhere else paths stay separate.
		mergeable = ns.justRet
	}
	if mergeable {
		if merged := e.tryMerge(ns); merged {
			return
		}
	}
	e.addState(ns)
}

// addState inserts a state into the worklist and all indexes.
func (e *Engine) addState(s *State) {
	e.worklist[s] = true
	e.strategy.Add(s)
	key := s.stackHash()
	e.byStack[key] = append(e.byStack[key], s)
	if e.cfg.Merge == MergeDSM {
		for _, h := range s.history {
			e.predCount[h]++
		}
		ch := e.simHash(s)
		s.curHash = ch
		set := e.curIndex[ch]
		if set == nil {
			set = map[*State]bool{}
			e.curIndex[ch] = set
		}
		set[s] = true
		e.refreshFF(s)
	}
}

// removeState removes a state from the worklist and all indexes.
func (e *Engine) removeState(s *State) {
	delete(e.worklist, s)
	e.strategy.Remove(s)
	key := s.stackHash()
	list := e.byStack[key]
	for i, x := range list {
		if x == s {
			list[i] = list[len(list)-1]
			e.byStack[key] = list[:len(list)-1]
			break
		}
	}
	if len(e.byStack[key]) == 0 {
		delete(e.byStack, key)
	}
	if e.cfg.Merge == MergeDSM {
		for _, h := range s.history {
			if e.predCount[h]--; e.predCount[h] <= 0 {
				delete(e.predCount, h)
			}
		}
		if set := e.curIndex[s.curHash]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(e.curIndex, s.curHash)
			}
		}
		delete(e.ffSet, s)
	}
}

// pickNext implements Algorithm 2 when DSM is active, otherwise defers to
// the driving strategy.
func (e *Engine) pickNext() *State {
	if e.cfg.Merge == MergeDSM && len(e.ffSet) > 0 {
		// pickNextF: the topologically earliest state in F, so lagging
		// states catch up to their merge candidates (paper §4.3).
		var best *State
		for s, h := range e.ffSet {
			if !e.worklist[s] || !e.stillForwardable(s, h) {
				delete(e.ffSet, s)
				continue
			}
			if best == nil || e.TopoLess(s, best) {
				best = s
			}
		}
		if best != nil {
			e.stats.FFSelected++
			if e.obs.Active() {
				loc := best.Loc()
				e.obs.FFSelect(best.ID, loc.Fn, loc.PC)
			}
			best.ff = true
			return best
		}
	}
	s := e.strategy.Pick()
	if s != nil {
		s.ff = false
	}
	return s
}

// stillForwardable re-validates an F-set member: its current hash must still
// match some other state's recent predecessor hash.
func (e *Engine) stillForwardable(s *State, _ uint64) bool {
	h := s.curHash
	own := 0
	for _, x := range s.history {
		if x == h {
			own++
		}
	}
	return e.predCount[h] > own
}

// refreshFF updates fast-forwarding-set membership for s itself and for the
// states whose current hash matches s's newly published history entries.
func (e *Engine) refreshFF(s *State) {
	if e.stillForwardable(s, s.curHash) {
		e.ffSet[s] = s.curHash
	}
	for _, h := range s.history {
		for o := range e.curIndex[h] {
			if o != s && e.stillForwardable(o, o.curHash) {
				e.ffSet[o] = o.curHash
			}
		}
	}
}

// pruneExcess drops the lowest-priority states beyond MaxStates, folding
// their multiplicity into the prune counter (soundness note: pruning makes
// the exploration incomplete, exactly like KLEE's state cap).
func (e *Engine) pruneExcess() {
	for e.strategy.Len() > e.cfg.MaxStates {
		keep := e.strategy.Pick() // never prune the strategy's next choice
		var victim *State
		for w := range e.worklist {
			if w == keep {
				continue
			}
			if victim == nil || w.ID > victim.ID {
				victim = w // deterministic: newest state goes first
			}
		}
		if victim == nil {
			return
		}
		e.removeState(victim)
		e.stats.Pruned++
	}
}

// finishState records a terminated state.
func (e *Engine) finishState(s *State) {
	switch s.Halt {
	case HaltExit, HaltError:
		e.stats.PathsCompleted++
		e.stats.PathsMult.Add(e.stats.PathsMult, s.Mult)
		e.stats.ExactPaths += uint64(len(s.Shadow))
		if s.Err != nil {
			e.stats.ErrorsFound++
			if len(e.errors) < e.cfg.MaxTests {
				pe := *s.Err
				if model, err := e.solv.GetModelIn(s.sess, s.PC); err == nil && model != nil {
					pe.Args = e.concretizeArgs(&expr.Evaluator{Env: expr.Env(model)})
				}
				e.errors = append(e.errors, pe)
			}
		}
		if e.cfg.CollectTests && (e.cfg.TestSink != nil || len(e.testCases) < e.cfg.MaxTests) {
			emitted := 0
			for _, tc := range e.makeTests(s) {
				if e.cfg.TestSink != nil {
					e.cfg.TestSink(tc)
					emitted++
				}
				if len(e.testCases) < e.cfg.MaxTests {
					e.testCases = append(e.testCases, tc)
				}
			}
			e.obs.CorpusEmit(emitted)
		}
	case HaltSilent:
		// infeasible or pruned: nothing to record
	}
}

// makeTests turns a finished state into concrete test cases. The default
// path produces one test from an arbitrary model of the state's path
// condition. With CanonicalTests, inputs come from the canonical minimal
// model instead, and a merged state carrying a shadow census emits one test
// per constituent single path — together these make the test set a function
// of the explored path set alone, independent of scheduling (the property
// the corpus determinism and strategy-parity suites pin down).
func (e *Engine) makeTests(s *State) []TestCase {
	if !e.cfg.CanonicalTests {
		if tc, ok := e.makeTest(e.pathModel(s.PC, s), s); ok {
			return []TestCase{tc}
		}
		return nil
	}
	if len(s.Shadow) > 0 {
		out := make([]TestCase, 0, len(s.Shadow))
		for _, p := range s.Shadow {
			if tc, ok := e.makeTest(e.canonModel(p, s), s); ok {
				out = append(out, tc)
			}
		}
		return out
	}
	if tc, ok := e.makeTest(e.canonModel(s.PC, s), s); ok {
		return []TestCase{tc}
	}
	return nil
}

// pathModel solves a path condition for an arbitrary model.
func (e *Engine) pathModel(pc []*expr.Expr, s *State) solver.Model {
	model, err := e.solv.GetModelIn(s.sess, pc)
	if err != nil {
		e.stats.TestGenFailures++
		return nil
	}
	return model
}

// canonModel solves a path condition for the canonical minimal model over
// the program's input variables.
func (e *Engine) canonModel(pc []*expr.Expr, s *State) solver.Model {
	model, err := e.solv.MinModelIn(s.sess, pc, e.inputVars())
	if err != nil {
		e.stats.TestGenFailures++
		return nil
	}
	return model
}

// inputVars lists the symbolic environment cells in canonical order — argv
// byte cells argument-major, then stdin bytes — the variable order the
// canonical minimal model minimizes lexicographically.
func (e *Engine) inputVars() []*expr.Expr {
	if e.inVars != nil {
		return e.inVars
	}
	vars := []*expr.Expr{}
	for _, cells := range e.argv {
		for _, c := range cells {
			if !c.IsConst() {
				vars = append(vars, c)
			}
		}
	}
	for _, c := range e.stdin {
		if !c.IsConst() {
			vars = append(vars, c)
		}
	}
	e.inVars = vars
	return vars
}

// makeTest concretizes inputs and expectations under a path model (nil when
// the solve failed; the test is then dropped).
func (e *Engine) makeTest(model solver.Model, s *State) (TestCase, bool) {
	if model == nil {
		return TestCase{}, false
	}
	// One evaluator for the whole test: merged outputs share their join
	// conditions and ite subterms, so each shared node is evaluated once.
	ev := &expr.Evaluator{Env: expr.Env(model)}
	tc := TestCase{Args: e.concretizeArgs(ev)}
	for _, cell := range e.stdin {
		tc.Stdin = append(tc.Stdin, byte(ev.Eval(cell)))
	}
	tc.Output = emitOut(ev, s.Output)
	if s.ExitCode != nil {
		tc.Exit = int64(int32(ev.Eval(s.ExitCode)))
	}
	if s.Err != nil {
		tc.IsErr, tc.Msg, tc.Assert = true, s.Err.Msg, s.Err.Assert
	}
	return tc, true
}

// concretizeArgs reads the argv cells under the evaluator's model. Cells
// after an embedded NUL are kept (trimming only trailing zeros): the paper's
// sym-args model leaves bytes past the terminator readable and
// unconstrained, and programs that index past the terminator depend on them
// — dropping them would make generated tests unreplayable.
func (e *Engine) concretizeArgs(ev *expr.Evaluator) [][]byte {
	var out [][]byte
	for _, cells := range e.argv {
		arg := make([]byte, len(cells))
		for i, c := range cells {
			arg[i] = byte(ev.Eval(c))
		}
		n := len(arg)
		for n > 0 && arg[n-1] == 0 {
			n--
		}
		out = append(out, arg[:n])
	}
	return out
}

// --- StrategyContext ---

// IsCovered reports whether the location has been executed.
func (e *Engine) IsCovered(l ir.Loc) bool {
	return e.coverage[e.prog.LocIndex(l)]
}

func (e *Engine) markCovered(l ir.Loc) {
	idx := e.prog.LocIndex(l)
	if !e.coverage[idx] {
		e.coverage[idx] = true
		e.covered++
	}
}

// TopoLess orders states by interprocedural topological position: compare
// call stacks frame by frame from the bottom using each function's reverse
// postorder rank; a state deeper inside calls at the same outer position
// comes first (it must return before the caller can advance).
func (e *Engine) TopoLess(a, b *State) bool {
	n := len(a.Frames)
	if len(b.Frames) < n {
		n = len(b.Frames)
	}
	for i := 0; i < n; i++ {
		fa, fb := a.Frames[i], b.Frames[i]
		ra := e.rankOf(fa)
		rb := e.rankOf(fb)
		if fa.Fn != fb.Fn {
			return fa.Fn < fb.Fn
		}
		if ra != rb {
			return ra < rb
		}
	}
	if len(a.Frames) != len(b.Frames) {
		return len(a.Frames) > len(b.Frames) // deeper first
	}
	return a.ID < b.ID
}

func (e *Engine) rankOf(f *Frame) int {
	g := e.cfgs[f.Fn]
	pc := f.PC
	if pc >= len(g.Fn.Instrs) {
		pc = len(g.Fn.Instrs) - 1
	}
	if pc < 0 {
		return 0
	}
	return g.TopoRank(pc)
}

// publishProgress stores a fresh progress snapshot for Stats/LiveProgress.
// Called on the engine's own goroutine at construction, Begin, every 64
// steps, and Finish; the snapshot is immutable after the store, which is
// what makes the accessors safe from any goroutine.
func (e *Engine) publishProgress() {
	st := e.stats
	st.CoveredInstrs = e.covered
	st.Solver = e.solv.Stats
	if e.cfg.Builder == nil {
		st.Rules = e.build.RuleHits() // builder-global; see Finish
	}
	if st.PathsMult != nil {
		// Detach from the live counter, which later steps mutate in place.
		st.PathsMult = new(big.Int).Set(st.PathsMult)
	}
	if !e.started.IsZero() {
		st.ElapsedSeconds = time.Since(e.started).Seconds()
	}
	e.progPub.Store(&progressSnap{
		stats:    st,
		coverage: e.CoverageMask(),
		worklist: len(e.worklist),
	})
}

// Stats returns the most recently published statistics snapshot. Safe to
// call from any goroutine while the engine runs; mid-run it may lag the
// live counters by up to 64 steps (the publish cadence).
func (e *Engine) Stats() Stats {
	return e.progPub.Load().stats
}

// LiveProgress returns the published progress snapshot: statistics, the
// coverage bitmap as of the snapshot, and the worklist length. The bitmap
// is shared and must be treated as read-only. Same safety and staleness
// contract as Stats.
func (e *Engine) LiveProgress() (Stats, []bool, int) {
	p := e.progPub.Load()
	return p.stats, p.coverage, p.worklist
}
