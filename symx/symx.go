// Package symx is the public API of symmerge: compile a MiniC program and
// explore it symbolically with configurable state merging.
//
// The package reproduces the system of "Efficient State Merging in Symbolic
// Execution" (Kuznetsov, Kinder, Bucur, Candea; PLDI 2012): a search-based
// symbolic execution engine in the style of KLEE, extended with query count
// estimation (QCE) and dynamic state merging (DSM).
//
// A minimal session:
//
//	prog, err := symx.Compile(src)
//	if err != nil { ... }
//	res := symx.Run(prog, symx.Config{
//		NArgs: 2, ArgLen: 2,
//		Merge: symx.MergeDSM, UseQCE: true,
//		Strategy: symx.StrategyCoverage,
//	})
//	fmt.Println(res.Stats.PathsMult, res.Stats.Coverage())
package symx

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"os"
	"sync"
	"time"

	"symmerge/internal/analysis"
	"symmerge/internal/checkpoint"
	"symmerge/internal/core"
	"symmerge/internal/corpus"
	"symmerge/internal/ir"
	"symmerge/internal/lang"
	"symmerge/internal/obs"
	"symmerge/internal/qce"
	"symmerge/internal/search"
)

// Program is a compiled MiniC program ready for symbolic exploration.
type Program struct {
	ir *ir.Program

	anOnce sync.Once
	an     *analysis.Program

	qceMu sync.Mutex
	qces  map[qce.Params]*qce.Analysis
}

// staticFacts computes the program's CFGs and liveness once per Program;
// QCE and every run share the same immutable tables.
func (p *Program) staticFacts() *analysis.Program {
	p.anOnce.Do(func() { p.an = analysis.Analyze(p.ir) })
	return p.an
}

// qceTables computes the program's QCE tables once per parameter set, on
// the shared static facts; every later run with the same parameters reuses
// them.
func (p *Program) qceTables(params qce.Params) *qce.Analysis {
	p.qceMu.Lock()
	defer p.qceMu.Unlock()
	a := p.qces[params]
	if a == nil {
		a = qce.FromFacts(p.staticFacts(), params)
		if p.qces == nil {
			p.qces = map[qce.Params]*qce.Analysis{}
		}
		p.qces[params] = a
	}
	return a
}

// Compile parses and compiles MiniC source.
func Compile(src string) (*Program, error) {
	p, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Program{ir: p}, nil
}

// MustCompile is Compile for known-good sources (registry, tests).
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// IR returns the disassembled intermediate representation.
func (p *Program) IR() string { return p.ir.String() }

// Internal exposes the underlying ir.Program to sibling internal packages
// via the bench harness; external users should not depend on its shape.
func (p *Program) Internal() *ir.Program { return p.ir }

// MergeMode selects the merging regime.
type MergeMode = core.MergeMode

// Merge modes re-exported from the engine.
const (
	MergeNone = core.MergeNone
	MergeSSM  = core.MergeSSM
	MergeDSM  = core.MergeDSM
	// MergeFunc merges only at function-exit join points, realizing
	// precise symbolic function summaries (paper §2.2).
	MergeFunc = core.MergeFunc
)

// Strategy names a driving search strategy.
type Strategy = search.Kind

// Strategies re-exported from the search package.
const (
	StrategyDFS      = search.DFS
	StrategyBFS      = search.BFS
	StrategyRandom   = search.Random
	StrategyCoverage = search.Coverage
	StrategyTopo     = search.Topo
)

// QCEParams re-exports the QCE tuning knobs.
type QCEParams = qce.Params

// DefaultQCEParams returns the default parameter values: β=0.8 and κ=10 as
// published, and α=0.5 from the paper's worked example (see
// qce.DefaultParams for why the production tuning α=1e-12 does not transfer
// to a precise dependence analysis).
func DefaultQCEParams() QCEParams { return qce.DefaultParams() }

// Config configures an exploration run.
type Config struct {
	// Merge selects none (plain symbolic execution), static state
	// merging, or dynamic state merging.
	Merge MergeMode
	// UseQCE gates merging with the QCE similarity relation; when false,
	// all same-location states merge.
	UseQCE bool
	// QCE are the heuristic parameters; zero value means defaults.
	QCE QCEParams

	// Strategy is the driving search heuristic. Defaults: Topo when
	// Merge == MergeSSM, DFS otherwise.
	Strategy Strategy
	// Seed feeds the randomized strategies.
	Seed int64

	// NArgs symbolic command-line arguments of up to ArgLen characters
	// each (zero-terminated), plus StdinLen symbolic stdin bytes.
	NArgs    int
	ArgLen   int
	StdinLen int

	// ConcreteArgs/ConcreteStdin pin the environment to constants
	// instead, making the engine a reference interpreter (exactly one
	// feasible path per run). Useful for replaying generated test cases
	// and for conformance-testing programs.
	ConcreteArgs  [][]byte
	ConcreteStdin []byte

	// Budgets; zero = unlimited. They bound this invocation: a resumed
	// checkpointed run starts them afresh.
	MaxSteps uint64
	MaxTime  time.Duration

	// Context, when non-nil, cancels the exploration early (Ctrl-C, a
	// caller's deadline). The engine polls it on the deadline cadence and
	// returns with Completed=false.
	Context context.Context

	// CheckBounds turns out-of-bounds array accesses into path errors.
	CheckBounds bool
	// CollectTests solves for a concrete test case at every path end.
	CollectTests bool
	// CanonicalTests derives each test from the lexicographically minimal
	// model of its path instead of an arbitrary solver model, and — when
	// the shadow census is on — emits one test per constituent single path
	// of a merged state. Canonical tests are a pure function of the
	// explored path set: search strategy and solver state (the model-reuse
	// ring, learned clauses) cannot change them. Implied by CorpusDir.
	CanonicalTests bool
	// MaxTests bounds recorded test cases and errors (0 = 256).
	MaxTests int

	// CorpusDir, when non-empty, streams every generated test case to an
	// on-disk corpus at that directory (internal/corpus format: one JSON
	// file per test named by input hash, plus manifest.json) and implies
	// CollectTests and CanonicalTests — plus TrackExactPaths under a
	// merging regime, so merged states contribute one test per constituent
	// path and replay coverage can match symbolic coverage exactly. A
	// writer that cannot even be created (non-replayable program,
	// unwritable directory) fails the run up front with an empty Result carrying CorpusErr; emission
	// failures during or after the run land in Result.CorpusErr with the
	// exploration result intact.
	CorpusDir string
	// CorpusLabel names the program in the corpus manifest (tool name or
	// source file); informational only.
	CorpusLabel string

	// CheckpointDir, when non-empty, makes the run crash-safe: every
	// CheckpointEvery, and on every budget or cancellation stop, the run
	// writes a versioned snapshot (internal/checkpoint format) of the
	// engine's live frontier, its cumulative progress, and the corpus
	// writer's dedup state. Snapshots leave the exploration untouched: a
	// run that is not killed explores exactly the schedule it explores
	// without CheckpointDir. A killed run resumed with Resume continues in
	// a fresh engine that counts on from the snapshot — its Result, its
	// Monitor and its own snapshots carry the counters of the whole
	// exploration — and converges to the same coverage, errors and corpus
	// as an uninterrupted one.
	CheckpointDir string
	// CheckpointEvery is the snapshot interval (default 30s). It grows to
	// four times the cost of one snapshot when snapshots cost more.
	CheckpointEvery time.Duration
	// Resume restores the newest valid snapshot in CheckpointDir before
	// exploring — validating it against the current program IR hash and
	// configuration descriptor — and continues from its frontier. With no
	// snapshot in the directory the run simply starts fresh. Resume
	// without CheckpointDir is refused via Result.ConfigErr.
	Resume bool
	// TrackExactPaths maintains the shadow single-path census alongside
	// merged states (paper §5.2; used for Figure 3).
	TrackExactPaths bool

	// DisableAnalysis turns off liveness merge slimming (see
	// internal/analysis and README "Static analysis") for ablation
	// measurements: merges then build ite selectors for dead locals too.
	// Slimming is on by default and sound: corpus output, census,
	// coverage, and errors are byte-identical with it on or off. QCE keeps
	// its liveness mask either way, so the merge gate does not change.
	DisableAnalysis bool

	// TraceFile, when non-empty, streams a structured JSONL event trace
	// (schema symmerge-trace/v1; see internal/obs and README
	// "Observability") of the exploration to that path: forks, merge
	// decisions with the QCE numbers behind them, solver queries with
	// class and latency, fast-forward picks, epochs and checkpoints. The
	// sink never blocks the engine: events beyond the buffer are dropped
	// and counted in Result.TraceDrops. Tracing is
	// purely observational — corpus output and census are byte-identical
	// with it on or off. A path that cannot be created refuses the run up
	// front via Result.ConfigErr.
	TraceFile string
	// TraceBuffer overrides the trace sink's event buffer capacity
	// (default obs.DefaultBuffer = 4096 events).
	TraceBuffer int
	// Metrics, when non-nil, receives live counters and latency
	// histograms from the run's engine (see NewMetrics, PublishMetrics).
	// Safe to Snapshot concurrently with the run.
	Metrics *Metrics
	// Monitor, when non-nil, gets the run's engine attached for live
	// progress (Monitor.Progress); cmd/symx serves it at -debug-addr
	// /progress.
	Monitor *Monitor

	// obsRun is the resolved observability plumbing (trace sink + metrics)
	// Run threads down to the engine.
	obsRun *obs.Run
}

// Result re-exports the engine result.
type Result = core.Result

// Stats re-exports the engine statistics.
type Stats = core.Stats

// TestCase re-exports generated test cases.
type TestCase = core.TestCase

// PathError re-exports path errors.
type PathError = core.PathError

// Interrupted re-exports the early-stop cause enum, with its values, so
// callers can distinguish a resumable checkpoint stop from a plain
// cancellation without importing internal/core.
type Interrupted = core.Interrupted

const (
	IntrNone       = core.IntrNone
	IntrBudget     = core.IntrBudget
	IntrContext    = core.IntrContext
	IntrCheckpoint = core.IntrCheckpoint
)

// Run explores the program under the configuration with one engine and
// returns the result; with CheckpointDir set, the exploration is crash-safe
// and resumable (see Config.CheckpointDir).
//
// An invalid configuration — an unknown Strategy or an incompatible pair of
// options — is refused up front: the returned (otherwise empty) result
// carries the problem in Result.ConfigErr instead of silently exploring
// under a fallback.
func Run(p *Program, cfg Config) *Result {
	if err := validateConfig(cfg); err != nil {
		return failedResult(err)
	}
	var sink *obs.Sink
	if cfg.TraceFile != "" {
		f, err := os.Create(cfg.TraceFile)
		if err != nil {
			return failedResult(fmt.Errorf("trace: %w", err))
		}
		sink = obs.NewSink(f, cfg.TraceBuffer)
	}
	cfg.obsRun = obs.NewRun(sink, cfg.Metrics)

	res := runSingle(p, cfg)
	if sink != nil {
		// Close after all emitters have returned: the footer's event/drop
		// totals are final, and the result carries them for callers that
		// never look at the file.
		res.TraceErr = sink.Close()
		res.TraceEvents = sink.Events()
		res.TraceDrops = sink.Drops()
	}
	return res
}

// validateConfig rejects configurations the engine layers would otherwise
// mis-handle silently. The empty Strategy is fine (coreConfig resolves it
// from the merge mode); anything else must name a known strategy.
func validateConfig(cfg Config) error {
	if cfg.Resume && cfg.CheckpointDir == "" {
		// Without a directory there is no snapshot to resume from: the run
		// would silently explore from scratch.
		return fmt.Errorf("resume requires a checkpoint directory (CheckpointDir, symx -checkpoint)")
	}
	if cfg.Strategy != "" {
		if err := search.Validate(cfg.Strategy); err != nil {
			return err
		}
		if cfg.Merge == MergeFunc && cfg.Strategy != StrategyTopo {
			// Function-level merging folds callee paths at the return
			// point, which requires callee states to be exhausted before
			// the caller advances past the call — only the topological
			// order (deeper frames first) guarantees that. Any other
			// strategy silently under-merges: the run is sound but
			// measures something other than MergeFunc, so refuse it
			// rather than publish misleading numbers. Leave Strategy
			// empty to get the topological order automatically.
			return fmt.Errorf("merge=func requires the topological strategy (got %q): other worklist orders advance callers before their callees finish, so return-point merging silently degrades toward plain exploration; leave Strategy empty to auto-select topo", cfg.Strategy)
		}
	}
	return nil
}

// applyCorpusImplications turns on everything corpus emission needs: test
// collection, canonical minimal-model inputs, and — under a merging regime
// — the shadow census, so merged states contribute one test per
// constituent path.
func applyCorpusImplications(cfg Config) Config {
	cfg.CollectTests = true
	cfg.CanonicalTests = true
	if cfg.Merge != MergeNone {
		cfg.TrackExactPaths = true
	}
	return cfg
}

// emitToWriter streams one engine test case into a corpus writer, skipping
// error tests whose failure is an engine analysis (bounds checking, solver
// budget) rather than program semantics — those have no concrete-replay
// counterpart.
func emitToWriter(w *corpus.Writer, tc core.TestCase) {
	if tc.IsErr && !tc.Assert {
		w.SkipUnreplayable()
		return
	}
	w.Add(tc.Args, tc.Stdin, tc.Output, tc.Exit, tc.IsErr, tc.Msg)
}

// failedResult builds the well-formed empty result of a run refused up
// front: an invalid configuration, an uncreatable trace file, or a
// checkpoint snapshot that does not belong to this program and
// configuration. Nothing was explored.
func failedResult(err error) *Result {
	res := &Result{ConfigErr: err}
	res.Stats.PathsMult = big.NewInt(0)
	return res
}

// corpusFailure builds the well-formed empty result a run returns when its
// corpus writer cannot even be created (non-replayable program, unwritable
// directory): failing before the exploration beats discovering after a
// long run that nothing was persisted.
func corpusFailure(err error) *Result {
	res := &Result{CorpusErr: err}
	res.Stats.PathsMult = big.NewInt(0)
	return res
}

// configDescriptor renders the canonical producing-configuration string the
// corpus manifest records. Scheduling knobs (Context, budgets,
// checkpointing) are excluded on purpose: they must not change the corpus.
func configDescriptor(cfg Config, kind Strategy) string {
	return fmt.Sprintf("merge=%s qce=%v strategy=%s seed=%d nargs=%d arglen=%d stdin=%d",
		cfg.Merge, cfg.UseQCE, kind, cfg.Seed, cfg.NArgs, cfg.ArgLen, cfg.StdinLen)
}

// runSingle runs one configuration on one engine; it is the only driver.
// With CheckpointDir set it steps the engine one step at a time, writes
// snapshots between steps, and with Resume continues the newest snapshot
// (see checkpoint.go).
func runSingle(p *Program, cfg Config) *Result {
	if cfg.CorpusDir != "" {
		cfg = applyCorpusImplications(cfg)
	}
	ccfg, kind, seed := coreConfig(p, cfg)
	desc := configDescriptor(cfg, kind)
	var pinfo corpus.ProgramInfo
	var sn *checkpoint.Snapshot
	if cfg.CheckpointDir != "" {
		pinfo = corpus.ProgramInfo{Name: cfg.CorpusLabel, Hash: corpus.ProgramHash(p.ir), Locations: p.ir.NumLocations()}
		if cfg.Resume {
			var err error
			if sn, err = loadSnapshot(cfg.CheckpointDir, pinfo, desc); err != nil {
				return failedResult(err)
			}
		}
	}

	// The sink is bound before the engine exists; the writer behind it is
	// opened once the engine has accepted the snapshot, so a refused one
	// leaves the corpus directory alone.
	var writer *corpus.Writer
	if cfg.CorpusDir != "" {
		ccfg.TestSink = func(tc core.TestCase) { emitToWriter(writer, tc) }
	}
	eng := newEngine(p, ccfg, kind, seed, cfg.Monitor)
	eng.Begin(sn == nil)
	if sn != nil {
		if err := eng.Restore(&sn.Frontier, &sn.Progress); err != nil {
			return failedResult(fmt.Errorf("checkpoint: snapshot %d: %w", sn.Seq, err))
		}
	}
	if cfg.CorpusDir != "" {
		var err error
		if writer, err = openCorpus(p, cfg, desc, sn); err != nil {
			return corpusFailure(err)
		}
	}

	var ck *checkpointer
	var status core.RunStatus
	if cfg.CheckpointDir != "" {
		ck = newCheckpointer(cfg, pinfo, desc, eng, writer, sn)
		status = ck.run(cfg.CheckpointEvery)
	} else {
		status = eng.StepN(math.MaxInt) // until the worklist drains or the run stops
	}
	res := eng.Finish(status == core.RunDrained)
	if ck != nil {
		ck.finish(res)
	}
	if writer != nil {
		res.CorpusErr = finishCorpus(writer, res)
	}
	return res
}

// openCorpus opens the run's corpus writer. A resumed run first moves torn
// test files aside and then continues the snapshot's dedup state, less the
// quarantined ids, so that the exploration regenerates their files.
func openCorpus(p *Program, cfg Config, desc string, sn *checkpoint.Snapshot) (*corpus.Writer, error) {
	var quarantined []string
	if cfg.Resume {
		var err error
		if quarantined, err = corpus.ValidateDir(cfg.CorpusDir); err != nil {
			return nil, err
		}
	}
	w, err := corpus.NewWriter(cfg.CorpusDir, p.ir, cfg.CorpusLabel, desc)
	if err != nil {
		return nil, err
	}
	if sn != nil && sn.Corpus != nil {
		w.RestoreState(sn.Corpus.Seen, sn.Corpus.Emitted, sn.Corpus.Skipped, quarantined)
	}
	return w, nil
}

// finishCorpus writes the manifest and fills the emission counters. A run
// that stopped early is recorded as incomplete (its manifest makes no
// parity promise), and dropped test generations (solver budget during the
// model solve) become the corpus error that explains a later parity gap.
func finishCorpus(writer *corpus.Writer, res *Result) error {
	_, err := writer.Finalize(res.CoverageMask, res.Completed)
	res.Stats.TestsEmitted, res.Stats.TestsDeduped = writer.Counts()
	if err == nil && res.Stats.TestGenFailures > 0 {
		err = fmt.Errorf("corpus: %d path ends produced no test (solver budget during model extraction); the corpus under-represents the exploration", res.Stats.TestGenFailures)
	}
	return err
}

// NewEngine exposes a prepared engine for callers that need incremental
// control (tests step it, snapshot it, and sample its stats mid-run).
// CheckpointDir, CorpusDir and TraceFile are Run's and are ignored here.
// An unknown cfg.Strategy panics — use Run for the error-reporting path.
func NewEngine(p *Program, cfg Config) *core.Engine {
	ccfg, kind, seed := coreConfig(p, cfg)
	return newEngine(p, ccfg, kind, seed, cfg.Monitor)
}

// newEngine builds the engine of a run with its own driving strategy
// instance; the program's shared static tables arrive through ccfg. The
// engine is attached to mon (nil-safe) so a live Monitor sees it.
func newEngine(p *Program, ccfg core.Config, kind Strategy, seed int64, mon *Monitor) *core.Engine {
	// The engine needs the strategy at construction, but the strategy
	// needs the engine as its context; break the cycle with a forwarder.
	fwd := &ctxForwarder{}
	strat, err := search.New(kind, fwd, seed)
	if err != nil {
		// Run validated the strategy before building any engine, so this
		// is reachable only through NewEngine misuse.
		panic(err)
	}
	eng := core.NewEngine(p.ir, ccfg, strat)
	fwd.ctx = eng
	mon.attach(eng)
	return eng
}

// coreConfig lowers the public Config to the engine configuration plus the
// resolved strategy kind and seed.
func coreConfig(p *Program, cfg Config) (core.Config, Strategy, int64) {
	if cfg.Strategy == "" {
		switch cfg.Merge {
		case MergeSSM, MergeFunc:
			// Summary merging needs callee paths explored before the
			// caller advances past the call, which the topological
			// order guarantees (deeper frames first).
			cfg.Strategy = StrategyTopo
		case MergeDSM:
			// DSM needs an interleaving driving heuristic: with DFS a
			// path's successors outrun the δ-deep history window
			// before siblings move, so fast-forwarding never fires.
			// The paper drives DSM with random search for complete
			// exploration and coverage-guided search for partial
			// exploration (§5.1).
			cfg.Strategy = StrategyRandom
		default:
			cfg.Strategy = StrategyDFS
		}
	}
	qp := cfg.QCE
	if qp.Alpha == 0 && qp.Beta == 0 && qp.Kappa == 0 {
		qp = qce.DefaultParams()
	}
	ccfg := core.Config{
		Merge:           cfg.Merge,
		UseQCE:          cfg.UseQCE,
		QCE:             qp,
		NArgs:           cfg.NArgs,
		ArgLen:          cfg.ArgLen,
		StdinLen:        cfg.StdinLen,
		ConcreteArgs:    cfg.ConcreteArgs,
		ConcreteStdin:   cfg.ConcreteStdin,
		MaxSteps:        cfg.MaxSteps,
		MaxTime:         cfg.MaxTime,
		Context:         cfg.Context,
		CheckBounds:     cfg.CheckBounds,
		CollectTests:    cfg.CollectTests,
		CanonicalTests:  cfg.CanonicalTests,
		MaxTests:        cfg.MaxTests,
		TrackExactPaths: cfg.TrackExactPaths,
		Obs:             cfg.obsRun,
	}
	if cfg.UseQCE {
		ccfg.QCEAnalysis = p.qceTables(qp)
	}
	if !cfg.DisableAnalysis {
		ccfg.Analysis = p.staticFacts()
	}
	return ccfg, cfg.Strategy, cfg.Seed
}

// ctxForwarder defers StrategyContext calls to the engine once built.
type ctxForwarder struct{ ctx core.StrategyContext }

func (f *ctxForwarder) IsCovered(l ir.Loc) bool { return f.ctx.IsCovered(l) }

func (f *ctxForwarder) TopoLess(a, b *core.State) bool { return f.ctx.TopoLess(a, b) }
