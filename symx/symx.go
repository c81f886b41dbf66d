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
	"math/big"
	"os"
	"sync"
	"time"

	"symmerge/internal/analysis"
	"symmerge/internal/core"
	"symmerge/internal/corpus"
	"symmerge/internal/ir"
	"symmerge/internal/lang"
	"symmerge/internal/obs"
	"symmerge/internal/parallel"
	"symmerge/internal/qce"
	"symmerge/internal/search"
	"symmerge/internal/solver"
)

// Program is a compiled MiniC program ready for symbolic exploration.
type Program struct {
	ir *ir.Program

	anOnce sync.Once
	an     *analysis.Program
}

// staticFacts computes the program's dataflow facts (intervals, branch
// verdicts, liveness, heap effects) once per Program; every run, worker,
// and portfolio entry shares the same immutable tables.
func (p *Program) staticFacts() *analysis.Program {
	p.anOnce.Do(func() { p.an = analysis.Analyze(p.ir) })
	return p.an
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

	// DSMDelta is the fast-forwarding distance δ in basic blocks
	// (default 8, the paper's value).
	DSMDelta int

	// Budgets; zero = unlimited.
	MaxSteps  uint64
	MaxTime   time.Duration
	MaxStates int

	// Workers shards the exploration across this many goroutines (the
	// internal/parallel subsystem): each worker runs its own engine over
	// subtrees claimed from a shared frontier with work-stealing, while
	// the expression builder and the counterexample cache are shared
	// race-clean. 0 or 1 explores single-threaded. Sharding never changes
	// the explored path set: paths-multiplicity, coverage, and the set of
	// errors found match the single-threaded run on exhaustive
	// explorations (only the count of separately completed states may
	// differ, since merging is worker-local). Budgets shard with the
	// work: MaxSteps and MaxStates are divided evenly across workers
	// (keeping them total-work and total-memory bounds), and MaxTime is a
	// shared deadline; a worker that exhausts its own share retires while
	// the others keep spending theirs.
	Workers int

	// Context, when non-nil, cancels the exploration early (Ctrl-C,
	// portfolio losers). The engine polls it on the deadline cadence and
	// returns with Completed=false.
	Context context.Context

	// Portfolio, when non-empty, races the given complete configurations
	// concurrently over the same program: the first to finish its
	// exploration wins and the losers are cancelled via context. The
	// winning entry's index is reported in Result.PortfolioWinner. The
	// outer Config's other fields are ignored (each entry is complete);
	// nested portfolios are stripped.
	Portfolio []Config

	// CheckBounds turns out-of-bounds array accesses into path errors.
	CheckBounds bool
	// CollectTests solves for a concrete test case at every path end.
	CollectTests bool
	// CanonicalTests derives each test from the lexicographically minimal
	// model of its path instead of an arbitrary solver model, and — when
	// the shadow census is on — emits one test per constituent single path
	// of a merged state. Canonical tests are a pure function of the
	// explored path set: worker count, search strategy, and solver cache
	// state cannot change them. Implied by CorpusDir.
	CanonicalTests bool
	// MaxTests bounds recorded test cases and errors (0 = 256).
	MaxTests int

	// CorpusDir, when non-empty, streams every generated test case to an
	// on-disk corpus at that directory (internal/corpus format: one JSON
	// file per test named by input hash, plus manifest.json) and implies
	// CollectTests and CanonicalTests — plus TrackExactPaths under a
	// merging regime, so merged states contribute one test per constituent
	// path and replay coverage can match symbolic coverage exactly. All
	// run shapes emit: sequential, parallel (workers share one writer),
	// and portfolio (the winner's tests are written). A writer that cannot
	// even be created (non-replayable program, unwritable directory) fails
	// the run up front with an empty Result carrying CorpusErr; emission
	// failures during or after the run land in Result.CorpusErr with the
	// exploration result intact.
	CorpusDir string
	// CorpusLabel names the program in the corpus manifest (tool name or
	// source file); informational only.
	CorpusLabel string

	// CheckpointDir, when non-empty, makes the run crash-safe: the driver
	// explores in epochs of CheckpointEvery, writing a versioned snapshot
	// (internal/checkpoint format) of the live frontier, the cumulative
	// progress counters, and the corpus writer's dedup state at every epoch
	// boundary and on cancellation. A killed run resumed with Resume
	// converges to the same census and corpus as an uninterrupted one.
	// Incompatible with Portfolio (a race's winner is wall-clock
	// nondeterministic, so its snapshot could not promise a deterministic
	// resume); refused up front via Result.ConfigErr.
	CheckpointDir string
	// CheckpointEvery is the snapshot interval (default 30s).
	CheckpointEvery time.Duration
	// Resume, with CheckpointDir set, restores the newest valid snapshot in
	// the directory before exploring — validating it against the current
	// program IR hash and configuration descriptor — and continues from its
	// frontier. With no usable snapshot the run simply starts fresh.
	// Budgets (MaxSteps, MaxTime) are per-invocation, not per logical run.
	Resume bool
	// TrackExactPaths maintains the shadow single-path census alongside
	// merged states (paper §5.2; used for Figure 3).
	TrackExactPaths bool

	// Domain, when non-nil, runs the exploration inside a long-lived
	// shared domain (NewDomain): every run interns expressions into the
	// domain's builder and shares its counterexample cache — backed by the
	// domain's persistent store when it has one. This is how cmd/symxd
	// makes repeat traffic cheap: verdicts recorded by any job answer
	// queries in every later job. Persistence is invisible in the results — corpus output,
	// census, coverage, and errors are byte-identical with a cold or warm
	// domain — because cached verdicts are deterministic facts about
	// constraint sets and canonical tests derive from verdicts alone. For a
	// Portfolio, set Domain on the entries (outer fields are ignored there).
	Domain *Domain

	// DisableAnalysis turns off the static dataflow analyses (interval
	// branch pruning, bounds-check elision, liveness merge slimming; see
	// internal/analysis and README "Static analysis") for ablation
	// measurements. The analyses are on by default and sound: corpus
	// output, census, coverage, and errors are byte-identical with them
	// on or off — only the query counts and wall-clock differ.
	DisableAnalysis bool

	// CrossCheckAnalysis re-validates every statically pruned branch side
	// with a solver query and panics if the solver disagrees (the pruned
	// side was satisfiable). Purely a soundness test harness — it spends
	// the very queries pruning exists to avoid.
	CrossCheckAnalysis bool

	// DisableSolverOpts turns off the KLEE-style solver optimizations
	// (counterexample cache, independence slicing, model reuse) for
	// ablation measurements.
	DisableSolverOpts bool

	// DisableSessions turns off the incremental solver sessions (the
	// blast-once/assume-many SAT instances shared along state lineages)
	// for ablation measurements; every query then re-blasts one-shot.
	DisableSessions bool

	// TraceFile, when non-empty, streams a structured JSONL event trace
	// (schema symmerge-trace/v1; see internal/obs and README
	// "Observability") of the exploration to that path: forks, merge
	// decisions with the QCE numbers behind them, solver queries with
	// class and latency, fast-forward picks, work-stealing, epochs and
	// checkpoints. The sink never blocks a worker: events beyond the
	// buffer are dropped and counted in Result.TraceDrops. Tracing is
	// purely observational — corpus output and census are byte-identical
	// with it on or off. A path that cannot be created refuses the run up
	// front via Result.ConfigErr.
	TraceFile string
	// TraceBuffer overrides the trace sink's event buffer capacity
	// (default obs.DefaultBuffer = 4096 events).
	TraceBuffer int
	// Metrics, when non-nil, receives live counters and latency
	// histograms from every engine of the run (see NewMetrics,
	// PublishMetrics). Safe to Snapshot concurrently with the run.
	Metrics *Metrics
	// Monitor, when non-nil, gets every engine the run builds attached
	// for live aggregate progress (Monitor.Progress); cmd/symx serves it
	// at -debug-addr /progress.
	Monitor *Monitor

	// obsRun is the resolved observability plumbing (trace sink + metrics)
	// Run threads down to the engines; portfolio entries inherit it.
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
// embedders (cmd/symxd) can distinguish a resumable checkpoint stop from a
// plain cancellation without importing internal/core.
type Interrupted = core.Interrupted

const (
	IntrNone       = core.IntrNone
	IntrBudget     = core.IntrBudget
	IntrContext    = core.IntrContext
	IntrCheckpoint = core.IntrCheckpoint
)

// Run explores the program under the configuration and returns the result.
// With Workers > 1 the exploration is sharded across a worker pool
// (internal/parallel); with a non-empty Portfolio the configurations race
// and the first to finish wins.
//
// An invalid configuration — an unknown Strategy or an incompatible pair of
// options, in the outer config or any portfolio entry — is refused up front:
// the returned (otherwise empty) result carries the problem in
// Result.ConfigErr instead of silently exploring under a fallback.
func Run(p *Program, cfg Config) *Result {
	if err := validateConfig(cfg); err != nil {
		res := &Result{PortfolioWinner: -1, ConfigErr: err}
		res.Stats.PathsMult = big.NewInt(0)
		return res
	}
	var sink *obs.Sink
	if cfg.TraceFile != "" {
		f, err := os.Create(cfg.TraceFile)
		if err != nil {
			res := &Result{PortfolioWinner: -1, ConfigErr: fmt.Errorf("trace: %w", err)}
			res.Stats.PathsMult = big.NewInt(0)
			return res
		}
		sink = obs.NewSink(f, cfg.TraceBuffer)
	}
	cfg.obsRun = obs.NewRun(sink, cfg.Metrics)

	var res *Result
	if len(cfg.Portfolio) > 0 {
		res = runPortfolio(p, cfg)
	} else {
		res = runSingle(p, cfg)
	}
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
	if err := validateEntry(cfg); err != nil {
		return err
	}
	if cfg.CheckpointDir != "" && len(cfg.Portfolio) > 0 {
		return fmt.Errorf("checkpoint: incompatible with a portfolio (the race winner is wall-clock nondeterministic, so a snapshot could not promise a deterministic resume)")
	}
	for i, sub := range cfg.Portfolio {
		if err := validateEntry(sub); err != nil {
			return fmt.Errorf("portfolio entry %d: %w", i, err)
		}
	}
	return nil
}

// validateEntry checks the per-configuration invariants shared by the outer
// config and portfolio entries.
func validateEntry(cfg Config) error {
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

// corpusFailure builds the well-formed empty result a run returns when its
// corpus writer cannot even be created (non-replayable program, unwritable
// directory): failing before the exploration beats discovering after a
// long run that nothing was persisted.
func corpusFailure(err error) *Result {
	res := &Result{PortfolioWinner: -1, CorpusErr: err}
	res.Stats.PathsMult = big.NewInt(0)
	return res
}

// configDescriptor renders the canonical producing-configuration string the
// corpus manifest records. Scheduling knobs (Workers, Context, budgets) are
// excluded on purpose: they must not change the corpus.
func configDescriptor(cfg Config, kind Strategy) string {
	return fmt.Sprintf("merge=%s qce=%v strategy=%s seed=%d nargs=%d arglen=%d stdin=%d",
		cfg.Merge, cfg.UseQCE, kind, cfg.Seed, cfg.NArgs, cfg.ArgLen, cfg.StdinLen)
}

// runSingle runs one configuration, sharded when cfg.Workers > 1.
func runSingle(p *Program, cfg Config) *Result {
	if cfg.CheckpointDir != "" {
		return runCheckpointed(p, cfg)
	}
	if cfg.CorpusDir != "" {
		cfg = applyCorpusImplications(cfg)
	}
	ccfg, kind, seed := coreConfig(p, cfg)

	var writer *corpus.Writer
	if cfg.CorpusDir != "" {
		var err error
		writer, err = corpus.NewWriter(cfg.CorpusDir, p.ir, cfg.CorpusLabel, configDescriptor(cfg, kind))
		if err != nil {
			return corpusFailure(err)
		}
		ccfg.TestSink = func(tc core.TestCase) { emitToWriter(writer, tc) }
	}

	factory := engineFactory(p, kind, seed, cfg.Monitor)
	var res *Result
	if cfg.Workers > 1 {
		res = parallel.Explore(p.ir, ccfg, parallel.Options{Workers: cfg.Workers}, factory)
	} else {
		res = factory(ccfg).Run()
	}
	if writer != nil {
		res.CorpusErr = finishCorpus(writer, res)
	}
	return res
}

// finishCorpus writes the manifest and fills the emission counters. A run
// that pruned states is recorded as incomplete (its manifest makes no
// parity promise), and dropped test generations (solver budget during the
// model solve) become the corpus error that explains a later parity gap.
func finishCorpus(writer *corpus.Writer, res *Result) error {
	exhaustive := res.Completed && res.Stats.Pruned == 0
	_, err := writer.Finalize(res.CoverageMask, exhaustive)
	res.Stats.TestsEmitted, res.Stats.TestsDeduped = writer.Counts()
	if err == nil && res.Stats.TestGenFailures > 0 {
		err = fmt.Errorf("corpus: %d path ends produced no test (solver budget during model extraction); the corpus under-represents the exploration", res.Stats.TestGenFailures)
	}
	return err
}

// runPortfolio races cfg.Portfolio's entries; see Config.Portfolio. With a
// CorpusDir the racing entries collect canonical tests in memory and the
// winner's set is written out after the race — losers leave no files.
func runPortfolio(p *Program, cfg Config) *Result {
	runs := make([]func(context.Context) *core.Result, len(cfg.Portfolio))
	entries := make([]Config, len(cfg.Portfolio))
	for i := range cfg.Portfolio {
		entry := cfg.Portfolio[i]
		entry.Portfolio = nil // no nesting
		entry.CorpusDir = ""  // the winner's tests are written post-race
		// Observability is a property of the race, not the entries: all
		// racers share the outer trace sink (their events carry distinct
		// worker lanes), metrics registry, and monitor.
		entry.obsRun = cfg.obsRun
		entry.TraceFile = ""
		entry.Metrics = cfg.Metrics
		if entry.Monitor == nil {
			entry.Monitor = cfg.Monitor
		}
		if cfg.CorpusDir != "" {
			entry = applyCorpusImplications(entry)
			if entry.MaxTests < 1<<20 {
				// The corpus is built from the winner's in-memory test
				// set here (the streaming sink cannot race), so any
				// smaller cap would silently truncate it and break the
				// coverage-parity guarantee.
				entry.MaxTests = 1 << 20
			}
		}
		entries[i] = entry
		runs[i] = func(ctx context.Context) *core.Result {
			sub := entries[i]
			sub.Context = ctx
			return runSingle(p, sub)
		}
	}
	idx, res := parallel.Portfolio(cfg.Context, runs)
	if res == nil {
		// Unreachable with a non-empty portfolio, but keep the API total.
		return runSingle(p, cfg.Portfolio[0])
	}
	res.PortfolioWinner = idx
	if cfg.CorpusDir != "" {
		res.CorpusErr = writePortfolioCorpus(p, cfg, entries[idx], res)
	}
	return res
}

// writePortfolioCorpus persists the winning entry's in-memory test set.
func writePortfolioCorpus(p *Program, outer, winner Config, res *Result) error {
	_, kind, _ := coreConfig(p, winner)
	writer, err := corpus.NewWriter(outer.CorpusDir, p.ir, outer.CorpusLabel, configDescriptor(winner, kind))
	if err != nil {
		return err
	}
	for _, tc := range res.Tests {
		emitToWriter(writer, tc)
	}
	return finishCorpus(writer, res)
}

// NewEngine exposes a prepared engine for callers that need incremental
// control (the bench harness samples stats mid-run). Single-threaded only:
// Workers and Portfolio are ignored here. An unknown cfg.Strategy panics —
// use Run for the error-reporting path.
func NewEngine(p *Program, cfg Config) *core.Engine {
	ccfg, kind, seed := coreConfig(p, cfg)
	return engineFactory(p, kind, seed, cfg.Monitor)(ccfg)
}

// engineFactory builds engines for a program: one call per parallel worker
// (plus the splitter), or a single call for a sequential run. Each engine
// gets its own driving strategy instance; shared pieces (builder, cache,
// QCE analysis) arrive through the core.Config. Every engine built is
// attached to mon (nil-safe) so a live Monitor sees all of them.
func engineFactory(p *Program, kind Strategy, seed int64, mon *Monitor) parallel.NewEngineFunc {
	return func(ccfg core.Config) *core.Engine {
		// The engine needs the strategy at construction, but the strategy
		// needs the engine as its context; break the cycle with a
		// forwarder.
		fwd := &ctxForwarder{}
		strat, err := search.New(kind, fwd, seed)
		if err != nil {
			// Run validated the strategy before building any engine, so
			// this is reachable only through NewEngine misuse.
			panic(err)
		}
		eng := core.NewEngine(p.ir, ccfg, strat)
		fwd.ctx = eng
		mon.attach(eng)
		return eng
	}
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
		DSMDelta:        cfg.DSMDelta,
		MaxSteps:        cfg.MaxSteps,
		MaxTime:         cfg.MaxTime,
		MaxStates:       cfg.MaxStates,
		Context:         cfg.Context,
		CheckBounds:     cfg.CheckBounds,
		CollectTests:    cfg.CollectTests,
		CanonicalTests:  cfg.CanonicalTests,
		MaxTests:        cfg.MaxTests,
		TrackExactPaths: cfg.TrackExactPaths,
		DisableSessions: cfg.DisableSessions,
		SolverOpts:      solver.DefaultOptions(),
		Obs:             cfg.obsRun,
	}
	if !cfg.DisableAnalysis {
		ccfg.Analysis = p.staticFacts()
		ccfg.CrossCheckAnalysis = cfg.CrossCheckAnalysis
	}
	if cfg.DisableSolverOpts {
		ccfg.SolverOpts = solver.Options{}
	}
	if cfg.Domain != nil {
		// Long-lived shared domain: one builder for every run, the shared
		// cex cache (persistent-store-backed when the domain has one).
		// Placed after the DisableSolverOpts zeroing so an ablation run
		// in a domain still shares the builder but skips the caches.
		ccfg.Builder = cfg.Domain.build
		if ccfg.SolverOpts.EnableCexCache {
			ccfg.SolverOpts.SharedCache = cfg.Domain.cex
		}
	}
	return ccfg, cfg.Strategy, cfg.Seed
}

// ctxForwarder defers StrategyContext calls to the engine once built.
type ctxForwarder struct{ ctx core.StrategyContext }

func (f *ctxForwarder) IsCovered(l ir.Loc) bool { return f.ctx.IsCovered(l) }

func (f *ctxForwarder) TopoLess(a, b *core.State) bool { return f.ctx.TopoLess(a, b) }
