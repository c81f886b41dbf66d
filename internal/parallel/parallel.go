// Package parallel is the multi-worker exploration subsystem: it shards the
// symbolic frontier across N goroutines, each running its own core.Engine
// over subtrees claimed from a shared, mutex-guarded frontier, with
// work-stealing when a worker's local worklist drains.
//
// What is shared and what is per-worker:
//
//   - Shared, race-clean: one expr.Builder (sharded-lock hash-consing, so
//     expression identity and builder-unique IDs are globally consistent),
//     one counterexample cache (sharded locks, atomic hit/miss counters),
//     one immutable QCE analysis, and the frontier itself.
//   - Per-worker: the engine, its solver (incremental sessions, the
//     recent-model ring, scratch buffers), its driving strategy, its DSM
//     bookkeeping, and its stats. Merging (SSM/DSM, Algorithm 2) therefore
//     stays worker-local per subtree: two states can only merge if the same
//     worker holds both, which keeps the paper's merge bookkeeping entirely
//     lock-free. Cross-worker sharding forgoes some merges — that changes
//     how many *states* complete, never how many *paths* they represent
//     (Σ multiplicity), nor coverage, nor the set of errors reachable.
//
// Exploration runs in two phases. A splitter engine runs the entry state
// single-threaded until the frontier is wide enough (or the program is
// done), then hands every live state to the frontier. Workers then claim
// states, explore the claimed subtree to exhaustion with their own engine,
// and claim again; a worker whose quantum ends while peers are starved
// donates its oldest states (the roots of its largest unexplored subtrees)
// back to the frontier. At join, per-worker stats are aggregated into one
// deterministic Result (fixed summation order: splitter, then workers by
// index).
package parallel

import (
	"context"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"symmerge/internal/checkpoint/faultinject"
	"symmerge/internal/core"
	"symmerge/internal/expr"
	"symmerge/internal/ir"
	"symmerge/internal/qce"
	"symmerge/internal/solver"
)

// NewEngineFunc builds one exploration engine (with its driving strategy)
// for the given configuration. The symx layer supplies it; parallel calls
// it once for the splitter and once per worker, after injecting the shared
// builder, cache, and QCE analysis into the configuration.
type NewEngineFunc func(core.Config) *core.Engine

// Options tunes the pool.
type Options struct {
	// Workers is the number of exploration goroutines; values <= 1 run the
	// single-threaded path.
	Workers int
	// SplitFactor scales the initial sharding phase: the splitter runs
	// until the frontier holds SplitFactor*Workers states (default 4).
	SplitFactor int
	// StepQuantum is how many scheduler steps a worker runs between
	// frontier polls (default 128).
	StepQuantum int
	// Seeds, when non-empty, replaces the splitter phase: the frontier is
	// primed with these detached states instead of sharding from the entry
	// state. The checkpoint driver uses it to hand a resumed (or previous
	// epoch's) frontier straight to the worker fleet.
	Seeds []*core.State
}

func (o Options) splitTarget() int {
	f := o.SplitFactor
	if f <= 0 {
		f = 4
	}
	return f * o.Workers
}

func (o Options) quantum() int {
	if o.StepQuantum > 0 {
		return o.StepQuantum
	}
	return 128
}

// maxSplitSteps bounds the single-threaded sharding phase: a program whose
// frontier never widens (merging collapses it, or a long straight-line
// prefix) must not serialize the whole run. Past the cap, whatever frontier
// exists is handed off and workers balance via stealing.
const maxSplitSteps = 4096

// Explore shards the exploration of prog under cfg across opts.Workers
// goroutines and returns the aggregated result.
func Explore(prog *ir.Program, cfg core.Config, opts Options, newEngine NewEngineFunc) *core.Result {
	res, _ := explore(prog, cfg, opts, newEngine, false)
	return res
}

// ExplorePreemptible is Explore for the checkpoint driver: when a budget or
// cancellation stops the run, the states every worker still held — plus any
// left unclaimed on the frontier — come back as detached leftovers instead
// of being abandoned, so the caller can snapshot them and hand them to the
// next epoch (or the next process) as Seeds. Leftovers is nil when the run
// completed.
func ExplorePreemptible(prog *ir.Program, cfg core.Config, opts Options, newEngine NewEngineFunc) (*core.Result, []*core.State) {
	return explore(prog, cfg, opts, newEngine, true)
}

func explore(prog *ir.Program, cfg core.Config, opts Options, newEngine NewEngineFunc, preempt bool) (*core.Result, []*core.State) {
	if opts.Workers <= 1 {
		return exploreSeq(cfg, opts, newEngine, preempt)
	}
	start := time.Now()

	// Shared infrastructure. The builder must be common to all workers:
	// states migrate with their expressions, and the counterexample cache
	// keys on builder-unique expression IDs.
	if cfg.Builder == nil {
		cfg.Builder = expr.NewBuilder()
	}
	if cfg.SolverOpts.EnableCexCache && cfg.SolverOpts.SharedCache == nil {
		cfg.SolverOpts.SharedCache = solver.NewSharedCache()
	}
	if cfg.UseQCE && cfg.QCEAnalysis == nil {
		cfg.QCEAnalysis = qce.Analyze(prog, cfg.QCE)
	}
	baseCtx := cfg.Context
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	pctx, cancel := context.WithCancel(baseCtx)
	defer cancel()
	cfg.Context = pctx

	// Phase 1: single-threaded split until the frontier is wide enough —
	// skipped entirely when the caller seeds the frontier with an already
	// sharded (resumed or previous-epoch) frontier.
	var splitRes *core.Result
	seeds := opts.Seeds
	if len(seeds) == 0 {
		split := newEngine(cfg)
		split.Begin(true)
		status := core.RunDrained
		for steps := 0; split.WorklistLen() > 0 && split.WorklistLen() < opts.splitTarget() && steps < maxSplitSteps; steps++ {
			status = split.StepN(1)
			if status != core.RunMore {
				break
			}
		}
		if status == core.RunDrained && split.WorklistLen() == 0 {
			// The program was exhausted (or every path pruned) before the
			// frontier ever widened: the splitter's run is the whole result.
			res := split.Finish(true)
			res.Stats.ElapsedSeconds = time.Since(start).Seconds()
			return res, nil
		}
		if status == core.RunStopped {
			res := split.Finish(false)
			var left []*core.State
			if preempt {
				left = split.ExtractAll()
			}
			return res, left
		}
		seeds = split.ExtractAll()
		splitRes = split.Finish(true)
	}

	fr := newFrontier(opts.Workers)
	fr.put(seeds)

	// Phase 2: the worker fleet. Budgets are split across workers: each
	// gets an equal share of the remaining steps and the remaining wall
	// clock (workers start together, so their deadlines coincide).
	wcfg := cfg
	if cfg.MaxSteps > 0 {
		rem := cfg.MaxSteps
		if splitRes != nil {
			rem = 0
			if cfg.MaxSteps > splitRes.Stats.Steps {
				rem = cfg.MaxSteps - splitRes.Stats.Steps
			}
		}
		wcfg.MaxSteps = max(rem/uint64(opts.Workers), 1)
	}
	if cfg.MaxStates > 0 {
		// Keep the configured bound a cap on *total* live states (it is a
		// memory budget): worklists are disjoint shards, so each worker
		// prunes past an equal share.
		wcfg.MaxStates = max(cfg.MaxStates/opts.Workers, 1)
	}
	if cfg.MaxTime > 0 {
		wcfg.MaxTime = max(cfg.MaxTime-time.Since(start), time.Millisecond)
	}

	engines := make([]*core.Engine, opts.Workers)
	results := make([]*core.Result, opts.Workers)
	leftovers := make([][]*core.State, opts.Workers)
	var killed atomic.Pointer[faultinject.Killed]
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for i := range engines {
		engines[i] = newEngine(wcfg)
	}
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// An injected kill panicking out of a worker goroutine would
			// abort the whole test process before the harness could
			// resume in-process: catch it, close the frontier so peers
			// wind down, and re-panic from the caller's goroutine below —
			// the harness recovers it there, exactly as if the process
			// had died with some workers mid-step.
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if k, ok := r.(faultinject.Killed); ok {
					killed.CompareAndSwap(nil, &k)
					stopped.Store(true)
					fr.close()
					return
				}
				panic(r)
			}()
			results[i], leftovers[i] = runWorker(engines[i], fr, &stopped, opts.quantum(), preempt)
		}(i)
	}
	wg.Wait()
	if k := killed.Load(); k != nil {
		panic(*k)
	}

	var left []*core.State
	if preempt && stopped.Load() {
		for _, l := range leftovers {
			left = append(left, l...)
		}
		// States still sitting unclaimed on the frontier are part of the
		// resumable picture too.
		left = append(left, fr.drain()...)
	}
	all := results
	if splitRes != nil {
		all = append([]*core.Result{splitRes}, results...)
	}
	res := Combine(all, !stopped.Load(), cfg)
	res.Stats.ElapsedSeconds = time.Since(start).Seconds()
	return res, left
}

// exploreSeq is the single-engine path: no frontier, no goroutines, but
// the same seeding and preemption contract as the worker fleet.
func exploreSeq(cfg core.Config, opts Options, newEngine NewEngineFunc, preempt bool) (*core.Result, []*core.State) {
	if !preempt && len(opts.Seeds) == 0 {
		return newEngine(cfg).Run(), nil
	}
	eng := newEngine(cfg)
	if len(opts.Seeds) > 0 {
		eng.Begin(false)
		for _, s := range opts.Seeds {
			eng.Inject(s)
		}
	} else {
		eng.Begin(true)
	}
	completed := true
loop:
	for {
		switch eng.StepN(opts.quantum()) {
		case core.RunDrained:
			break loop
		case core.RunStopped:
			completed = false
			break loop
		}
	}
	res := eng.Finish(completed)
	var left []*core.State
	if !completed && preempt {
		left = eng.ExtractAll()
	}
	return res, left
}

// runWorker is one exploration goroutine: claim a subtree root from the
// frontier, run it to exhaustion in quanta, donate states to starved peers
// between quanta, repeat until the frontier closes.
func runWorker(eng *core.Engine, fr *frontier, stopped *atomic.Bool, quantum int, preempt bool) (*core.Result, []*core.State) {
	eng.Begin(false)
	for {
		s := fr.take()
		if s == nil {
			return eng.Finish(true), nil
		}
		eng.Obs().Steal(1)
		eng.Inject(s)
	subtree:
		for {
			switch eng.StepN(quantum) {
			case core.RunDrained:
				break subtree
			case core.RunStopped:
				// This worker's budget share tripped (or the shared
				// context/deadline fired, which every peer observes on
				// its own within a step-poll). Retire locally instead
				// of cancelling the pool: peers keep spending their own
				// shares, so an imbalanced frontier cannot strand most
				// of the configured budget. The claimed states left in
				// this worklist are abandoned, exactly like a
				// budget-stop in a sequential run — unless the caller
				// asked for preemption, in which case they come back as
				// resumable leftovers.
				stopped.Store(true)
				res := eng.Finish(false)
				var left []*core.State
				if preempt {
					left = eng.ExtractAll()
				}
				fr.leave()
				return res, left
			case core.RunMore:
				if n := fr.hungry(); n > 0 {
					donated := eng.ExtractStates(n)
					eng.Obs().Donate(len(donated))
					fr.put(donated)
				}
			}
		}
	}
}

// frontier is the shared, mutex-guarded work pool. take blocks until a
// state is available; when every worker is blocked simultaneously with the
// queue empty, no work can ever appear again and the frontier closes.
type frontier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*core.State
	waiting int
	workers int
	closed  bool

	// starved mirrors `waiting` atomically so donors can poll it between
	// step quanta without taking the lock.
	starved atomic.Int32
}

func newFrontier(workers int) *frontier {
	f := &frontier{workers: workers}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// put appends detached states and wakes starved workers.
func (f *frontier) put(ss []*core.State) {
	if len(ss) == 0 {
		return
	}
	f.mu.Lock()
	f.queue = append(f.queue, ss...)
	f.mu.Unlock()
	f.cond.Broadcast()
}

// take returns the next claimable state, blocking while the queue is empty
// and some peer might still donate. It returns nil once the frontier is
// closed (global drain, budget stop, or cancellation).
func (f *frontier) take() *core.State {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil
		}
		if len(f.queue) > 0 {
			s := f.queue[0]
			f.queue[0] = nil // release the claimed state's backing slot
			f.queue = f.queue[1:]
			return s
		}
		f.waiting++
		f.starved.Add(1)
		if f.waiting == f.workers {
			// Everyone is starved with an empty queue: nobody is
			// running, so nobody can donate. Global drain.
			f.closed = true
			f.cond.Broadcast()
			return nil
		}
		f.cond.Wait()
		f.waiting--
		f.starved.Add(-1)
	}
}

// leave retires a worker that stopped on its own budget share: the drain
// detection must no longer count it, and if every remaining worker is
// already starved with an empty queue, the frontier closes now (the
// leaver was the only one who could still have donated).
func (f *frontier) leave() {
	f.mu.Lock()
	f.workers--
	if f.waiting >= f.workers && len(f.queue) == 0 {
		f.closed = true
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// close wakes every blocked worker and makes all future takes return nil.
func (f *frontier) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// drain removes and returns every unclaimed state. Called after the worker
// fleet has joined, when a preempted pool collects its resumable frontier.
func (f *frontier) drain() []*core.State {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.queue
	f.queue = nil
	return out
}

// hungry reports how many workers are currently blocked on an empty queue —
// the donation target for a running worker's next steal poll.
func (f *frontier) hungry() int { return int(f.starved.Load()) }

// Combine folds per-engine results into one, in fixed order so the output
// is deterministic for a given input sequence. Counters sum; coverage is
// the union of the per-result bitmaps; MaxWorklist is the per-worker
// maximum (worklists are disjoint shards); solver time sums across
// workers, so it can exceed wall-clock — it is aggregate solver effort, as
// in the paper's query-time accounting; Interrupted keeps the most
// specific cause (the maximum, per its ordering). Completed is taken from
// the caller, who knows whether the whole pool drained — a retired
// worker's own Completed=false is subsumed by that. Exported for the symx
// checkpoint driver, which folds a resumed run's engine totals onto the
// progress base restored from the snapshot; nil entries (a skipped
// worker) are ignored.
func Combine(all []*core.Result, completed bool, cfg core.Config) *core.Result {
	agg := &core.Result{Completed: completed, PortfolioWinner: -1}
	st := &agg.Stats
	st.PathsMult = big.NewInt(0)
	maxTests := cfg.MaxTests
	if maxTests == 0 {
		maxTests = 256
	}
	for _, r := range all {
		if r == nil {
			continue
		}
		s := r.Stats
		st.Steps += s.Steps
		st.Instructions += s.Instructions
		st.Forks += s.Forks
		st.MergeAttempts += s.MergeAttempts
		st.Merges += s.Merges
		st.FFSelected += s.FFSelected
		st.FFMerged += s.FFMerged
		st.PathsCompleted += s.PathsCompleted
		if s.PathsMult != nil {
			st.PathsMult.Add(st.PathsMult, s.PathsMult)
		}
		st.ExactPaths += s.ExactPaths
		st.ErrorsFound += s.ErrorsFound
		st.Pruned += s.Pruned
		st.PrunedStatic += s.PrunedStatic
		st.BoundsElided += s.BoundsElided
		st.TestGenFailures += s.TestGenFailures
		if s.MaxWorklist > st.MaxWorklist {
			st.MaxWorklist = s.MaxWorklist
		}
		if s.TotalInstrs != 0 {
			st.TotalInstrs = s.TotalInstrs
		}
		if r.Interrupted > agg.Interrupted {
			agg.Interrupted = r.Interrupted
		}

		st.Solver.Queries += s.Solver.Queries
		st.Solver.CacheHits += s.Solver.CacheHits
		st.Solver.ModelReuseHits += s.Solver.ModelReuseHits
		st.Solver.SATCalls += s.Solver.SATCalls
		st.Solver.SATTime += s.Solver.SATTime
		st.Solver.IndepSliced += s.Solver.IndepSliced
		st.Solver.Timeouts += s.Solver.Timeouts
		st.Solver.SessionQueries += s.Solver.SessionQueries
		st.Solver.SessionBlastReuse += s.Solver.SessionBlastReuse
		st.Solver.SessionBypass += s.Solver.SessionBypass
		st.Solver.SessionRebases += s.Solver.SessionRebases
		st.Solver.StableHits += s.Solver.StableHits
		st.Solver.StableGroupHits += s.Solver.StableGroupHits
		st.Solver.PreprocQueries += s.Solver.PreprocQueries
		st.Solver.PreprocNodesIn += s.Solver.PreprocNodesIn
		st.Solver.PreprocNodesOut += s.Solver.PreprocNodesOut
		st.Solver.SATVars += s.Solver.SATVars
		st.Solver.SATClauses += s.Solver.SATClauses

		// Rule hits are builder-global. Engines sharing a builder omit them
		// from their snapshots (core.Engine.Finish) and the pool attributes
		// the builder's counters once below; this keep-the-latest fold only
		// handles results that do embed a snapshot (private-builder engines
		// combined by exported-API callers) — counters are monotone, so the
		// largest total is the newest, and summing would multiply shared
		// counters by the worker count.
		if ruleTotal(s.Rules) > ruleTotal(st.Rules) {
			st.Rules = s.Rules
		}

		if len(agg.Tests) < maxTests {
			agg.Tests = append(agg.Tests, r.Tests...)
		}
		if len(agg.Errors) < maxTests {
			agg.Errors = append(agg.Errors, r.Errors...)
		}
	}
	if len(agg.Tests) > maxTests {
		agg.Tests = agg.Tests[:maxTests]
	}
	if len(agg.Errors) > maxTests {
		agg.Errors = agg.Errors[:maxTests]
	}
	covered := 0
	var union []bool
	for _, r := range all {
		if r == nil || r.CoverageMask == nil {
			continue
		}
		if union == nil {
			union = make([]bool, len(r.CoverageMask))
		}
		for i, c := range r.CoverageMask {
			if c && !union[i] {
				union[i] = true
				covered++
			}
		}
	}
	agg.CoverageMask = union
	st.CoveredInstrs = covered
	if cfg.Builder != nil {
		// Shared-resource attribution, once at pool level: the rewrite-rule
		// counters of the shared builder belong to the pool as a whole.
		st.Rules = cfg.Builder.RuleHits()
	}
	return agg
}

// ruleTotal sums a rule-hit snapshot for the keep-the-latest comparison in
// aggregate (counters are monotone, so the largest total is the newest).
func ruleTotal(rs []expr.RuleHit) uint64 {
	var t uint64
	for _, r := range rs {
		t += r.Hits
	}
	return t
}
