package symx

// The crash-safe exploration driver (Config.CheckpointDir). It runs the
// exploration in epochs of CheckpointEvery: each epoch is a preemptible
// parallel.Explore whose context times out at the epoch boundary, the
// preempted workers hand back their live states, and the driver persists
// them — plus the cumulative progress counters and the corpus writer's
// dedup state — as one atomic internal/checkpoint snapshot before seeding
// the next epoch with the same states. A run killed at any point between
// (or inside) epochs resumes from the newest valid snapshot and converges
// to the same results as an uninterrupted run: coverage, the error set,
// and the test corpus are schedule-invariant, and corpus emission is
// idempotent by input hash. The multiplicity census additionally
// reproduces exactly when the schedule is canonical (sequential SSM,
// whose merge points are static and whose topological strategy is
// insensitive to worklist order); under DSM the merge PATTERN — which
// paths end up represented by one merged state — depends on which states
// coexist in the worklist, so preemption can shift multiplicities while
// leaving the explored path set, and everything derived from it, intact.

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"symmerge/internal/checkpoint"
	"symmerge/internal/core"
	"symmerge/internal/corpus"
	"symmerge/internal/expr"
	"symmerge/internal/parallel"
	"symmerge/internal/qce"
	"symmerge/internal/solver"
)

// defaultCheckpointEvery is the snapshot interval when Config.CheckpointEvery
// is unset.
const defaultCheckpointEvery = 30 * time.Second

// configFailure builds the empty result for a checkpoint configuration or
// snapshot the run refuses up front (hash mismatch, undecodable states).
func configFailure(err error) *Result {
	res := &Result{PortfolioWinner: -1, ConfigErr: err}
	res.Stats.PathsMult = big.NewInt(0)
	return res
}

// runCheckpointed is runSingle for Config.CheckpointDir.
func runCheckpointed(p *Program, cfg Config) *Result {
	start := time.Now()
	if cfg.CorpusDir != "" {
		cfg = applyCorpusImplications(cfg)
	}
	ccfg, kind, seed := coreConfig(p, cfg)

	// The shared infrastructure parallel.Explore would normally create per
	// call must persist across epochs here: states are snapshotted and
	// reseeded between pool invocations, and their expressions must keep
	// interning into one builder (snapshot decoding targets it too).
	if ccfg.Builder == nil {
		ccfg.Builder = expr.NewBuilder()
	}
	if ccfg.SolverOpts.EnableCexCache && ccfg.SolverOpts.SharedCache == nil {
		ccfg.SolverOpts.SharedCache = solver.NewSharedCache()
	}
	if ccfg.UseQCE && ccfg.QCEAnalysis == nil {
		ccfg.QCEAnalysis = qce.Analyze(p.ir, ccfg.QCE)
	}

	// Epoch boundaries arrive as context timeouts; poll every step so an
	// epoch preempts as soon as its interval elapses instead of being
	// quantized to the default 64-step cadence.
	ccfg.PollEvery = 1

	desc := configDescriptor(cfg, kind)
	pinfo := corpus.ProgramInfo{Name: cfg.CorpusLabel, Hash: corpus.ProgramHash(p.ir), Locations: p.ir.NumLocations()}
	factory := engineFactory(p, kind, seed, cfg.Monitor)

	// The driver takes its own trace lane: epoch boundaries and snapshot
	// writes are driver work, not any worker's.
	drv := cfg.obsRun.NewLane()

	// Resume: restore the newest valid snapshot, refusing one produced by
	// a different program or configuration — resuming it would silently
	// change the census the snapshot's counters belong to.
	var (
		base       *core.Result // progress as of the snapshot
		seeds      []*core.State
		seq        uint64
		corpusSnap *checkpoint.CorpusState
		resumed    bool
	)
	if cfg.Resume {
		sn, err := checkpoint.LoadLatest(cfg.CheckpointDir)
		if err != nil {
			return configFailure(err)
		}
		if sn != nil {
			if sn.Program.Hash != pinfo.Hash {
				return configFailure(fmt.Errorf("checkpoint: snapshot %d is for program hash %.12s…, current program hashes to %.12s…", sn.Seq, sn.Program.Hash, pinfo.Hash))
			}
			if sn.Config != desc {
				return configFailure(fmt.Errorf("checkpoint: snapshot %d was produced under config %q, current config is %q", sn.Seq, sn.Config, desc))
			}
			wires, err := sn.DecodeStates(ccfg.Builder)
			if err != nil {
				return configFailure(fmt.Errorf("checkpoint: snapshot %d: %w", sn.Seq, err))
			}
			if seeds, err = factory(ccfg).MaterializeStates(wires); err != nil {
				return configFailure(fmt.Errorf("checkpoint: snapshot %d: %w", sn.Seq, err))
			}
			base, err = progressToResult(sn.Progress, p.ir.NumLocations())
			if err != nil {
				return configFailure(fmt.Errorf("checkpoint: snapshot %d: %w", sn.Seq, err))
			}
			corpusSnap = sn.Corpus
			seq = sn.Seq + 1
			resumed = true
		}
	}

	var writer *corpus.Writer
	if cfg.CorpusDir != "" {
		var quarantined []string
		if cfg.Resume {
			var err error
			if quarantined, err = corpus.ValidateDir(cfg.CorpusDir); err != nil {
				return corpusFailure(err)
			}
		}
		w, err := corpus.NewWriter(cfg.CorpusDir, p.ir, cfg.CorpusLabel, desc)
		if err != nil {
			return corpusFailure(err)
		}
		if corpusSnap != nil {
			// Quarantined ids leave the restored dedup set so the resumed
			// exploration regenerates their files.
			w.RestoreState(corpusSnap.Seen, corpusSnap.Emitted, corpusSnap.Skipped, quarantined)
		}
		writer = w
		ccfg.TestSink = func(tc core.TestCase) { emitToWriter(writer, tc) }
	}

	interval := cfg.CheckpointEvery
	if interval <= 0 {
		interval = defaultCheckpointEvery
	}
	// The effective interval adapts upward: every epoch boundary pays a
	// fixed cost that scales with the frontier, not the interval — worker
	// teardown, snapshot encoding, and above all re-seeding the next
	// epoch's engines (each seed's path condition re-blasts into a fresh
	// solver session). An interval shorter than that cost makes epochs
	// regress toward one step per snapshot; on a workload whose individual
	// steps outlast the interval, a fixed schedule would never amortize at
	// all. Growing the budget to overheadFactor× the measured overhead
	// bounds the checkpointing tax at ~1/overheadFactor of the run while
	// keeping the user's interval whenever it is affordable.
	const overheadFactor = 4
	effective := interval
	baseCtx := cfg.Context
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	// Budgets are per-invocation: the overall wall-clock deadline and the
	// step budget cover this process's epochs, not the snapshot's past.
	var deadline time.Time
	if cfg.MaxTime > 0 {
		deadline = start.Add(cfg.MaxTime)
	}
	var spentSteps uint64

	var results []*core.Result
	if base != nil {
		results = append(results, base)
	}
	completed := resumed && len(seeds) == 0 // snapshot of a drained frontier
	cause := core.IntrNone
	var ckptErr error

	for !completed {
		if cfg.MaxSteps > 0 && spentSteps >= cfg.MaxSteps {
			cause = core.IntrBudget
			break
		}
		epochLen := effective
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= 0 {
				cause = core.IntrBudget
				break
			}
			if remain < epochLen {
				epochLen = remain
			}
		}
		ecfg := ccfg
		if cfg.MaxSteps > 0 {
			ecfg.MaxSteps = cfg.MaxSteps - spentSteps
		}
		// The driver owns the deadline; the epoch boundary arrives as a
		// context timeout the engines poll on their step cadence.
		ecfg.MaxTime = 0
		ectx, cancel := context.WithTimeout(baseCtx, epochLen)
		ecfg.Context = ectx
		drv.Epoch(seq, len(seeds))
		epochStart := time.Now()
		res, left := parallel.ExplorePreemptible(p.ir, ecfg, parallel.Options{Workers: cfg.Workers, Seeds: seeds}, factory)
		cancel()
		epochWall := time.Since(epochStart)
		results = append(results, res)
		spentSteps += res.Stats.Steps
		seeds = left

		if res.Completed {
			completed = true
			break
		}

		// Snapshot the preempted frontier before the next epoch adopts
		// (and mutates) its states — ToWire copies, so the snapshot is
		// immune to that. A snapshot that fails to persist does not stop
		// the exploration; the failure is reported on the final result.
		sn := &checkpoint.Snapshot{Seq: seq, Program: pinfo, Config: desc}
		sn.Progress = resultToProgress(parallel.Combine(results, false, ccfg))
		if writer != nil {
			seen, emitted, skipped := writer.StateSnapshot()
			sn.Corpus = &checkpoint.CorpusState{Seen: seen, Emitted: emitted, Skipped: skipped}
		}
		wires := make([]*core.StateWire, len(left))
		for i, s := range left {
			wires[i] = s.ToWire(ccfg.Builder)
		}
		sn.EncodeStates(wires)
		snapStart := time.Now()
		_, werr := checkpoint.Write(cfg.CheckpointDir, sn)
		if werr != nil && ckptErr == nil {
			ckptErr = werr
		}
		drv.Checkpoint(seq, len(wires), werr != nil)
		seq++

		// Epoch-boundary overhead: the wall time beyond the stepping budget
		// (pool setup, seed re-blasting, a step that straddled the deadline)
		// plus persisting the snapshot itself.
		overhead := epochWall - epochLen + time.Since(snapStart)
		if min := overheadFactor * overhead; effective < min {
			effective = min
		}

		if baseCtx.Err() != nil {
			// Cancelled from outside (Ctrl-C, SIGTERM, a parent context):
			// the snapshot just written makes the stop resumable, which is
			// what IntrCheckpoint reports.
			cause = core.IntrCheckpoint
			if ckptErr != nil {
				cause = core.IntrContext
			}
			break
		}
	}

	final := parallel.Combine(results, completed, ccfg)
	final.Interrupted = cause
	final.CheckpointErr = ckptErr
	final.Stats.ElapsedSeconds = time.Since(start).Seconds()
	if base != nil {
		final.Stats.ElapsedSeconds += base.Stats.ElapsedSeconds
	}
	if writer != nil {
		final.CorpusErr = finishCorpus(writer, final)
	}
	return final
}

// progressToResult rehydrates a snapshot's cumulative progress into the
// result shape parallel.Combine folds epoch results onto.
func progressToResult(pr checkpoint.Progress, nloc int) (*core.Result, error) {
	mask, err := corpus.RangesToMask(pr.Covered, nloc)
	if err != nil {
		return nil, fmt.Errorf("progress coverage: %w", err)
	}
	res := &core.Result{
		Stats:           pr.Stats,
		Tests:           pr.Tests,
		Errors:          pr.Errors,
		CoverageMask:    mask,
		PortfolioWinner: -1,
	}
	if res.Stats.PathsMult == nil {
		res.Stats.PathsMult = big.NewInt(0)
	}
	return res, nil
}

// resultToProgress is the inverse: the cumulative result so far, with the
// coverage bitmap compressed to the manifest range-list encoding and the
// builder-global rule counters dropped (a resumed builder starts fresh;
// they are diagnostics, not census).
func resultToProgress(res *core.Result) checkpoint.Progress {
	st := res.Stats
	st.Rules = nil
	return checkpoint.Progress{
		Stats:   st,
		Covered: corpus.MaskToRanges(res.CoverageMask),
		Tests:   res.Tests,
		Errors:  res.Errors,
	}
}
