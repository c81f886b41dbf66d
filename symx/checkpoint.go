package symx

// The crash-safe exploration driver (Config.CheckpointDir). It runs one
// engine for the whole invocation and steps it exactly as Run does; every
// CheckpointEvery, and on every stop that leaves live states, it writes one
// atomic internal/checkpoint snapshot of the engine's frontier, the
// cumulative progress counters, and the corpus writer's dedup state. A
// snapshot leaves the engine's states untouched, so a run that is never
// killed explores exactly the schedule of the same run without
// checkpointing.
//
// A run killed at any point resumes from the newest valid snapshot and
// converges to the same results as an uninterrupted run: coverage, the
// error set, and the test corpus are schedule-invariant, and corpus
// emission is idempotent by input hash. The multiplicity census also
// reproduces exactly when the schedule is canonical (SSM, whose merge
// points are static and whose topological strategy is insensitive to
// worklist order). Under DSM the merge pattern — which paths end up
// represented by one merged state — depends on which states coexist in the
// worklist, so a kill and resume can shift multiplicities while leaving the
// explored path set, and everything derived from it, intact.

import (
	"fmt"
	"math/big"
	"time"

	"symmerge/internal/checkpoint"
	"symmerge/internal/core"
	"symmerge/internal/corpus"
)

// defaultCheckpointEvery is the snapshot interval when Config.CheckpointEvery
// is unset.
const defaultCheckpointEvery = 30 * time.Second

// snapshotCostFactor bounds the checkpointing tax: the interval grows to
// this many times the measured cost of a snapshot, which scales with the
// frontier, so that a short interval on a wide frontier cannot turn the
// run into one snapshot per step.
const snapshotCostFactor = 4

// runCheckpointed is runSingle for Config.CheckpointDir.
func runCheckpointed(p *Program, cfg Config) *Result {
	if cfg.CorpusDir != "" {
		cfg = applyCorpusImplications(cfg)
	}
	ccfg, kind, seed := coreConfig(p, cfg)
	desc := configDescriptor(cfg, kind)
	pinfo := corpus.ProgramInfo{Name: cfg.CorpusLabel, Hash: corpus.ProgramHash(p.ir), Locations: p.ir.NumLocations()}

	// Resume: load the newest valid snapshot, refusing one produced by a
	// different program or configuration — resuming it would silently
	// change the census the snapshot's counters belong to.
	var sn *checkpoint.Snapshot
	if cfg.Resume {
		var err error
		if sn, err = checkpoint.LoadLatest(cfg.CheckpointDir); err != nil {
			return failedResult(err)
		}
		if sn != nil && sn.Program.Hash != pinfo.Hash {
			return failedResult(fmt.Errorf("checkpoint: snapshot %d is for program hash %.12s…, current program hashes to %.12s…", sn.Seq, sn.Program.Hash, pinfo.Hash))
		}
		if sn != nil && sn.Config != desc {
			return failedResult(fmt.Errorf("checkpoint: snapshot %d was produced under config %q, current config is %q", sn.Seq, sn.Config, desc))
		}
	}

	// The sink is bound before the engine exists; the writer behind it is
	// opened only once the snapshot has been accepted.
	var writer *corpus.Writer
	if cfg.CorpusDir != "" {
		ccfg.TestSink = func(tc core.TestCase) { emitToWriter(writer, tc) }
	}
	eng := newEngine(p, ccfg, kind, seed, cfg.Monitor)
	var (
		base     *core.Result // progress as of the snapshot
		seq      uint64
		restored int
	)
	if sn != nil {
		eng.Begin(false)
		err := eng.Restore(&sn.Frontier)
		if err == nil {
			base, err = progressToResult(sn.Progress, p.ir.NumLocations())
		}
		if err != nil {
			return failedResult(fmt.Errorf("checkpoint: snapshot %d: %w", sn.Seq, err))
		}
		seq, restored = sn.Seq+1, len(sn.States)
	} else {
		eng.Begin(true)
	}

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
		if sn != nil && sn.Corpus != nil {
			// Quarantined ids leave the restored dedup set so the resumed
			// exploration regenerates their files.
			w.RestoreState(sn.Corpus.Seen, sn.Corpus.Emitted, sn.Corpus.Skipped, quarantined)
		}
		writer = w
	}

	// The driver takes its own trace lane: epochs and snapshot writes are
	// driver work, not the engine's.
	drv := cfg.obsRun.NewLane()
	drv.Epoch(seq, restored)
	var ckptErr error
	// write persists snapshot seq of the engine's frontier with progress,
	// the engine's counters so far, folded onto the snapshot's base. A
	// snapshot that fails to persist does not stop the exploration; the
	// first failure is reported on the final result.
	write := func(progress *core.Result) int {
		next := &checkpoint.Snapshot{Seq: seq, Program: pinfo, Config: desc, Frontier: eng.Snapshot()}
		next.Progress = resultToProgress(foldProgress(base, progress, ccfg.MaxTests))
		if writer != nil {
			seen, emitted, skipped := writer.StateSnapshot()
			next.Corpus = &checkpoint.CorpusState{Seen: seen, Emitted: emitted, Skipped: skipped}
		}
		_, err := checkpoint.Write(cfg.CheckpointDir, next)
		if err != nil && ckptErr == nil {
			ckptErr = err
		}
		drv.Checkpoint(seq, len(next.States), err != nil)
		seq++
		return len(next.States)
	}

	interval := cfg.CheckpointEvery
	if interval <= 0 {
		interval = defaultCheckpointEvery
	}
	last := time.Now()
	status := core.RunMore
	for status == core.RunMore {
		status = eng.StepN(1)
		if status == core.RunMore && time.Since(last) >= interval {
			snapStart := time.Now()
			states := write(eng.Progress())
			drv.Epoch(seq, states) // write advanced seq to the next snapshot
			if cost := snapshotCostFactor * time.Since(snapStart); interval < cost {
				interval = cost
			}
			last = time.Now()
		}
	}

	res := eng.Finish(status == core.RunDrained)
	if status == core.RunStopped {
		write(res)
		if res.Interrupted == core.IntrContext && ckptErr == nil {
			// Cancelled from outside (Ctrl-C, SIGTERM, a daemon drain): the
			// snapshot just written makes the stop resumable.
			res.Interrupted = core.IntrCheckpoint
		}
	}
	final := foldProgress(base, res, ccfg.MaxTests)
	final.CheckpointErr = ckptErr
	if writer != nil {
		final.CorpusErr = finishCorpus(writer, final)
	}
	return final
}

// foldProgress adds an engine's result to the cumulative progress restored
// from a snapshot (nil when the run started fresh): counters sum, coverage
// is the union, tests and errors append up to maxTests (0 = 256), and the
// completion and interruption cause are the engine's. Rule hits are the
// engine's own: a snapshot does not carry them.
func foldProgress(base, cur *core.Result, maxTests int) *core.Result {
	if base == nil {
		return cur
	}
	if maxTests == 0 {
		maxTests = 256
	}
	out := *cur
	st, b := &out.Stats, base.Stats
	st.Steps += b.Steps
	st.Instructions += b.Instructions
	st.Forks += b.Forks
	st.MergeAttempts += b.MergeAttempts
	st.Merges += b.Merges
	st.FFSelected += b.FFSelected
	st.FFMerged += b.FFMerged
	st.PathsCompleted += b.PathsCompleted
	st.PathsMult = new(big.Int).Add(b.PathsMult, cur.Stats.PathsMult)
	st.ExactPaths += b.ExactPaths
	st.ErrorsFound += b.ErrorsFound
	st.Pruned += b.Pruned
	st.TestGenFailures += b.TestGenFailures
	st.MaxWorklist = max(st.MaxWorklist, b.MaxWorklist)
	st.ElapsedSeconds += b.ElapsedSeconds

	sv, bv := &st.Solver, b.Solver
	sv.Queries += bv.Queries
	sv.ModelReuseHits += bv.ModelReuseHits
	sv.SATCalls += bv.SATCalls
	sv.SATTime += bv.SATTime
	sv.Timeouts += bv.Timeouts
	sv.SessionBlastReuse += bv.SessionBlastReuse
	sv.SessionRebases += bv.SessionRebases
	sv.SATVars += bv.SATVars
	sv.SATClauses += bv.SATClauses
	sv.SATDecisions += bv.SATDecisions
	sv.SATPropagations += bv.SATPropagations
	sv.SATConflicts += bv.SATConflicts
	sv.ConeVars += bv.ConeVars
	sv.CoreVars += bv.CoreVars

	out.Tests = capAppend(base.Tests, cur.Tests, maxTests)
	out.Errors = capAppend(base.Errors, cur.Errors, maxTests)
	out.CoverageMask = make([]bool, len(cur.CoverageMask))
	st.CoveredInstrs = 0
	for i, c := range cur.CoverageMask {
		if c || base.CoverageMask[i] {
			out.CoverageMask[i] = true
			st.CoveredInstrs++
		}
	}
	return &out
}

// capAppend returns a fresh slice of a followed by b, cut at n elements.
func capAppend[T any](a, b []T, n int) []T {
	out := append(append(make([]T, 0, len(a)+len(b)), a...), b...)
	return out[:min(len(out), n)]
}

// progressToResult rehydrates a snapshot's cumulative progress into the
// result shape foldProgress folds the engine's counters onto.
func progressToResult(pr checkpoint.Progress, nloc int) (*core.Result, error) {
	mask, err := corpus.RangesToMask(pr.Covered, nloc)
	if err != nil {
		return nil, fmt.Errorf("progress coverage: %w", err)
	}
	res := &core.Result{
		Stats:        pr.Stats,
		Tests:        pr.Tests,
		Errors:       pr.Errors,
		CoverageMask: mask,
	}
	if res.Stats.PathsMult == nil {
		res.Stats.PathsMult = big.NewInt(0)
	}
	return res, nil
}

// resultToProgress is the inverse: the cumulative result so far, with the
// coverage bitmap compressed to the manifest range-list encoding and the
// builder's rule counters dropped (a resumed builder starts fresh; they are
// diagnostics, not census).
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
