package symx

// Crash-safe exploration (Config.CheckpointDir), the checkpointing mode of
// runSingle. The run steps its one engine one step at a time; every
// CheckpointEvery, and on every stop that leaves live states, it writes one
// atomic internal/checkpoint snapshot of the engine's frontier, its
// cumulative progress, and the corpus writer's dedup state. A snapshot
// leaves the engine's states untouched, so a run that is never killed
// explores exactly the schedule of the same run without checkpointing.
//
// A resume restores the newest valid snapshot into a fresh engine, which
// counts on from the snapshot's progress and holds exactly the snapshotted
// worklist. A run killed at any point converges to the same results as an
// uninterrupted run: coverage, the error set, and the test corpus are
// schedule-invariant, and corpus emission is idempotent by input hash.
// The multiplicity census, steps and merges also reproduce exactly when
// the schedule is canonical (SSM, whose merge points are static and whose
// topological strategy is insensitive to worklist order). Under DSM the
// merge pattern — which paths end up represented by one merged state —
// depends on which states coexist in the worklist, so a kill and resume
// can shift multiplicities while leaving the explored path set, and
// everything derived from it, intact.

import (
	"fmt"
	"time"

	"symmerge/internal/checkpoint"
	"symmerge/internal/core"
	"symmerge/internal/corpus"
	"symmerge/internal/obs"
)

// defaultCheckpointEvery is the snapshot interval when Config.CheckpointEvery
// is unset.
const defaultCheckpointEvery = 30 * time.Second

// snapshotCostFactor bounds the checkpointing tax: the interval grows to
// this many times the measured cost of a snapshot, which scales with the
// frontier, so that a short interval on a wide frontier cannot turn the
// run into one snapshot per step.
const snapshotCostFactor = 4

// loadSnapshot returns the newest valid snapshot in dir (nil when there is
// none), refusing one produced by a different program or configuration:
// resuming it would silently change the census its counters belong to.
func loadSnapshot(dir string, pinfo corpus.ProgramInfo, desc string) (*checkpoint.Snapshot, error) {
	sn, err := checkpoint.LoadLatest(dir)
	if err != nil || sn == nil {
		return nil, err
	}
	if sn.Program.Hash != pinfo.Hash {
		return nil, fmt.Errorf("checkpoint: snapshot %d is for program hash %.12s…, current program hashes to %.12s…", sn.Seq, sn.Program.Hash, pinfo.Hash)
	}
	if sn.Config != desc {
		return nil, fmt.Errorf("checkpoint: snapshot %d was produced under config %q, current config is %q", sn.Seq, sn.Config, desc)
	}
	return sn, nil
}

// checkpointer writes the snapshots of one checkpointed run.
type checkpointer struct {
	dir    string
	pinfo  corpus.ProgramInfo
	desc   string
	eng    *core.Engine
	writer *corpus.Writer // nil without a corpus
	drv    *obs.Observer  // the driver's trace lane: epochs and snapshot writes
	seq    uint64         // the next snapshot's number
	err    error          // the first snapshot that failed to persist
}

// newCheckpointer starts the snapshots of eng's run, numbering on from sn
// when the run resumed from it. The driver takes its own trace lane:
// epochs and snapshot writes are driver work, not the engine's.
func newCheckpointer(cfg Config, pinfo corpus.ProgramInfo, desc string, eng *core.Engine, writer *corpus.Writer, sn *checkpoint.Snapshot) *checkpointer {
	c := &checkpointer{dir: cfg.CheckpointDir, pinfo: pinfo, desc: desc, eng: eng, writer: writer, drv: cfg.obsRun.NewLane()}
	restored := 0
	if sn != nil {
		c.seq, restored = sn.Seq+1, len(sn.States)
	}
	c.drv.Epoch(c.seq, restored)
	return c
}

// run steps the engine one step at a time until it drains or stops,
// writing a snapshot whenever the interval has passed.
func (c *checkpointer) run(interval time.Duration) core.RunStatus {
	if interval <= 0 {
		interval = defaultCheckpointEvery
	}
	last := time.Now()
	for {
		status := c.eng.StepN(1)
		if status != core.RunMore {
			return status
		}
		if time.Since(last) >= interval {
			snapStart := time.Now()
			states := c.write()
			c.drv.Epoch(c.seq, states)
			if cost := snapshotCostFactor * time.Since(snapStart); interval < cost {
				interval = cost
			}
			last = time.Now()
		}
	}
}

// write persists snapshot seq of the engine's frontier and progress and
// returns how many states it holds. A snapshot that fails to persist does
// not stop the exploration; the first failure is reported on the result.
func (c *checkpointer) write() int {
	sn := &checkpoint.Snapshot{
		Seq: c.seq, Program: c.pinfo, Config: c.desc,
		Progress: c.eng.Progress(),
		Frontier: c.eng.Snapshot(),
	}
	if c.writer != nil {
		seen, emitted, skipped := c.writer.StateSnapshot()
		sn.Corpus = &checkpoint.CorpusState{Seen: seen, Emitted: emitted, Skipped: skipped}
	}
	_, err := checkpoint.Write(c.dir, sn)
	if err != nil && c.err == nil {
		c.err = err
	}
	c.drv.Checkpoint(c.seq, len(sn.States), err != nil)
	c.seq++
	return len(sn.States)
}

// finish snapshots a stopped run so that it can resume, and reports the
// first failed write on the result.
func (c *checkpointer) finish(res *Result) {
	if !res.Completed {
		c.write()
		if res.Interrupted == core.IntrContext && c.err == nil {
			// Cancelled from outside (Ctrl-C, SIGTERM, a caller's
			// deadline): the snapshot just written makes the stop
			// resumable.
			res.Interrupted = core.IntrCheckpoint
		}
	}
	res.CheckpointErr = c.err
}
