package symx

// Tests for the crash-safe exploration driver's building blocks that need
// package-internal access: the frontier round-trip over generated programs
// (FuzzStateRoundTrip), mid-run snapshot + restore census equality, the
// Interrupted cause classification, and the resume of a cancelled run.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"symmerge/internal/core"
	"symmerge/internal/corpus"
	"symmerge/internal/expr"
)

// stepUntilSnapshot advances the engine and returns its frontier plus its
// progress so far, as the checkpointing driver does at each interval.
func stepUntilSnapshot(eng *core.Engine, steps int) (core.Frontier, core.Progress, bool) {
	st := eng.StepN(steps)
	return eng.Snapshot(), eng.Progress(), st == core.RunDrained
}

// drainEngine runs the engine to exhaustion and packages the result.
func drainEngine(eng *core.Engine) *core.Result {
	for {
		if st := eng.StepN(512); st != core.RunMore {
			return eng.Finish(st == core.RunDrained)
		}
	}
}

// FuzzStateRoundTrip drives the checkpoint wire form with engine-produced
// frontiers over randomly generated programs (heap-using ones included).
// Every frontier must (a) decode through the producing builder without
// minting a node, proving the table loses nothing the hash-cons would
// distinguish; (b) restore into a fresh engine of the producing
// configuration, whose own snapshot and progress are byte-identical,
// proving a resumed process reconstructs the exact snapshot it would
// itself write; and (c) keep exploring there.
func FuzzStateRoundTrip(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 11, 42, 20260807} {
		f.Add(seed, uint8(20))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		gen := &progGen{rng: rng}
		src := gen.generate(6 + rng.Intn(6))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("generated program does not compile: %v\n%s", err, src)
		}
		cfg := Config{NArgs: 1, ArgLen: 2}
		switch seed % 3 {
		case 1:
			cfg.Merge, cfg.UseQCE = MergeSSM, true
		case 2:
			cfg.Merge, cfg.UseQCE = MergeDSM, true
		}

		eng := NewEngine(p, cfg)
		eng.Begin(true)
		eng.StepN(1 + int(steps))
		fr, pr := eng.Snapshot(), eng.Progress()
		enc1, err := json.Marshal(&fr)
		if err != nil {
			t.Fatal(err)
		}

		b := eng.Builder()
		minted := b.Stats.Nodes.Load()
		if _, err := expr.DecodeTable(b, fr.Exprs); err != nil {
			t.Fatalf("decode through the producing builder: %v", err)
		}
		if n := b.Stats.Nodes.Load() - minted; n != 0 {
			t.Fatalf("decoding through the producing builder minted %d nodes", n)
		}

		eng2 := NewEngine(p, cfg) // fresh engine = fresh builder
		eng2.Begin(false)
		if err := eng2.Restore(&fr, &pr); err != nil {
			t.Fatalf("restore into a fresh engine: %v", err)
		}
		fr2, pr2 := eng2.Snapshot(), eng2.Progress()
		enc2, err := json.Marshal(&fr2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Errorf("re-encoding diverged for program:\n%s", src)
		}
		pr.Stats.ElapsedSeconds, pr2.Stats.ElapsedSeconds = 0, 0
		if a, b := mustJSON(t, pr), mustJSON(t, pr2); !bytes.Equal(a, b) {
			t.Errorf("restored progress diverged:\n%s\nvs\n%s", a, b)
		}
		eng2.StepN(1 + int(steps))
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotRestoreCensus proves the core crash-safety invariant at the
// engine level: run part-way, snapshot, abandon the engine (the "crash"),
// restore the frontier and progress into a brand-new engine with a
// brand-new builder, and finish there — its result must carry the census
// of an uninterrupted run.
func TestSnapshotRestoreCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	gen := &progGen{rng: rng}
	checked := 0
	for iter := 0; iter < 40 && checked < 8; iter++ {
		src := gen.generate(6 + rng.Intn(6))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, src)
		}
		for _, cfg := range []Config{
			{NArgs: 1, ArgLen: 2, Merge: MergeSSM, UseQCE: true},
			{NArgs: 1, ArgLen: 2, Merge: MergeDSM, UseQCE: true},
		} {
			cfg.MaxTime = 5 * time.Second
			full := Run(p, cfg)
			if !full.Completed {
				continue // too big for the test budget
			}

			eng := NewEngine(p, cfg)
			eng.Begin(true)
			fr, part1, drained := stepUntilSnapshot(eng, 10+rng.Intn(40))
			if drained {
				continue // finished before the snapshot point; nothing to restore
			}

			eng2 := NewEngine(p, cfg)
			eng2.Begin(false)
			if err := eng2.Restore(&fr, &part1); err != nil {
				t.Fatalf("iter %d: restore: %v", iter, err)
			}
			combined := drainEngine(eng2)

			if !combined.Completed {
				t.Errorf("iter %d merge=%v: restored run did not complete", iter, cfg.Merge)
				continue
			}
			if combined.Stats.CoveredInstrs != full.Stats.CoveredInstrs ||
				combined.Stats.ErrorsFound != full.Stats.ErrorsFound {
				t.Errorf("iter %d merge=%v: invariant census diverged after restore:\n"+
					"  full:     covered=%d errors=%d\n"+
					"  restored: covered=%d errors=%d\nprogram:\n%s",
					iter, cfg.Merge,
					full.Stats.CoveredInstrs, full.Stats.ErrorsFound,
					combined.Stats.CoveredInstrs, combined.Stats.ErrorsFound,
					src)
			}
			// The multiplicity census, steps and merges reproduce exactly
			// only under a canonical schedule (SSM's static merge points +
			// topological strategy). DSM merges whatever happens to coexist
			// in the worklist, so a restored worklist can merge the same
			// path set into different representatives — coverage and errors
			// above are its determinism contract.
			if f, c := full.Stats, combined.Stats; cfg.Merge == MergeSSM &&
				(c.PathsMult.String() != f.PathsMult.String() || c.PathsCompleted != f.PathsCompleted ||
					c.Steps != f.Steps || c.Merges != f.Merges) {
				t.Errorf("iter %d merge=%v: census diverged after restore:\n"+
					"  full:     paths=%s completed=%d steps=%d merges=%d\n"+
					"  restored: paths=%s completed=%d steps=%d merges=%d\nprogram:\n%s",
					iter, cfg.Merge,
					f.PathsMult, f.PathsCompleted, f.Steps, f.Merges,
					c.PathsMult, c.PathsCompleted, c.Steps, c.Merges,
					src)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no program exercised the snapshot/restore path")
	}
	t.Logf("checked %d snapshot/restore runs", checked)
}

// cancelOnPoll is a context that reports cancellation from its n-th Err
// poll on, so that a cancellation lands mid-run at a deterministic step.
// Only the engine's goroutine polls it.
type cancelOnPoll struct {
	context.Context
	n int
}

func (c *cancelOnPoll) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestInterruptedCause pins the Result.Interrupted classification: budget
// stops, plain context stops, and checkpointed context stops are told apart
// so callers (paperbench, cmd/symx) can report why a run is incomplete.
func TestInterruptedCause(t *testing.T) {
	p, err := Compile(echoSrc)
	if err != nil {
		t.Fatal(err)
	}

	res := Run(p, Config{NArgs: 1, ArgLen: 2, MaxSteps: 5})
	if res.Completed || res.Interrupted.String() != "budget" {
		t.Errorf("MaxSteps stop: completed=%v interrupted=%q, want budget", res.Completed, res.Interrupted)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res = Run(p, Config{NArgs: 1, ArgLen: 3, Context: ctx})
	if res.Completed || res.Interrupted.String() != "context" {
		t.Errorf("cancelled context: completed=%v interrupted=%q, want context", res.Completed, res.Interrupted)
	}

	// With a checkpoint directory the same cancellation parks a resumable
	// snapshot and reports it did so.
	res = Run(p, Config{
		NArgs: 1, ArgLen: 3, Context: ctx,
		CheckpointDir: t.TempDir(), CheckpointEvery: 10 * time.Millisecond,
	})
	if res.Completed || res.Interrupted.String() != "checkpoint" {
		t.Errorf("cancelled checkpointed run: completed=%v interrupted=%q, want checkpoint",
			res.Completed, res.Interrupted)
	}
	if res.CheckpointErr != nil {
		t.Errorf("checkpoint write failed: %v", res.CheckpointErr)
	}
}

// TestCancelledCheckpointedRunResumes: a cancellation that lands mid-run
// (Ctrl-C, SIGTERM, a caller's deadline) on a checkpointed run parks a
// resumable snapshot. Resumed without the cancelling context, the run
// completes with the census and the corpus of an uninterrupted run.
func TestCancelledCheckpointedRunResumes(t *testing.T) {
	p, err := Compile(echoSrc)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	ref := Run(p, Config{NArgs: 1, ArgLen: 3, CorpusDir: refDir})
	if !ref.Completed || ref.CorpusErr != nil {
		t.Fatalf("uninterrupted run: completed=%v corpusErr=%v", ref.Completed, ref.CorpusErr)
	}

	// The cancellation lands on the context's fifth poll.
	cfg := Config{
		NArgs: 1, ArgLen: 3, Context: &cancelOnPoll{Context: context.Background(), n: 5},
		CheckpointDir: t.TempDir(), CheckpointEvery: 10 * time.Millisecond,
		CorpusDir: t.TempDir(),
	}
	res := Run(p, cfg)
	if res.Completed || res.Interrupted != IntrCheckpoint || res.Stats.Steps == 0 {
		t.Fatalf("cancelled checkpointed run: completed=%v interrupted=%q steps=%d, want a checkpoint stop mid-run",
			res.Completed, res.Interrupted, res.Stats.Steps)
	}
	if res.CheckpointErr != nil {
		t.Fatalf("checkpoint write failed: %v", res.CheckpointErr)
	}

	cfg.Context, cfg.Resume = nil, true
	res = Run(p, cfg)
	if !res.Completed || res.CheckpointErr != nil || res.CorpusErr != nil {
		t.Fatalf("resumed run: completed=%v interrupted=%s checkpointErr=%v corpusErr=%v",
			res.Completed, res.Interrupted, res.CheckpointErr, res.CorpusErr)
	}
	type census struct{ steps, merges, paths, covered uint64 }
	of := func(r *Result) census {
		return census{r.Stats.Steps, r.Stats.Merges, r.Stats.PathsMult.Uint64(), uint64(r.Stats.CoveredInstrs)}
	}
	if got, want := of(res), of(ref); got != want {
		t.Errorf("resumed run: %+v; uninterrupted: %+v", got, want)
	}
	got, err := corpus.DirDigest(cfg.CorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := corpus.DirDigest(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resumed corpus digest %.12s, uninterrupted %.12s", got, want)
	}
}
