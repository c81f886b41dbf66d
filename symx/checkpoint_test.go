package symx

// Tests for the crash-safe exploration driver's building blocks that need
// package-internal access: the state wire round-trip over generated programs
// (FuzzStateRoundTrip), mid-run snapshot + restore census equality, and the
// Interrupted cause classification.

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"symmerge/internal/checkpoint"
	"symmerge/internal/core"
)

// stepUntilSnapshot advances the engine and returns its frontier wires plus
// its progress-so-far, as the checkpoint driver does at each interval.
func stepUntilSnapshot(eng *core.Engine, steps int) ([]*core.StateWire, *core.Result, bool) {
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

// FuzzStateRoundTrip drives the checkpoint wire format with engine-produced
// states over randomly generated programs (heap-using ones included): every
// frontier must encode to a node table that (a) decodes through the SAME
// builder to pointer-identical expressions — proving the encoding loses
// nothing the hash-cons would distinguish — and (b) decodes through a FRESH
// builder to a byte-identical re-encoding — proving a resumed process
// reconstructs the exact snapshot it would itself write.
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
		wires := eng.Snapshot()

		var sn checkpoint.Snapshot
		sn.EncodeStates(wires)
		enc1, err := json.Marshal(&sn)
		if err != nil {
			t.Fatal(err)
		}

		// Same builder: pure hash-cons hits, pointer-identical throughout.
		back, err := sn.DecodeStates(eng.Builder())
		if err != nil {
			t.Fatalf("decode through the producing builder: %v", err)
		}
		requireSameWires(t, wires, back)

		// Fresh builder: re-encoding must be byte-identical.
		eng2 := NewEngine(p, cfg) // fresh engine = fresh builder
		fresh, err := sn.DecodeStates(eng2.Builder())
		if err != nil {
			t.Fatalf("decode through a fresh builder: %v", err)
		}
		var sn2 checkpoint.Snapshot
		sn2.EncodeStates(fresh)
		enc2, err := json.Marshal(&sn2)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc1) != string(enc2) {
			t.Errorf("re-encoding diverged for program:\n%s", src)
		}
	})
}

// requireSameWires asserts structural equality with POINTER identity on
// every expression — the same-builder decode contract.
func requireSameWires(t *testing.T, a, b []*core.StateWire) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("state count %d != %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if len(x.Frames) != len(y.Frames) || len(x.PC) != len(y.PC) ||
			len(x.Heap) != len(y.Heap) || len(x.Output) != len(y.Output) ||
			len(x.Shadow) != len(y.Shadow) || x.Mult != y.Mult ||
			x.NSyms != y.NSyms || x.HistPos != y.HistPos || x.JustRet != y.JustRet {
			t.Fatalf("state %d: shape mismatch", i)
		}
		for j := range x.PC {
			if x.PC[j] != y.PC[j] {
				t.Fatalf("state %d: PC[%d] not pointer-identical", i, j)
			}
		}
		for j := range x.Frames {
			fx, fy := x.Frames[j], y.Frames[j]
			if fx.Fn != fy.Fn || fx.PC != fy.PC || fx.RetDst != fy.RetDst {
				t.Fatalf("state %d frame %d: header mismatch", i, j)
			}
			for k := range fx.Locals {
				if fx.Locals[k] != fy.Locals[k] {
					t.Fatalf("state %d frame %d: local %d mismatch", i, j, k)
				}
			}
			for k := range fx.Objects {
				ox, oy := fx.Objects[k], fy.Objects[k]
				if (ox == nil) != (oy == nil) {
					t.Fatalf("state %d frame %d: object %d nil-ness mismatch", i, j, k)
				}
				if ox == nil {
					continue
				}
				if ox.Width != oy.Width || len(ox.Cells) != len(oy.Cells) {
					t.Fatalf("state %d frame %d: object %d shape mismatch", i, j, k)
				}
				for c := range ox.Cells {
					if ox.Cells[c] != oy.Cells[c] {
						t.Fatalf("state %d frame %d object %d: cell %d not pointer-identical", i, j, k, c)
					}
				}
			}
		}
		for j := range x.Heap {
			hx, hy := x.Heap[j], y.Heap[j]
			if hx.ID != hy.ID || hx.Obj.Width != hy.Obj.Width || len(hx.Obj.Cells) != len(hy.Obj.Cells) {
				t.Fatalf("state %d: heap entry %d shape mismatch", i, j)
			}
			for c := range hx.Obj.Cells {
				if hx.Obj.Cells[c] != hy.Obj.Cells[c] {
					t.Fatalf("state %d heap %d: cell %d not pointer-identical", i, j, c)
				}
			}
		}
		for j := range x.Output {
			if x.Output[j] != y.Output[j] {
				t.Fatalf("state %d: output %d mismatch", i, j)
			}
		}
		for j := range x.Allocs {
			if x.Allocs[j] != y.Allocs[j] {
				t.Fatalf("state %d: alloc counter %d mismatch", i, j)
			}
		}
		for j := range x.History {
			if x.History[j] != y.History[j] {
				t.Fatalf("state %d: history %d mismatch", i, j)
			}
		}
		for j := range x.Shadow {
			if len(x.Shadow[j]) != len(y.Shadow[j]) {
				t.Fatalf("state %d: shadow path %d length mismatch", i, j)
			}
			for k := range x.Shadow[j] {
				if x.Shadow[j][k] != y.Shadow[j][k] {
					t.Fatalf("state %d shadow %d: conjunct %d not pointer-identical", i, j, k)
				}
			}
		}
	}
}

// TestSnapshotRestoreCensus proves the core crash-safety invariant at the
// engine level: run half-way, snapshot, abandon the engine (the "crash"),
// restore the frontier into a brand-new engine with a brand-new builder,
// finish there, and combine the two halves — the census must equal an
// uninterrupted run's.
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
			wires, part1, drained := stepUntilSnapshot(eng, 10+rng.Intn(40))
			if drained {
				continue // finished before the snapshot point; nothing to restore
			}

			eng2 := NewEngine(p, cfg)
			eng2.Begin(false)
			if err := eng2.Restore(wires); err != nil {
				t.Fatalf("iter %d: restore: %v", iter, err)
			}
			part2 := drainEngine(eng2)
			combined := foldProgress(part1, part2, cfg.MaxTests)

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
			// The multiplicity census reproduces exactly only under a
			// canonical schedule (SSM's static merge points + topological
			// strategy). DSM merges whatever happens to coexist in the
			// worklist, so a restored worklist can merge the same path set
			// into different representatives — coverage and errors above are
			// its determinism contract.
			if cfg.Merge == MergeSSM &&
				(combined.Stats.PathsMult.String() != full.Stats.PathsMult.String() ||
					combined.Stats.PathsCompleted != full.Stats.PathsCompleted) {
				t.Errorf("iter %d merge=%v: multiplicity census diverged after restore:\n"+
					"  full:     paths=%s completed=%d\n"+
					"  restored: paths=%s completed=%d\nprogram:\n%s",
					iter, cfg.Merge,
					full.Stats.PathsMult, full.Stats.PathsCompleted,
					combined.Stats.PathsMult, combined.Stats.PathsCompleted,
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
