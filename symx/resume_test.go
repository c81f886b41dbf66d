package symx_test

// The crash-recovery determinism suite: kill exploration at deterministic
// fault points (mid-step, mid-merge, mid-corpus-write), resume from the
// persisted checkpoint, and require the finished census and corpus to be
// byte-identical to an uninterrupted run's. This is the end-to-end statement
// of ISSUE 6: a crash costs wall-clock, never results.
//
// faultinject arms process-global counters, so nothing here may run in
// parallel with other fault-arming tests; the package's tests are
// sequential by default and none opts into t.Parallel.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"symmerge/internal/checkpoint"
	"symmerge/internal/checkpoint/faultinject"
	"symmerge/internal/core"
	"symmerge/internal/coreutils"
	"symmerge/internal/corpus"
	"symmerge/symx"
)

// runKilled invokes symx.Run, converting an injected kill (a faultinject
// panic unwinding the whole run, like a real SIGKILL would) into a value.
func runKilled(p *symx.Program, cfg symx.Config) (res *symx.Result, killed *faultinject.Killed) {
	defer func() {
		if r := recover(); r != nil {
			if k, ok := r.(faultinject.Killed); ok {
				killed = &k
				return
			}
			panic(r)
		}
	}()
	return symx.Run(p, cfg), nil
}

// referenceRun produces the uninterrupted baseline: a corpus run with no
// checkpointing. It returns the result and the corpus directory.
func referenceRun(t *testing.T, tool *coreutils.Tool, p *symx.Program, cfg symx.Config) (*symx.Result, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.CorpusDir = dir
	cfg.CorpusLabel = tool.Name
	res := symx.Run(p, cfg)
	if !res.Completed || res.CorpusErr != nil {
		t.Fatalf("reference run: completed=%v corpusErr=%v", res.Completed, res.CorpusErr)
	}
	return res, dir
}

// killResumeLoop runs a checkpointed exploration, killing it at the armed
// fault point and resuming, with the kill threshold growing each attempt so
// the loop terminates. It returns the final result and how many kills and
// snapshot-backed resumes happened.
func killResumeLoop(t *testing.T, p *symx.Program, cfg symx.Config, point faultinject.Point, killAt int64) (*symx.Result, int, int) {
	t.Helper()
	kills, snapResumes := 0, 0
	for attempt := 0; attempt < 12; attempt++ {
		faultinject.Arm(point, killAt)
		res, killed := runKilled(p, cfg)
		faultinject.Disarm()
		if killed == nil {
			return res, kills, snapResumes
		}
		kills++
		cfg.Resume = true
		if sn, err := checkpoint.LoadLatest(cfg.CheckpointDir); err == nil && sn != nil {
			snapResumes++
		}
		killAt *= 3 // let each retry get strictly further
	}
	t.Fatal("kill/resume loop did not converge in 12 attempts")
	return nil, 0, 0
}

// requireSameCensus asserts the schedule-invariant census of two finished
// runs matches: coverage and the error count are properties of the explored
// path set, which killing and resuming must not change. With strict set it
// additionally requires the full multiplicity census — sound only when the
// schedule is canonical: SSM, whose merge points are static and whose
// topological strategy is insensitive to worklist order. DSM's merge
// pattern depends on which states coexist in the worklist (the paper's
// δ-window heuristic is opportunistic by design), so a kill and resume
// legitimately shifts HOW paths are represented (merged vs separate)
// without touching the path set itself — the corpus digest check below is
// what pins the result-level determinism for those cells.
func requireSameCensus(t *testing.T, label string, ref, got *symx.Result, strict bool) {
	t.Helper()
	if !got.Completed {
		t.Fatalf("%s: resumed run did not complete (interrupted: %s)", label, got.Interrupted)
	}
	if got.CorpusErr != nil || got.CheckpointErr != nil {
		t.Fatalf("%s: corpusErr=%v checkpointErr=%v", label, got.CorpusErr, got.CheckpointErr)
	}
	if got.Stats.CoveredInstrs != ref.Stats.CoveredInstrs ||
		got.Stats.ErrorsFound != ref.Stats.ErrorsFound {
		t.Errorf("%s: invariant census diverged:\n  reference: covered=%d errors=%d\n  resumed:   covered=%d errors=%d",
			label,
			ref.Stats.CoveredInstrs, ref.Stats.ErrorsFound,
			got.Stats.CoveredInstrs, got.Stats.ErrorsFound)
	}
	if strict && (got.Stats.PathsMult.String() != ref.Stats.PathsMult.String() ||
		got.Stats.PathsCompleted != ref.Stats.PathsCompleted) {
		t.Errorf("%s: multiplicity census diverged:\n  reference: paths=%s states=%d\n  resumed:   paths=%s states=%d",
			label,
			ref.Stats.PathsMult, ref.Stats.PathsCompleted,
			got.Stats.PathsMult, got.Stats.PathsCompleted)
	}
}

// requireSameCorpus asserts the resumed run's corpus matches the reference,
// after removing quarantined files (kept only for post-mortems; the
// regenerated tests are the live corpus). With strict set the whole
// directory must digest byte-identically, manifest included. Without it,
// every test FILE must still be byte-identical and the manifest must agree
// on everything semantic (program, config, completion, coverage, test
// list); only the Emitted/Deduped/Skipped counters may differ — they
// diagnose the producing schedule (how many emissions the dedup absorbed),
// which a resumed DSM schedule legitimately permutes.
func requireSameCorpus(t *testing.T, label, refDir, gotDir string, strict bool) {
	t.Helper()
	entries, err := os.ReadDir(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), corpus.QuarantineSuffix) {
			if err := os.Remove(filepath.Join(gotDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if strict {
		refD, err := corpus.DirDigest(refDir)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := corpus.DirDigest(gotDir)
		if err != nil {
			t.Fatal(err)
		}
		if refD != gotD {
			t.Errorf("%s: corpus digest %s… differs from uninterrupted %s…", label, gotD[:12], refD[:12])
		}
		return
	}

	refFiles := listCorpusFiles(t, refDir)
	gotFiles := listCorpusFiles(t, gotDir)
	if len(refFiles) != len(gotFiles) {
		t.Errorf("%s: corpus has %d test files, reference has %d", label, len(gotFiles), len(refFiles))
		return
	}
	for i, name := range refFiles {
		if gotFiles[i] != name {
			t.Errorf("%s: corpus file set diverged: %s vs %s", label, gotFiles[i], name)
			return
		}
		a, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: test file %s differs from the reference copy", label, name)
		}
	}
	refMan, _, err := corpus.Load(refDir)
	if err != nil {
		t.Fatal(err)
	}
	gotMan, _, err := corpus.Load(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	refMan.Emitted, refMan.Deduped, refMan.Skipped = 0, 0, 0
	gotMan.Emitted, gotMan.Deduped, gotMan.Skipped = 0, 0, 0
	if !reflect.DeepEqual(refMan, gotMan) {
		t.Errorf("%s: manifest diverged beyond emission counters:\n  reference: %+v\n  resumed:   %+v", label, refMan, gotMan)
	}
}

// listCorpusFiles returns the sorted non-manifest file names of a corpus
// directory.
func listCorpusFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && e.Name() != corpus.ManifestName {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestKillResumeDeterminism is the acceptance sweep: three COREUTILS
// programs × two merging regimes, each killed mid-step at least once and
// resumed from a snapshot every time, must reproduce the uninterrupted
// run's census and byte-identical corpus.
func TestKillResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	regimes := []struct {
		name  string
		merge symx.MergeMode
	}{
		{"ssm+qce", symx.MergeSSM},
		{"dsm+qce", symx.MergeDSM},
	}
	for _, name := range []string{"echo", "base64", "uniq"} {
		tool, err := coreutils.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := tool.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range regimes {
			base := tool.MiniConfig()
			base.Merge = reg.merge
			base.UseQCE = true
			base.Seed = 1
			ref, refDir := referenceRun(t, tool, p, base)
			// SSM is the canonical schedule: static merge points,
			// worklist-order-insensitive topological strategy. There the
			// ENTIRE result — multiplicity census and corpus bytes including
			// manifest counters — must reproduce. DSM merges
			// opportunistically, so those cells pin the schedule-invariant
			// results: coverage, errors, and the test corpus itself.
			strict := reg.merge == symx.MergeSSM
			label := name + "/" + reg.name
			t.Run(label, func(t *testing.T) {
				cfg := base
				cfg.CorpusDir = t.TempDir()
				cfg.CorpusLabel = tool.Name
				cfg.CheckpointDir = t.TempDir()
				// The shortest interval writes snapshot 0 right after the
				// first step; from then on the driver stretches it to four
				// times the snapshot cost, so snapshots keep coming at a
				// bounded tax and every kill below has one to resume from.
				cfg.CheckpointEvery = time.Nanosecond

				// Kill two thirds of the way in: late enough that snapshots
				// have happened, early enough that real work remains for
				// the resumed run.
				killAt := int64(ref.Stats.Steps * 2 / 3)
				if killAt < 2 {
					killAt = 2
				}
				res, kills, snapResumes := killResumeLoop(t, p, cfg, faultinject.PointStep, killAt)
				if kills == 0 {
					t.Fatalf("kill at step %d never fired (reference run took %d steps)", killAt, ref.Stats.Steps)
				}
				if snapResumes != kills {
					t.Errorf("%d of %d kills resumed from a snapshot; every kill must", snapResumes, kills)
				}
				requireSameCensus(t, label, ref, res, strict)
				requireSameCorpus(t, label, refDir, cfg.CorpusDir, strict)
			})
		}
	}
}

// TestKillResumeMidMerge kills inside the state-merge critical section —
// after the victim has left the worklist, before the merged state exists —
// and requires a resumed run to still converge to the reference census.
func TestKillResumeMidMerge(t *testing.T) {
	tool, err := coreutils.Get("echo")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := tool.MiniConfig()
	base.Merge = symx.MergeSSM
	base.UseQCE = true
	base.Seed = 1
	ref, refDir := referenceRun(t, tool, p, base)
	if ref.Stats.Merges == 0 {
		t.Fatal("reference run performed no merges; pick a different tool for this scenario")
	}

	cfg := base
	cfg.CorpusDir = t.TempDir()
	cfg.CorpusLabel = tool.Name
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 500 * time.Microsecond
	res, kills, _ := killResumeLoop(t, p, cfg, faultinject.PointMerge, 2)
	if kills == 0 {
		t.Fatal("mid-merge kill never fired")
	}
	requireSameCensus(t, "echo/mid-merge", ref, res, true)
	requireSameCorpus(t, "echo/mid-merge", refDir, cfg.CorpusDir, true)
}

// TestKillResumeMidCorpusWrite kills inside a corpus file write, leaving a
// torn JSON file at its final path (the fault hook forces the tear the
// atomic rename normally rules out). Resume must quarantine the torn file,
// regenerate the test, and still converge to a byte-identical live corpus.
func TestKillResumeMidCorpusWrite(t *testing.T) {
	tool, err := coreutils.Get("echo")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := tool.MiniConfig()
	base.Merge = symx.MergeSSM
	base.UseQCE = true
	base.Seed = 1
	ref, refDir := referenceRun(t, tool, p, base)

	cfg := base
	cfg.CorpusDir = t.TempDir()
	cfg.CorpusLabel = tool.Name
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 500 * time.Microsecond
	res, kills, _ := killResumeLoop(t, p, cfg, faultinject.PointCorpusWrite, 2)
	if kills == 0 {
		t.Fatal("mid-corpus-write kill never fired (fewer than 2 corpus writes?)")
	}

	// The forced tear must have been noticed and moved aside on resume.
	entries, err := os.ReadDir(cfg.CorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), corpus.QuarantineSuffix) {
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Error("no quarantined file after a mid-write kill and resume")
	}

	requireSameCensus(t, "echo/mid-corpus-write", ref, res, true)
	requireSameCorpus(t, "echo/mid-corpus-write", refDir, cfg.CorpusDir, true)
}

// TestCheckpointedRunMatchesPlain: snapshots leave the exploration alone.
// A checkpointed run that is never killed must explore exactly the plain
// run's schedule, so every counter that does not depend on expression IDs
// and the corpus bytes must match. Queries and SAT calls are left out:
// flattening a snapshot's output streams interns guard nodes, which can
// shift later expression IDs.
func TestCheckpointedRunMatchesPlain(t *testing.T) {
	for _, name := range []string{"fmt", "uniq", "paste"} {
		tool, err := coreutils.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := tool.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range []struct {
			name  string
			merge symx.MergeMode
		}{{"ssm+qce", symx.MergeSSM}, {"dsm+qce", symx.MergeDSM}} {
			t.Run(name+"/"+reg.name, func(t *testing.T) {
				base := tool.BaseConfig()
				base.Merge, base.UseQCE, base.Seed = reg.merge, true, 1
				base.CorpusLabel = tool.Name
				run := func(ckptDir string) (*symx.Result, string) {
					cfg := base
					cfg.CorpusDir = t.TempDir()
					cfg.CheckpointDir = ckptDir
					cfg.CheckpointEvery = 200 * time.Microsecond
					res := symx.Run(p, cfg)
					if !res.Completed || res.CorpusErr != nil || res.CheckpointErr != nil {
						t.Fatalf("completed=%v corpusErr=%v checkpointErr=%v", res.Completed, res.CorpusErr, res.CheckpointErr)
					}
					d, err := corpus.DirDigest(cfg.CorpusDir)
					if err != nil {
						t.Fatal(err)
					}
					return res, d
				}
				plain, plainDigest := run("")
				ckptDir := t.TempDir()
				ckpt, ckptDigest := run(ckptDir)

				a, b := plain.Stats, ckpt.Stats
				for _, c := range []struct {
					what      string
					want, got any
				}{
					{"steps", a.Steps, b.Steps},
					{"forks", a.Forks, b.Forks},
					{"merge attempts", a.MergeAttempts, b.MergeAttempts},
					{"merges", a.Merges, b.Merges},
					{"paths completed", a.PathsCompleted, b.PathsCompleted},
					{"paths", a.PathsMult.String(), b.PathsMult.String()},
					{"exact paths", a.ExactPaths, b.ExactPaths},
					{"covered", a.CoveredInstrs, b.CoveredInstrs},
					{"errors", a.ErrorsFound, b.ErrorsFound},
					{"corpus digest", plainDigest, ckptDigest},
				} {
					if c.want != c.got {
						t.Errorf("%s: plain %v, checkpointed %v", c.what, c.want, c.got)
					}
				}
				sn, err := checkpoint.LoadLatest(ckptDir)
				if err != nil {
					t.Fatal(err)
				}
				if name == "fmt" && sn == nil {
					t.Error("the checkpointed fmt run wrote no snapshot")
				}
			})
		}
	}
}

// sortAtStdin5 is sort with one one-character argument and five stdin
// bytes under ssm+qce, a canonical schedule of 243 steps.
func sortAtStdin5(t *testing.T) (*symx.Program, symx.Config) {
	p, tool := compileTool(t, "sort")
	cfg := tool.BaseConfig()
	cfg.ArgLen, cfg.StdinLen = 1, 5
	cfg.Merge, cfg.UseQCE = symx.MergeSSM, true
	return p, cfg
}

// census is the steps, merges and path multiplicity of a result.
func census(res *symx.Result) [3]uint64 {
	return [3]uint64{res.Stats.Steps, res.Stats.Merges, res.Stats.PathsMult.Uint64()}
}

// TestRestoreMakesNoMergeAttempt: a restored engine holds the snapshotted
// worklist as it was, so Restore attempts no merge, and under SSM's
// canonical schedule the resumed engine ends with the uninterrupted run's
// steps, merges and paths. Total merge attempts are not pinned: the order
// in which states at one stack are tried as merge candidates can differ
// after a restore.
func TestRestoreMakesNoMergeAttempt(t *testing.T) {
	p, cfg := sortAtStdin5(t)
	want := [3]uint64{243, 46, 122}
	if got := census(symx.NewEngine(p, cfg).Run()); got != want {
		t.Fatalf("uninterrupted run: steps, merges, paths = %v, want %v", got, want)
	}

	eng := symx.NewEngine(p, cfg)
	eng.Begin(true)
	if st := eng.StepN(121); st != core.RunMore {
		t.Fatalf("run stopped after 121 steps: %v", st)
	}
	fr, pr := eng.Snapshot(), eng.Progress()

	resumed := symx.NewEngine(p, cfg)
	resumed.Begin(false)
	if err := resumed.Restore(&fr, &pr); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Stats().MergeAttempts, pr.Stats.MergeAttempts; got != want {
		t.Errorf("merge attempts after Restore = %d, snapshot has %d", got, want)
	}
	st := core.RunMore
	for st == core.RunMore {
		st = resumed.StepN(64)
	}
	res := resumed.Finish(st == core.RunDrained)
	if got := census(res); !res.Completed || got != want {
		t.Errorf("resumed run: completed=%v steps, merges, paths = %v, want %v", res.Completed, got, want)
	}
}

// TestResumedRunCountsOn: a resumed checkpointed run continues its
// snapshot's counters, so its Monitor and its Result agree on the steps and
// the elapsed time of the whole exploration, while MaxSteps bounds each
// invocation on its own.
func TestResumedRunCountsOn(t *testing.T) {
	p, cfg := sortAtStdin5(t)
	ref := symx.Run(p, cfg)

	// requireMonitorAgrees checks the Monitor against the Result. The
	// Monitor's last snapshot is published after the Result's figures are
	// taken, so its elapsed time may only be later.
	requireMonitorAgrees := func(label string, res *symx.Result) {
		t.Helper()
		pr := cfg.Monitor.Progress()
		if pr.Steps != res.Stats.Steps {
			t.Errorf("%s: monitor steps %d, result steps %d", label, pr.Steps, res.Stats.Steps)
		}
		if pr.ElapsedSeconds < res.Stats.ElapsedSeconds {
			t.Errorf("%s: monitor elapsed %.4fs, result elapsed %.4fs", label, pr.ElapsedSeconds, res.Stats.ElapsedSeconds)
		}
	}

	cfg.CheckpointDir = t.TempDir()
	cfg.MaxSteps = 100
	for i, want := range []uint64{100, 200} {
		cfg.Monitor = symx.NewMonitor()
		res := symx.Run(p, cfg)
		if res.Completed || res.Interrupted != symx.IntrBudget || res.Stats.Steps != want {
			t.Fatalf("invocation %d: completed=%v interrupted=%s steps=%d, want a budget stop at %d",
				i, res.Completed, res.Interrupted, res.Stats.Steps, want)
		}
		requireMonitorAgrees(fmt.Sprintf("invocation %d", i), res)
		cfg.Resume = true
	}

	cfg.MaxSteps = 0
	cfg.Monitor = symx.NewMonitor()
	res := symx.Run(p, cfg)
	if !res.Completed {
		t.Fatalf("last invocation did not complete: %s", res.Interrupted)
	}
	requireMonitorAgrees("last invocation", res)
	if got, want := census(res), census(ref); got != want || res.Stats.CoveredInstrs != ref.Stats.CoveredInstrs {
		t.Errorf("resumed run: steps, merges, paths = %v, covered %d; uninterrupted: %v, covered %d",
			got, res.Stats.CoveredInstrs, want, ref.Stats.CoveredInstrs)
	}
}

// TestContextCancelStopsPromptly: a cancelled context stops an exploration
// far too large to finish, promptly and with Completed=false.
func TestContextCancelStopsPromptly(t *testing.T) {
	tool, err := coreutils.Get("echo")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must bail out almost immediately

	cfg := tool.BaseConfig()
	cfg.ArgLen = 8 // far too large to explore exhaustively here
	cfg.Context = ctx
	start := time.Now()
	res := symx.Run(p, cfg)
	if res.Completed || res.Interrupted != symx.IntrContext {
		t.Fatalf("cancelled exploration: completed=%v interrupted=%s", res.Completed, res.Interrupted)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("cancellation took %v; the context poll is not reaching the step loop", wall)
	}
}

// TestDeadlineStopsRunningExploration: a context deadline that expires
// while an exploration far too large to finish is under way stops it
// promptly, and the Program stays usable: the static facts and QCE tables
// the stopped run built serve a later run, which reaches the census it
// reaches on a fresh Program.
func TestDeadlineStopsRunningExploration(t *testing.T) {
	fresh, small := sortAtStdin5(t)
	want := census(symx.Run(fresh, small))

	p, _ := sortAtStdin5(t)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	huge := small
	huge.StdinLen = 16 // 12 bytes take seconds to explore; each byte more multiplies that
	huge.Context = ctx
	start := time.Now()
	res := symx.Run(p, huge)
	if res.Completed || res.Interrupted != symx.IntrContext || res.Stats.Steps == 0 {
		t.Fatalf("run past its deadline: completed=%v interrupted=%s steps=%d, want a context stop mid-run",
			res.Completed, res.Interrupted, res.Stats.Steps)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("the deadline stopped the run after %v; the context poll is not reaching the step loop", wall)
	}

	if res := symx.Run(p, small); !res.Completed || census(res) != want {
		t.Errorf("run after the deadline stop: completed=%v steps, merges, paths = %v, want %v",
			res.Completed, census(res), want)
	}
}
