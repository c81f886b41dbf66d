package symx_test

// Tests for the observability layer's public contracts: live Stats/metrics
// sampling is race-free while the exploration is hot (run these under
// -race), tracing never perturbs the emitted corpus, and the zero-progress
// edge cases stay well-defined.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"symmerge/internal/coreutils"
	"symmerge/internal/corpus"
	"symmerge/internal/obs"
	"symmerge/symx"
)

func compileTool(t *testing.T, name string) (*symx.Program, *coreutils.Tool) {
	t.Helper()
	tool, err := coreutils.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p, tool
}

// TestLiveSamplingWhileRunning hammers Monitor.Progress, Engine stats and
// Metrics.Snapshot from a second goroutine while the exploration runs. The
// assertions are light on purpose — the test's real teeth are the race
// detector (CI runs the suite under -race) and the monotonicity of the
// published snapshots.
func TestLiveSamplingWhileRunning(t *testing.T) {
	for _, workers := range []int{1, 8} {
		p, tool := compileTool(t, "expr")
		met := symx.NewMetrics()
		mon := symx.NewMonitor()
		cfg := tool.BaseConfig()
		cfg.ArgLen = 3
		cfg.Merge = symx.MergeDSM
		cfg.UseQCE = true
		cfg.Workers = workers
		cfg.Metrics = met
		cfg.Monitor = mon

		var stop atomic.Bool
		sampled := make(chan int)
		go func() {
			n := 0
			var lastSteps uint64
			for !stop.Load() {
				pr := mon.Progress()
				if pr.Steps < lastSteps {
					t.Error("published step counter went backwards")
					break
				}
				lastSteps = pr.Steps
				snap := met.Snapshot()
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("snapshot marshal: %v", err)
					break
				}
				n++
			}
			sampled <- n
		}()

		res := symx.Run(p, cfg)
		stop.Store(true)
		n := <-sampled
		if !res.Completed {
			t.Fatalf("workers=%d: exploration did not complete", workers)
		}
		if n == 0 {
			t.Fatalf("workers=%d: sampler never ran", workers)
		}
		// The final published snapshot must agree with the run's own step
		// accounting.
		if pr := mon.Progress(); pr.Steps != res.Stats.Steps {
			t.Fatalf("workers=%d: monitor steps %d != result steps %d", workers, pr.Steps, res.Stats.Steps)
		}
		if snap := met.Snapshot(); snap.Steps != res.Stats.Steps {
			t.Fatalf("workers=%d: metrics steps %d != result steps %d", workers, snap.Steps, res.Stats.Steps)
		}
	}
}

// TestEngineStatsMidRun samples Engine.Stats directly (the lower-level API
// under Monitor) from a second goroutine during a sequential run.
func TestEngineStatsMidRun(t *testing.T) {
	p, tool := compileTool(t, "expr")
	cfg := tool.BaseConfig()
	cfg.ArgLen = 3
	cfg.Merge = symx.MergeDSM
	cfg.UseQCE = true
	eng := symx.NewEngine(p, cfg)

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			st := eng.Stats()
			_ = st.Coverage()
			_, _, _ = eng.LiveProgress()
		}
	}()
	res := eng.Run()
	stop.Store(true)
	<-done
	if !res.Completed {
		t.Fatal("exploration did not complete")
	}
	if got := eng.Stats().Steps; got != res.Stats.Steps {
		t.Fatalf("final published steps %d != result steps %d", got, res.Stats.Steps)
	}
}

// TestCoverageZeroTotal pins Stats.Coverage at the zero-progress edge: a
// snapshot published before the program is even set up has TotalInstrs ==
// 0 and must report 0, not NaN.
func TestCoverageZeroTotal(t *testing.T) {
	var st symx.Stats
	st.CoveredInstrs = 7 // even an inconsistent snapshot must not divide by zero
	if got := st.Coverage(); got != 0 {
		t.Fatalf("Coverage() with TotalInstrs==0 = %v, want 0", got)
	}
}

// TestTraceCorpusParity is the observability contract end to end: the
// corpus a traced run emits is byte-identical to an untraced run's, and
// the trace itself validates and converts.
func TestTraceCorpusParity(t *testing.T) {
	for _, mode := range []struct {
		name    string
		merge   symx.MergeMode
		qce     bool
		workers int
	}{
		{"ssm", symx.MergeSSM, true, 0},
		{"dsm-workers", symx.MergeDSM, true, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p, tool := compileTool(t, "expr")
			tmp := t.TempDir()
			run := func(arm string, traced bool) *symx.Result {
				cfg := tool.BaseConfig()
				cfg.Merge = mode.merge
				cfg.UseQCE = mode.qce
				cfg.Workers = mode.workers
				cfg.CorpusDir = filepath.Join(tmp, arm)
				cfg.CorpusLabel = tool.Name
				if traced {
					cfg.TraceFile = filepath.Join(tmp, "run.trace")
					cfg.Metrics = symx.NewMetrics()
				}
				res := symx.Run(p, cfg)
				if res.ConfigErr != nil || res.CorpusErr != nil {
					t.Fatalf("%s: config %v corpus %v", arm, res.ConfigErr, res.CorpusErr)
				}
				if !res.Completed {
					t.Fatalf("%s: did not complete", arm)
				}
				return res
			}
			run("base", false)
			res := run("traced", true)

			if res.TraceErr != nil {
				t.Fatalf("trace error: %v", res.TraceErr)
			}
			if res.TraceDrops != 0 {
				t.Fatalf("trace dropped %d events at the default buffer", res.TraceDrops)
			}
			if res.TraceEvents == 0 {
				t.Fatal("traced run emitted no events")
			}

			dBase, err := corpus.DirDigest(filepath.Join(tmp, "base"))
			if err != nil {
				t.Fatal(err)
			}
			dTraced, err := corpus.DirDigest(filepath.Join(tmp, "traced"))
			if err != nil {
				t.Fatal(err)
			}
			if dBase != dTraced {
				t.Fatalf("corpus digest changed under tracing: %s != %s", dBase, dTraced)
			}

			f, err := os.Open(filepath.Join(tmp, "run.trace"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sum, err := obs.Validate(f)
			if err != nil {
				t.Fatalf("trace validation: %v", err)
			}
			if sum.Events != res.TraceEvents || sum.Dropped != res.TraceDrops {
				t.Fatalf("trace accounting: file says %d/%d, result says %d/%d",
					sum.Events, sum.Dropped, res.TraceEvents, res.TraceDrops)
			}
		})
	}
}

// TestTraceFileUnwritable pins the up-front refusal: a trace path that
// cannot be created fails the run before exploring.
func TestTraceFileUnwritable(t *testing.T) {
	p, tool := compileTool(t, "echo")
	cfg := tool.BaseConfig()
	cfg.TraceFile = filepath.Join(t.TempDir(), "no", "such", "dir", "out.trace")
	res := symx.Run(p, cfg)
	if res.ConfigErr == nil {
		t.Fatal("expected ConfigErr for an uncreatable trace path")
	}
	if res.Stats.Steps != 0 {
		t.Fatal("run explored despite the refused trace path")
	}
}

// TestCanonicalQueriesAreSpans: canonical test emission's ordered solves are
// observable queries like every other. Each session query is one span of
// class session, and the query spans cover the time of every SAT call.
// Histograms sum whole microseconds per span, so the spans' true total is
// below SumUS + Count µs.
func TestCanonicalQueriesAreSpans(t *testing.T) {
	p, tool := compileTool(t, "cksum")
	cfg := tool.BaseConfig()
	cfg.Merge, cfg.UseQCE = symx.MergeSSM, true
	cfg.CorpusDir = t.TempDir()
	cfg.Metrics = symx.NewMetrics()
	res := symx.Run(p, cfg)
	if !res.Completed || res.CorpusErr != nil || res.Stats.TestsEmitted == 0 {
		t.Fatalf("completed %v, corpus %v, %d tests", res.Completed, res.CorpusErr, res.Stats.TestsEmitted)
	}
	snap := cfg.Metrics.Snapshot()
	sv := res.Stats.Solver
	if snap.QueryLatSession.Count != sv.SessionQueries || sv.SessionQueries == 0 {
		t.Errorf("%d session spans for %d session queries", snap.QueryLatSession.Count, sv.SessionQueries)
	}
	var spanUS uint64
	for _, h := range []obs.HistSnap{snap.QueryLatSession, snap.QueryLatOneShot, snap.QueryLatCached} {
		spanUS += h.SumUS + h.Count
	}
	if span := time.Duration(spanUS) * time.Microsecond; span < sv.SATTime {
		t.Errorf("query spans sum to under %v, but SAT calls took %v", span, sv.SATTime)
	}
}
