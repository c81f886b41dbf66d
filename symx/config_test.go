package symx

import (
	"strings"
	"testing"
)

// TestUnknownStrategyRefused pins the validation satellite: a typo'd
// strategy ("tope" for "topo") must refuse the run up front with ConfigErr —
// not silently explore under DFS while a corpus manifest records the typo.
func TestUnknownStrategyRefused(t *testing.T) {
	p := MustCompile(`void main() { putchar('x'); }`)
	res := Run(p, Config{Strategy: "tope"})
	if res.ConfigErr == nil {
		t.Fatal("Run accepted an unknown strategy")
	}
	if !strings.Contains(res.ConfigErr.Error(), "tope") {
		t.Fatalf("ConfigErr %q does not name the offending strategy", res.ConfigErr)
	}
	if res.Stats.PathsCompleted != 0 || res.Completed {
		t.Fatalf("refused run still explored: %+v", res.Stats)
	}

	// Emitting a corpus under a typo'd strategy must not create one.
	dir := t.TempDir()
	res = Run(p, Config{Strategy: "tope", CorpusDir: dir})
	if res.ConfigErr == nil {
		t.Fatal("corpus run accepted an unknown strategy")
	}

	// Every valid strategy still runs.
	for _, kind := range []Strategy{StrategyDFS, StrategyBFS, StrategyRandom, StrategyCoverage, StrategyTopo} {
		res := Run(p, Config{Strategy: kind})
		if res.ConfigErr != nil {
			t.Fatalf("valid strategy %q refused: %v", kind, res.ConfigErr)
		}
		if !res.Completed {
			t.Fatalf("strategy %q did not complete", kind)
		}
	}
}

// TestResumeWithoutCheckpointDirRefused: Resume continues from a snapshot
// in CheckpointDir. Without a directory there is nothing to resume, so the
// run must be refused up front instead of silently exploring from scratch.
func TestResumeWithoutCheckpointDirRefused(t *testing.T) {
	p := MustCompile(`void main() { putchar('x'); }`)
	res := Run(p, Config{Resume: true})
	if res.ConfigErr == nil {
		t.Fatal("Run accepted Resume without a CheckpointDir")
	}
	if !strings.Contains(res.ConfigErr.Error(), "checkpoint directory") {
		t.Fatalf("ConfigErr %q does not name the missing checkpoint directory", res.ConfigErr)
	}
	if res.Stats.Steps != 0 || res.Completed {
		t.Fatalf("refused run still explored: %+v", res.Stats)
	}

	// With a directory that holds no snapshot yet, the run starts fresh.
	res = Run(p, Config{Resume: true, CheckpointDir: t.TempDir()})
	if res.ConfigErr != nil || !res.Completed {
		t.Fatalf("resume into an empty checkpoint directory: err=%v completed=%v", res.ConfigErr, res.Completed)
	}
}
