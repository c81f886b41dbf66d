package symx

import (
	"os"
	"path/filepath"
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

// TestResumeRefusesForeignSnapshot: Resume continues only a snapshot of the
// same program and configuration, since resuming another's would count a
// different exploration's progress as this one's. A foreign snapshot is
// refused up front, before the run explores or opens its corpus, and the
// snapshot's own run still resumes from it to the uninterrupted census.
func TestResumeRefusesForeignSnapshot(t *testing.T) {
	p := MustCompile(echoSrc)
	ref := Run(p, Config{NArgs: 1, ArgLen: 3})
	cfg := Config{NArgs: 1, ArgLen: 3, MaxSteps: 5, CheckpointDir: t.TempDir()}
	if res := Run(p, cfg); res.Completed || res.CheckpointErr != nil {
		t.Fatalf("budget-stopped run: completed=%v checkpointErr=%v", res.Completed, res.CheckpointErr)
	}
	cfg.MaxSteps, cfg.Resume = 0, true

	otherConfig := cfg
	otherConfig.ArgLen = 2
	otherConfig.CorpusDir = filepath.Join(t.TempDir(), "corpus")
	for _, c := range []struct {
		name string
		p    *Program
		cfg  Config
		want string
	}{
		{"other configuration", p, otherConfig, "produced under config"},
		{"other program", MustCompile(`void main() { putchar('x'); }`), cfg, "program hash"},
	} {
		res := Run(c.p, c.cfg)
		if res.ConfigErr == nil || !strings.Contains(res.ConfigErr.Error(), c.want) {
			t.Errorf("%s: ConfigErr %v, want one naming %q", c.name, res.ConfigErr, c.want)
		}
		if res.Stats.Steps != 0 || res.Completed {
			t.Errorf("%s: refused run still explored: %+v", c.name, res.Stats)
		}
	}
	if _, err := os.Stat(otherConfig.CorpusDir); !os.IsNotExist(err) {
		t.Errorf("refused resume touched its corpus directory: %v", err)
	}

	res := Run(p, cfg)
	if !res.Completed || res.ConfigErr != nil {
		t.Fatalf("own resume: completed=%v err=%v", res.Completed, res.ConfigErr)
	}
	if res.Stats.Steps != ref.Stats.Steps || res.Stats.PathsMult.Cmp(ref.Stats.PathsMult) != 0 {
		t.Errorf("own resume: steps %d, paths %v; uninterrupted: steps %d, paths %v",
			res.Stats.Steps, res.Stats.PathsMult, ref.Stats.Steps, ref.Stats.PathsMult)
	}
}
