package coreutils

import (
	"testing"
	"time"

	"symmerge/symx"
)

// TestMaxTimeAfterLastStepPoll: cksum at the benchmark's testgen size
// (SSM+QCE, canonical corpus, stdin two bytes under its default, floored at
// one) runs for about a second in under two hundred steps, and its last
// steps spend most of that in small SAT calls (shadow splits and canonical
// test solves) that never reach the SAT core's own clock check. The
// deadline therefore has to be polled after such steps rather than only
// every 64th step, or a run past its last 64-step poll ignores MaxTime
// entirely. The budget is a quarter of the run, so it falls after that
// last 64-step poll.
func TestMaxTimeAfterLastStepPoll(t *testing.T) {
	tool, err := Get("cksum")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tool.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tool.BaseConfig()
	cfg.StdinLen = max(tool.DefaultStdin-2, 1)
	cfg.Merge, cfg.UseQCE = symx.MergeSSM, true
	cfg.CorpusDir = t.TempDir()
	cfg.MaxTime = 250 * time.Millisecond

	start := time.Now()
	res := symx.Run(p, cfg)
	elapsed := time.Since(start)
	if res.ConfigErr != nil {
		t.Fatal(res.ConfigErr)
	}
	if res.Completed || res.Interrupted != symx.IntrBudget {
		t.Fatalf("%v budget: completed=%v interrupted=%v after %v, want an incomplete run stopped by the budget",
			cfg.MaxTime, res.Completed, res.Interrupted, elapsed)
	}
	if elapsed > 2500*time.Millisecond {
		t.Fatalf("%v budget: run stopped after %v, want within 2.5s", cfg.MaxTime, elapsed)
	}
}
