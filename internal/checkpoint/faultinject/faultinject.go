// Package faultinject deterministically kills an in-process exploration at
// a chosen instrumentation point, for the crash-recovery test harness.
//
// The engine, the merger, and the corpus writer each call Hit at their
// instrumented point. When the package is disarmed (the default, and the
// only state production code ever observes) a hit is a single atomic load.
// When a test arms a point with a countdown, the Nth hit at that point
// panics with Killed — the in-process stand-in for SIGKILL: the panic
// unwinds through the exploration without running any of its completion
// paths, leaving only what was already durably on disk, exactly like a
// process death. The harness recovers the Killed value at its call site,
// discards every in-memory result, and resumes from the latest snapshot.
//
// All state is atomic so the hooks are race-clean when several explorations
// run at once (concurrent explorations in one process, parallel tests);
// tests that arm points must not run in parallel with each other (they
// share the global countdowns).
package faultinject

import (
	"fmt"
	"sync/atomic"
)

// Point names an instrumented kill site.
type Point uint8

// Instrumented points.
const (
	// PointStep fires at the top of every engine scheduler step.
	PointStep Point = iota
	// PointMerge fires inside a state merge, after the merge partners were
	// removed from the worklist but before the merged state is dispatched —
	// the widest in-memory inconsistency window the engine has.
	PointMerge
	// PointCorpusWrite fires inside the corpus writer's test-file write,
	// after a deliberately torn file has been left at the final path —
	// simulating the non-atomic write of a pre-crash-safety corpus (or a
	// filesystem that tears on power loss), the case the resume-time
	// quarantine pass exists for.
	PointCorpusWrite

	numPoints
)

func (p Point) String() string {
	switch p {
	case PointStep:
		return "step"
	case PointMerge:
		return "merge"
	case PointCorpusWrite:
		return "corpus-write"
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Killed is the panic value of an injected kill. The harness recovers it by
// type; any other panic keeps propagating.
type Killed struct{ At Point }

func (k Killed) Error() string { return "faultinject: killed at " + k.At.String() }

var (
	armed    atomic.Bool
	counters [numPoints]atomic.Int64
)

// Arm schedules a kill at the nth Hit (n >= 1) of the given point,
// replacing any previous schedule. Counting starts now.
func Arm(p Point, n int64) {
	if n < 1 {
		panic("faultinject: Arm needs n >= 1")
	}
	for i := range counters {
		counters[i].Store(0)
	}
	counters[p].Store(n)
	armed.Store(true)
}

// Disarm clears every scheduled kill. Harnesses must call it (deferred)
// so a test failure cannot leak an armed point into later tests.
func Disarm() {
	armed.Store(false)
	for i := range counters {
		counters[i].Store(0)
	}
}

// Hit notes one crossing of the instrumented point, panicking with Killed
// when an armed countdown reaches zero. Disarmed cost: one atomic load.
func Hit(p Point) {
	HitWith(p, nil)
}

// HitWith is Hit with a pre-death callback: when the countdown fires, f
// runs first — instrumentation sites use it to leave a deliberately broken
// artifact (a torn corpus file) behind — and then the Killed panic unwinds.
func HitWith(p Point, f func()) {
	if !armed.Load() {
		return
	}
	if c := counters[p].Load(); c > 0 && counters[p].Add(-1) == 0 {
		if f != nil {
			f()
		}
		panic(Killed{At: p})
	}
}
