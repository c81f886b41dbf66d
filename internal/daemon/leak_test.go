package daemon

// The builder-collection leak test (run under -race in CI): a sustained
// submit loop against a daemon with a tiny rotation watermark must keep
// the live intern table bounded, and the retired domains — builder,
// hash-cons buckets, fingerprint memo, caches — must be demonstrably
// reclaimed by the garbage collector, observed through the same
// builders_reclaimed counter /v1/stats serves. Without rotation (or with
// a rotation that secretly retains the old builder) an assertion fails:
// nodes grow without bound, or the reclaim counter never moves. Each job
// submits a slightly different program — identical programs hash-cons
// into the same nodes and would never grow the table past the watermark.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"symmerge/symx"
)

// variedSrc generates the i-th job's program: same shape, different
// constants, so every job interns fresh expression nodes.
func variedSrc(i int) string {
	return fmt.Sprintf(`
void main() {
    int total = %d;
    byte c = argchar(1, 0);
    if (c > 'a') { total = total + %d; }
    if (c > 'm') { total = total + 2; }
    byte d = argchar(1, 1);
    if (d == c) { total = total + %d; }
    putchar(tobyte('0' + total %% 10));
}
`, i*7, i+1, i%5+3)
}

func TestDomainRotationBoundsBuilderGrowth(t *testing.T) {
	const watermark = 150 // below two varied jobs' worth of interning
	s := startServer(t, Options{
		MaxJobs:     1,
		StoreDir:    t.TempDir(),
		RotateNodes: watermark,
	})

	// Baseline: the first job tells us how many nodes one run interns, so
	// the growth bound below is principled rather than a magic constant.
	if res := resultOf(t, submit(t, s.Addr(), JobRequest{
		Source: variedSrc(0), Merge: "dsm",
	})); !res.Completed {
		t.Fatal("seed job incomplete")
	}
	perJob := getStats(t, s.Addr()).DomainNodes
	if perJob == 0 {
		t.Fatal("no nodes interned by a real job")
	}
	// A domain rotates as soon as a job leaves it past the watermark, so
	// the live table never exceeds the watermark plus one job's growth —
	// with cushion.
	bound := watermark + 4*perJob

	reclaimedBefore := symx.DomainsReclaimed()
	const jobs = 12
	for i := 1; i <= jobs; i++ {
		if res := resultOf(t, submit(t, s.Addr(), JobRequest{
			Source: variedSrc(i), Merge: "dsm",
		})); !res.Completed {
			t.Fatalf("job %d incomplete", i)
		}
		if nodes := getStats(t, s.Addr()).DomainNodes; nodes > bound {
			t.Fatalf("job %d: live intern table %d nodes exceeds bound %d — rotation is not bounding growth",
				i, nodes, bound)
		}
	}
	doc := getStats(t, s.Addr())
	if doc.DomainsRotated == 0 {
		t.Fatal("sustained load never rotated the domain")
	}
	if doc.JobsCompleted != jobs+1 {
		t.Errorf("jobs_completed=%d want %d", doc.JobsCompleted, jobs+1)
	}
	// The persistent store stays bounded too: every rotation flushes, and
	// compaction must keep the segment count at the compaction threshold
	// (+1 for the freshly written segment), not one file per flush.
	if doc.Store == nil {
		t.Fatal("store-backed daemon reports no store stats")
	}
	if doc.Store.Segments > 9 {
		t.Errorf("store grew to %d segments under sustained flushes — compaction is not running",
			doc.Store.Segments)
	}

	// The rotated-out domains must be collectible: nothing in the daemon
	// (job registry, monitors, store) may retain them. Finalizers need a
	// couple of GC cycles to run, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for symx.DomainsReclaimed() == reclaimedBefore {
		if time.Now().After(deadline) {
			t.Fatalf("GC reclaimed no retired domain after %d rotations — a reference is leaking",
				doc.DomainsRotated)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := getStats(t, s.Addr()).BuildersReclaimed; got == 0 {
		t.Error("stats endpoint does not surface builders_reclaimed")
	}

	// Rotation must not have cost correctness: the same program re-run in
	// whatever domain is now live still completes and agrees with itself.
	a := resultOf(t, submit(t, s.Addr(), JobRequest{Source: variedSrc(3), Merge: "dsm"}))
	b := resultOf(t, submit(t, s.Addr(), JobRequest{Source: variedSrc(3), Merge: "dsm"}))
	if !a.Completed || !b.Completed || a.CorpusDigest != b.CorpusDigest {
		t.Errorf("post-rotation runs disagree: %v/%v %s vs %s",
			a.Completed, b.Completed, a.CorpusDigest, b.CorpusDigest)
	}
}
