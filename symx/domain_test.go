package symx

// Differential tests for persistent domains: a store-backed Domain is a
// pure execution-cost optimization, so a warm-store run must produce the
// byte-identical canonical corpus and the same invariant census as both a
// cold-store run and a plain run with no domain at all, in every merging
// regime and at any worker count. Persistence may only change speed —
// never results. The matrix here pins exactly that, and additionally
// asserts the warm run demonstrably used the store (otherwise the test
// would pass vacuously with persistence disconnected).

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"symmerge/internal/corpus"
	"symmerge/internal/store"
)

// callHeavySrc is a call-heavy program: two helpers (one with an array
// parameter mutated in place) applied to every argv byte. Loop-free so
// exhaustive exploration is fast and strategy-independent.
const callHeavySrc = `
int classify(byte c) {
    if (c < 'a') { return 0; }
    if (c > 'z') { return 1; }
    if (c == 'q') { return 2; }
    return 3;
}

int tally(int counts[4], int k) {
    if (k < 0) { return -1; }
    if (k > 3) { return -1; }
    counts[k] = counts[k] + 1;
    return counts[k];
}

void main() {
    int counts[4];
    counts[0] = 0; counts[1] = 0; counts[2] = 0; counts[3] = 0;
    int last = 0;
    last = tally(counts, classify(argchar(1, 0)));
    last = tally(counts, classify(argchar(1, 1)));
    last = tally(counts, classify(argchar(2, 0)));
    putchar(tobyte('0' + (counts[0] + counts[3]) % 10));
    putchar(tobyte('0' + (last + counts[2]) % 10));
    if (counts[1] == 3) {
        putchar('!');
    }
}
`

// behavior reduces a result to its canonical input → (output, exit, error)
// map, the per-input observable every differential test here compares.
func behavior(t *testing.T, res *Result) map[string]string {
	t.Helper()
	out := make(map[string]string, len(res.Tests))
	for _, tc := range res.Tests {
		id := corpus.InputID(tc.Args, tc.Stdin)
		out[id] = fmt.Sprintf("out=%q exit=%d err=%v msg=%q", tc.Output, tc.Exit, tc.IsErr, tc.Msg)
	}
	return out
}

// runDomainArm runs cfg with corpus emission into dir, optionally inside
// dom, and fails the test on any incomplete or refused run.
func runDomainArm(t *testing.T, p *Program, cfg Config, label, dir string, dom *Domain) *Result {
	t.Helper()
	cfg.CollectTests = true
	cfg.CanonicalTests = true
	if cfg.MaxTests == 0 {
		cfg.MaxTests = 1 << 20
	}
	if cfg.Merge != MergeNone {
		cfg.TrackExactPaths = true
	}
	cfg.CorpusDir = dir
	cfg.Domain = dom
	if dom != nil {
		dom.Acquire()
		defer dom.Release()
	}
	res := Run(p, cfg)
	if res.ConfigErr != nil {
		t.Fatalf("%s: config refused: %v", label, res.ConfigErr)
	}
	if !res.Completed {
		t.Fatalf("%s: incomplete exploration", label)
	}
	if res.CorpusErr != nil {
		t.Fatalf("%s: corpus emission: %v", label, res.CorpusErr)
	}
	return res
}

// requireSameObservables asserts the census invariants between two runs of
// the same config: exact path census (or raw multiplicity when nothing
// merges), error count, coverage mask, and the canonical input→behavior
// map.
func requireSameObservables(t *testing.T, label string, merge MergeMode, a, b *Result) {
	t.Helper()
	if merge == MergeNone {
		if a.Stats.PathsMult.Cmp(b.Stats.PathsMult) != 0 {
			t.Fatalf("%s: multiplicity %s vs %s", label, a.Stats.PathsMult, b.Stats.PathsMult)
		}
	} else if a.Stats.ExactPaths != b.Stats.ExactPaths {
		t.Fatalf("%s: exact census %d vs %d", label, a.Stats.ExactPaths, b.Stats.ExactPaths)
	}
	if a.Stats.ErrorsFound != b.Stats.ErrorsFound {
		t.Fatalf("%s: errors %d vs %d", label, a.Stats.ErrorsFound, b.Stats.ErrorsFound)
	}
	if len(a.CoverageMask) != len(b.CoverageMask) {
		t.Fatalf("%s: coverage mask length %d vs %d", label, len(a.CoverageMask), len(b.CoverageMask))
	}
	for i := range a.CoverageMask {
		if a.CoverageMask[i] != b.CoverageMask[i] {
			t.Fatalf("%s: coverage diverges at loc index %d", label, i)
		}
	}
	ba, bb := behavior(t, a), behavior(t, b)
	if len(ba) != len(bb) {
		t.Fatalf("%s: %d canonical inputs vs %d", label, len(ba), len(bb))
	}
	for id, want := range ba {
		if got, ok := bb[id]; !ok {
			t.Fatalf("%s: input %s missing", label, id)
		} else if got != want {
			t.Fatalf("%s: input %s behavior %s vs %s", label, id, want, got)
		}
	}
}

func digestOf(t *testing.T, label, dir string) string {
	t.Helper()
	d, err := corpus.DirDigest(dir)
	if err != nil {
		t.Fatalf("%s: digest %s: %v", label, dir, err)
	}
	return d
}

// TestDomainColdWarmDifferential: for every regime × worker count, three
// arms over the same program — no domain at all, a cold store-backed
// domain, and a warm domain over a reopened copy of that store
// — must emit byte-identical corpus directories and agree on the whole
// census. The warm arm must additionally show store traffic: whole-query
// or group-level stable hits in the solver and lookup hits in the store.
func TestDomainColdWarmDifferential(t *testing.T) {
	p, err := Compile(callHeavySrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	regimes := []struct {
		name  string
		merge MergeMode
		qce   bool
	}{
		{"none", MergeNone, false},
		{"ssm+qce", MergeSSM, true},
		{"dsm+qce", MergeDSM, true},
	}
	for _, reg := range regimes {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("%s/w%d", reg.name, workers)
			t.Run(label, func(t *testing.T) {
				cfg := Config{
					NArgs: 2, ArgLen: 2,
					Merge:   reg.merge,
					UseQCE:  reg.qce,
					Workers: workers,
					MaxTime: 30 * time.Second,
				}
				tmp := t.TempDir()
				storeDir := filepath.Join(tmp, "store")

				plain := runDomainArm(t, p, cfg, label+"/plain", filepath.Join(tmp, "plain"), nil)

				st, err := store.Open(storeDir, store.Options{})
				if err != nil {
					t.Fatalf("open store: %v", err)
				}
				coldDom := NewDomain(st)
				cold := runDomainArm(t, p, cfg, label+"/cold", filepath.Join(tmp, "cold"), coldDom)
				if err := coldDom.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}

				// Reopen the store from disk — the warm arm must get its
				// knowledge through the persistence round-trip, not from
				// shared process memory.
				st2, err := store.Open(storeDir, store.Options{})
				if err != nil {
					t.Fatalf("reopen store: %v", err)
				}
				warmDom := NewDomain(st2)
				warm := runDomainArm(t, p, cfg, label+"/warm", filepath.Join(tmp, "warm"), warmDom)

				dPlain := digestOf(t, label, filepath.Join(tmp, "plain"))
				dCold := digestOf(t, label, filepath.Join(tmp, "cold"))
				dWarm := digestOf(t, label, filepath.Join(tmp, "warm"))
				if dCold != dPlain {
					t.Errorf("%s: cold-domain corpus digest %s != plain %s", label, dCold, dPlain)
				}
				if dWarm != dCold {
					t.Errorf("%s: warm corpus digest %s != cold %s", label, dWarm, dCold)
				}
				requireSameObservables(t, label+"/plain-vs-cold", reg.merge, plain, cold)
				requireSameObservables(t, label+"/cold-vs-warm", reg.merge, cold, warm)

				// The warm run must demonstrably consult the store.
				stableHits := warm.Stats.Solver.StableHits
				if stableHits == 0 {
					t.Errorf("%s: warm run answered no query from the persistent store", label)
				}
				if warmDom.WarmHits() == 0 {
					t.Errorf("%s: store recorded no lookup hits on the warm run", label)
				}
			})
		}
	}
}

// TestDomainInMemorySharing: a store-less domain still shares one builder
// and its cex cache across successive runs — the second run of the same
// program must hit the in-process cex cache without any store attached.
func TestDomainInMemorySharing(t *testing.T) {
	p, err := Compile(callHeavySrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dom := NewDomain(nil)
	cfg := Config{NArgs: 2, ArgLen: 2, MaxTime: 30 * time.Second}
	first := runDomainArm(t, p, cfg, "first", t.TempDir(), dom)
	second := runDomainArm(t, p, cfg, "second", t.TempDir(), dom)
	requireSameObservables(t, "in-memory", MergeNone, first, second)
	if second.Stats.Solver.CacheHits <= first.Stats.Solver.CacheHits &&
		second.Stats.Solver.SATCalls >= first.Stats.Solver.SATCalls {
		t.Errorf("second run shows no sharing benefit: hits %d→%d, SAT calls %d→%d",
			first.Stats.Solver.CacheHits, second.Stats.Solver.CacheHits,
			first.Stats.Solver.SATCalls, second.Stats.Solver.SATCalls)
	}
	if dom.WarmHits() != 0 {
		t.Errorf("store-less domain reported %d warm hits", dom.WarmHits())
	}
}
