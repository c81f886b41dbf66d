package symx_test

import (
	"fmt"
	"sync"
	"testing"

	"symmerge/internal/corpus"
	"symmerge/symx"
)

// TestConcurrentRunsOfOneProgram: explorations of one Program may run at
// once from several goroutines. They share its static facts and QCE tables,
// and each must still reach the corpus and census of the same configuration
// explored alone. The shared Program is fresh, so its concurrent runs also
// race to build those tables; run the test under -race.
func TestConcurrentRunsOfOneProgram(t *testing.T) {
	alone, ssm := sortAtStdin5(t)
	shared, _ := sortAtStdin5(t)
	dsm := ssm
	dsm.Merge = symx.MergeDSM
	none := ssm
	none.Merge, none.UseQCE = symx.MergeNone, false
	configs := map[string]symx.Config{"ssm+qce": ssm, "dsm+qce": dsm, "none": none}

	type outcome struct {
		digest string
		census [3]uint64
	}
	run := func(p *symx.Program, cfg symx.Config, dir string) (outcome, error) {
		cfg.CorpusDir = dir
		res := symx.Run(p, cfg)
		if !res.Completed || res.CorpusErr != nil {
			return outcome{}, fmt.Errorf("completed=%v interrupted=%s corpusErr=%v", res.Completed, res.Interrupted, res.CorpusErr)
		}
		d, err := corpus.DirDigest(dir)
		return outcome{d, census(res)}, err
	}

	want := map[string]outcome{}
	for name, cfg := range configs {
		o, err := run(alone, cfg, t.TempDir())
		if err != nil {
			t.Fatalf("%s alone: %v", name, err)
		}
		want[name] = o
	}

	var wg sync.WaitGroup
	for name, cfg := range configs {
		for range 2 {
			dir := t.TempDir()
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := run(shared, cfg, dir)
				if err != nil {
					t.Errorf("%s concurrently: %v", name, err)
				} else if got != want[name] {
					t.Errorf("%s concurrently: digest %.12s, steps, merges, paths %v; alone: digest %.12s, %v",
						name, got.digest, got.census, want[name].digest, want[name].census)
				}
			}()
		}
	}
	wg.Wait()
}
