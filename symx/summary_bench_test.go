package symx_test

import (
	"testing"
	"time"

	"symmerge/internal/coreutils"
	"symmerge/symx"
)

// BenchmarkSummaryReuse measures what a warm summary cache is worth: the
// same SSM+QCE exploration of a summary-heavy tool in a cold domain (every
// iteration records its own summaries) and in a domain seeded by one prior
// run (every call site is a cache hit). The gap between the two is the
// record-once/apply-many payoff the cache exists for.
func BenchmarkSummaryReuse(b *testing.B) {
	tool, err := coreutils.Get("sleep")
	if err != nil {
		b.Fatal(err)
	}
	p, err := tool.Compile()
	if err != nil {
		b.Fatal(err)
	}
	run := func(dom *symx.Domain) *symx.Result {
		cfg := tool.BaseConfig()
		cfg.Merge = symx.MergeSSM
		cfg.UseQCE = true
		cfg.MaxTime = 30 * time.Second
		cfg.Summaries = true
		cfg.Domain = dom
		return symx.Run(p, cfg)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := run(symx.NewDomain(nil))
			if res.Stats.SummaryRecords == 0 {
				b.Fatal("cold run recorded no summaries")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dom := symx.NewDomain(nil)
		run(dom) // seed the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := run(dom)
			if res.Stats.SummaryRecords != 0 {
				b.Fatal("warm run re-recorded a summary")
			}
			if res.Stats.SummaryHits == 0 {
				b.Fatal("warm run missed the cache")
			}
		}
	})
}
