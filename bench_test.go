// Benchmarks regenerating the paper's evaluation (one per figure of §5)
// plus engine micro-benchmarks. Each figure benchmark executes its full
// experiment once per iteration with miniature budgets; run cmd/paperbench
// for the real tables with larger budgets.
package symmerge_test

import (
	"testing"
	"time"

	"symmerge/internal/bench"
	"symmerge/internal/coreutils"
	"symmerge/symx"
)

func benchOpts() bench.Options {
	return bench.Options{
		Budget:  200 * time.Millisecond,
		Timeout: time.Second,
		Seed:    1,
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Figure3(benchOpts())
		if len(tables) != 3 {
			b.Fatalf("expected 3 tool tables, got %d", len(tables))
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure4(benchOpts())
		if len(t.Rows) < 20 {
			b.Fatalf("figure 4 covered %d tools", len(t.Rows))
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure5(benchOpts())
		if len(t.Rows) == 0 {
			b.Fatal("figure 5 produced no rows")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure6(benchOpts())
		if len(t.Rows) == 0 {
			b.Fatal("figure 6 produced no rows")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure7(benchOpts())
		if len(t.Rows) == 0 {
			b.Fatal("figure 7 produced no rows")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Figure8(benchOpts()) // rows may be empty at tiny budgets
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure9(benchOpts())
		if len(t.Rows) == 0 {
			b.Fatal("figure 9 produced no rows")
		}
	}
}

func BenchmarkFFSuccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.FFStat(benchOpts())
	}
}

// BenchmarkSpectrum runs the §2.2 design-space sweep (none / function
// summaries / SSM / DSM) on the call-heavy tools.
func BenchmarkSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Spectrum(benchOpts())
		if len(t.Rows) == 0 {
			b.Fatal("spectrum produced no rows")
		}
	}
}

// --- Engine micro-benchmarks (ablations) ---

// benchEcho runs echo exhaustively under one configuration.
func benchEcho(b *testing.B, mut func(*symx.Config)) {
	tool, err := coreutils.Get("echo")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := tool.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := symx.Config{NArgs: 2, ArgLen: 3, Seed: 1}
		mut(&cfg)
		res := symx.Run(prog, cfg)
		if !res.Completed {
			b.Fatal("exploration did not complete")
		}
	}
}

func BenchmarkEchoNoMerge(b *testing.B) {
	benchEcho(b, func(cfg *symx.Config) { cfg.Merge = symx.MergeNone })
}

func BenchmarkEchoSSMQCE(b *testing.B) {
	benchEcho(b, func(cfg *symx.Config) {
		cfg.Merge = symx.MergeSSM
		cfg.UseQCE = true
	})
}

func BenchmarkEchoSSMMergeAll(b *testing.B) {
	benchEcho(b, func(cfg *symx.Config) { cfg.Merge = symx.MergeSSM })
}

func BenchmarkEchoDSMQCE(b *testing.B) {
	benchEcho(b, func(cfg *symx.Config) {
		cfg.Merge = symx.MergeDSM
		cfg.UseQCE = true
	})
}

// BenchmarkEchoSSMQCEFullVariant measures the §3.3 full cost model (ζ > 1),
// the variant the paper describes but leaves out of its prototype: it
// additionally charges merges that introduce ite expressions.
func BenchmarkEchoSSMQCEFullVariant(b *testing.B) {
	benchEcho(b, func(cfg *symx.Config) {
		cfg.Merge = symx.MergeSSM
		cfg.UseQCE = true
		cfg.QCE = symx.DefaultQCEParams()
		cfg.QCE.Zeta = 4
	})
}

// BenchmarkMergeModes sweeps the design space of §2.2 on a call-heavy
// workload (per-argument classification through a branching helper): no
// merging, function summaries (MergeFunc), static merging, and dynamic
// merging, each the paper's named point in the spectrum between search-based
// symbolic execution and verification condition generation.
func BenchmarkMergeModes(b *testing.B) {
	const src = `
int classify(byte c) {
    if (c == '-') { return 0; }
    if (c < '0') { return 1; }
    if (c > '9') { return 2; }
    return 3;
}
void main() {
    int total = 0;
    for (int arg = 1; arg < argc(); arg++) {
        for (int i = 0; argchar(arg, i) != 0; i++) {
            total = total + classify(argchar(arg, i));
        }
    }
    if (total > 4) { putchar('+'); } else { putchar('-'); }
    putchar('\n');
}
`
	prog, err := symx.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		cfg  symx.Config
	}{
		{"none", symx.Config{Merge: symx.MergeNone}},
		{"func-summaries", symx.Config{Merge: symx.MergeFunc}},
		{"func-summaries-qce", symx.Config{Merge: symx.MergeFunc, UseQCE: true}},
		{"ssm-qce", symx.Config{Merge: symx.MergeSSM, UseQCE: true}},
		{"dsm-qce", symx.Config{Merge: symx.MergeDSM, UseQCE: true}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := m.cfg
				cfg.NArgs, cfg.ArgLen, cfg.Seed = 2, 2, 1
				res := symx.Run(prog, cfg)
				if !res.Completed {
					b.Fatal("exploration did not complete")
				}
			}
		})
	}
}
