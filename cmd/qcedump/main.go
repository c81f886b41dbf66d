// Command qcedump compiles a MiniC program and prints its IR disassembly and
// the QCE query-count tables (Qt and per-variable Qadd at every location),
// for inspecting what the heuristic considers hot. With -facts liveness it
// prints the liveness table of internal/analysis, which QCE masks Qadd
// with, instead.
//
// Usage:
//
//	qcedump [-alpha f] [-beta f] [-kappa n] [-facts liveness] file.mc
package main

import (
	"flag"
	"fmt"
	"os"

	"symmerge/internal/analysis"
	"symmerge/internal/lang"
	"symmerge/internal/qce"
)

func main() {
	alpha := flag.Float64("alpha", 0.5, "QCE hot-variable threshold α")
	beta := flag.Float64("beta", 0.8, "QCE branch feasibility probability β")
	kappa := flag.Int("kappa", 10, "QCE loop unroll bound κ")
	facts := flag.String("facts", "", "dump analysis facts instead of QCE tables: liveness")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qcedump [flags] file.mc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcedump:", err)
		os.Exit(1)
	}
	prog, err := lang.Compile(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcedump:", err)
		os.Exit(1)
	}
	fmt.Print(prog.String())
	ap := analysis.Analyze(prog)
	switch *facts {
	case "":
	case "liveness":
		for _, ff := range ap.Funcs {
			fmt.Print(ff.LivenessString())
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "qcedump: unknown -facts table %q (want liveness)\n", *facts)
		os.Exit(2)
	}
	a := qce.FromFacts(ap, qce.Params{Alpha: *alpha, Beta: *beta, Kappa: *kappa, Zeta: 1})
	for _, fq := range a.PerFunc {
		fmt.Print(fq.String())
	}
}
