// Command paperbench regenerates the paper's evaluation figures (PLDI 2012,
// "Efficient State Merging in Symbolic Execution", §5) on the COREUTILS
// models, printing one data table per figure.
//
// Usage:
//
//	paperbench [-figure all|3|4|5|6|7|8|9|ff|spectrum] \
//	           [-budget 2s] [-timeout 10s] [-seed 1]
//
// Budgets replace the paper's 1h/2h wall-clock budgets; the shapes of the
// results (who wins, scaling with input size, crossovers) are the claims
// being checked, not absolute numbers. Every exploration runs one engine,
// as the paper's sequential KLEE search does.
//
// Performance measurement (repeated runs, medians, per-layer attribution)
// is cmd/symbench's job, not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"symmerge/internal/bench"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate (3..9, ff, spectrum, all)")
	budget := flag.Duration("budget", 2*time.Second, "time budget per budget-bound run")
	timeout := flag.Duration("timeout", 10*time.Second, "cutoff for exhaustive runs")
	seed := flag.Int64("seed", 1, "random seed for the randomized strategies")
	flag.Parse()

	switch *figure {
	case "all", "3", "4", "5", "6", "7", "8", "9", "ff", "spectrum":
	default:
		fmt.Fprintf(os.Stderr, "paperbench: unknown figure %q\n", *figure)
		os.Exit(2)
	}
	opts := bench.Options{Budget: *budget, Timeout: *timeout, Seed: *seed}
	run := func(name string, f func(bench.Options) *bench.Table) {
		if *figure == "all" || *figure == name {
			fmt.Print(f(opts).String())
			fmt.Println()
		}
	}
	if *figure == "all" || *figure == "3" {
		for _, t := range bench.Figure3(opts) {
			fmt.Print(t.String())
			fmt.Println()
		}
	}
	run("4", bench.Figure4)
	run("5", bench.Figure5)
	run("6", bench.Figure6)
	run("7", bench.Figure7)
	run("8", bench.Figure8)
	run("9", bench.Figure9)
	run("ff", bench.FFStat)
	run("spectrum", bench.Spectrum)
}
