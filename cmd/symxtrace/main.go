// Command symxtrace inspects JSONL event traces produced by symx -trace
// (schema symmerge-trace/v1).
//
// By default it validates the stream — header, per-event required fields,
// footer accounting — and prints a summary:
//
//	symxtrace run.trace
//
// With -chrome it additionally converts the trace to the Chrome
// trace-event format, viewable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: one row per lane (the engine, plus the checkpoint
// driver of a checkpointed run), with solver-query and merge spans on the
// engine's row:
//
//	symxtrace -chrome run.json run.trace
//
// -fail-drops makes a trace with a non-zero dropped count exit non-zero —
// the CI completeness gate (a dropped event means the sink's buffer was
// outrun, so the trace under-represents the run).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"symmerge/internal/obs"
)

func main() {
	var (
		chromeOut = flag.String("chrome", "", "also convert to Chrome trace-event JSON at this path (view in Perfetto)")
		failDrops = flag.Bool("fail-drops", false, "exit non-zero if the trace dropped any events")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: symxtrace [-chrome out.json] [-fail-drops] trace.jsonl")
		os.Exit(2)
	}
	path := flag.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	sum, err := obs.Validate(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}

	fmt.Printf("%s: valid %s\n", path, obs.SchemaVersion)
	fmt.Printf("  events:  %d (%d dropped)\n", sum.Events, sum.Dropped)
	fmt.Printf("  lanes:   %d\n", sum.Lanes)
	types := make([]string, 0, len(sum.ByType))
	for t := range sum.ByType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Printf("  %-14s %d\n", t, sum.ByType[t])
	}

	if *chromeOut != "" {
		in, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		out, err := os.Create(*chromeOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.ChromeTrace(in, out); err != nil {
			fatal(fmt.Errorf("chrome convert: %w", err))
		}
		in.Close()
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  chrome:  %s (open in https://ui.perfetto.dev)\n", *chromeOut)
	}

	if *failDrops && sum.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "symxtrace: %d events dropped — raise -trace-buffer\n", sum.Dropped)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symxtrace:", err)
	os.Exit(1)
}
