// Command symx explores a MiniC program symbolically and reports paths,
// coverage, solver statistics, generated test cases and any errors found.
//
// Usage:
//
//	symx [flags] file.mc        explore a MiniC source file
//	symx [flags] -tool echo     explore a built-in COREUTILS model
//
// Examples:
//
//	symx -args 2 -arglen 2 -merge dsm -qce -tool echo
//	symx -args 1 -arglen 3 -tests prog.mc
//	symx -emit-corpus /tmp/echo.corpus -tool echo     # persist the tests
//	symx -replay /tmp/echo.corpus -tool echo          # replay them (oracle)
//	symx -trace /tmp/echo.trace -tool echo            # JSONL event trace
//	symx -debug-addr localhost:6060 -tool expr        # pprof + live /progress
//	symx -checkpoint /tmp/ckpt -tool sort             # crash-safe; rerun with -resume
//
// -emit-corpus streams every generated test case to an on-disk corpus
// (internal/corpus format); -replay executes a stored corpus through the
// independent IR interpreter and fails on any expectation or
// coverage-parity mismatch — the regression gate CI runs against the
// committed golden corpus.
//
// Ctrl-C cancels the exploration promptly (Completed=false) instead of
// killing the process mid-run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"symmerge/internal/coreutils"
	"symmerge/internal/corpus"
	"symmerge/symx"
)

func main() {
	var (
		toolName = flag.String("tool", "", "run a built-in COREUTILS model instead of a file")
		nArgs    = flag.Int("args", 2, "number of symbolic command-line arguments")
		argLen   = flag.Int("arglen", 2, "max characters per symbolic argument")
		stdinLen = flag.Int("stdin", 0, "symbolic stdin bytes")
		merge    = flag.String("merge", "none", "state merging: none, ssm, dsm, func (function summaries)")
		useQCE   = flag.Bool("qce", false, "gate merging with query count estimation")
		alpha    = flag.Float64("alpha", 0.5, "QCE threshold α")
		beta     = flag.Float64("beta", 0.8, "QCE branch probability β")
		kappa    = flag.Int("kappa", 10, "QCE loop bound κ")
		strategy = flag.String("strategy", "", "search strategy: dfs, bfs, random, coverage, topo")
		seed     = flag.Int64("seed", 1, "random seed")
		budget   = flag.Duration("time", 30*time.Second, "exploration time budget")
		tests    = flag.Bool("tests", false, "generate concrete test cases")
		bounds   = flag.Bool("bounds", false, "report out-of-bounds array accesses as errors")
		dumpIR   = flag.Bool("ir", false, "print the compiled IR and exit")
		census   = flag.Bool("census", false, "track the exact-path shadow census")
		stats    = flag.Bool("stats", false, "print rewrite-rule hit counters and encoding statistics")
		emitDir  = flag.String("emit-corpus", "", "stream generated tests to an on-disk corpus at this directory (implies -tests)")
		replayTo = flag.String("replay", "", "replay a stored corpus through the IR interpreter instead of exploring; non-zero exit on any mismatch")
		ckptDir  = flag.String("checkpoint", "", "crash-safe exploration: write resumable snapshots to this directory")
		ckptInt  = flag.Duration("checkpoint-every", 30*time.Second, "snapshot interval with -checkpoint")
		resume   = flag.Bool("resume", false, "resume from the newest valid snapshot in the -checkpoint directory (requires -checkpoint)")
		traceTo  = flag.String("trace", "", "stream a JSONL event trace (symmerge-trace/v1) to this file; inspect with symxtrace")
		traceBuf = flag.Int("trace-buffer", 0, "trace sink buffer in events (0 = default 4096); overflow drops, never blocks")
		dbgAddr  = flag.String("debug-addr", "", "serve pprof, expvar metrics and /progress on this address (e.g. localhost:6060)")
		progEach = flag.Duration("progress", 0, "print a one-line progress report to stderr at this interval")
		noAn     = flag.Bool("noanalysis", false, "disable liveness merge slimming (merges build ite selectors for dead locals too)")
	)
	flag.Parse()

	var src, label string
	switch {
	case *toolName != "":
		tool, err := coreutils.Get(*toolName)
		if err != nil {
			fatal(err)
		}
		src = tool.Source
		label = tool.Name
		if *stdinLen == 0 && tool.UsesStdin {
			*stdinLen = tool.DefaultStdin
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
		label = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: symx [flags] file.mc | symx [flags] -tool name")
		os.Exit(2)
	}

	prog, err := symx.Compile(src)
	if err != nil {
		fatal(err)
	}
	if *dumpIR {
		fmt.Print(prog.IR())
		return
	}
	if *replayTo != "" {
		replayCorpus(*replayTo, prog)
		return
	}

	// Ctrl-C (and, for checkpointed runs under a supervisor, SIGTERM)
	// cancels the exploration through the engine's context poll, so a long
	// run stops promptly, still prints its partial statistics, and — with
	// -checkpoint — persists a resumable snapshot on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := symx.Config{
		NArgs:           *nArgs,
		ArgLen:          *argLen,
		StdinLen:        *stdinLen,
		UseQCE:          *useQCE,
		QCE:             symx.QCEParams{Alpha: *alpha, Beta: *beta, Kappa: *kappa, Zeta: 1},
		Strategy:        symx.Strategy(*strategy),
		Seed:            *seed,
		MaxTime:         *budget,
		Context:         ctx,
		CollectTests:    *tests,
		CheckBounds:     *bounds,
		TrackExactPaths: *census,
		CorpusDir:       *emitDir,
		CorpusLabel:     label,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptInt,
		Resume:          *resume,
		TraceFile:       *traceTo,
		TraceBuffer:     *traceBuf,
		DisableAnalysis: *noAn,
	}
	cfg.Merge = parseMerge(*merge)

	// Any observability consumer needs the metrics registry and the live
	// monitor; wiring them costs nothing when nobody looks.
	if *dbgAddr != "" || *progEach > 0 || *traceTo != "" {
		cfg.Metrics = symx.NewMetrics()
		cfg.Monitor = symx.NewMonitor()
	}
	if *dbgAddr != "" {
		if err := serveDebug(*dbgAddr, cfg.Metrics, cfg.Monitor); err != nil {
			fatal(err)
		}
	}
	if *progEach > 0 {
		stopProg := reportProgress(*progEach, cfg.Monitor, *resume)
		defer stopProg()
	}

	res := symx.Run(prog, cfg)
	if res.ConfigErr != nil {
		fatal(res.ConfigErr)
	}
	st := res.Stats
	if res.Completed {
		fmt.Printf("completed:     true (%.3fs)\n", st.ElapsedSeconds)
	} else {
		fmt.Printf("completed:     false (%.3fs, interrupted: %s)\n", st.ElapsedSeconds, res.Interrupted)
	}
	if res.CheckpointErr != nil {
		fmt.Fprintln(os.Stderr, "symx: checkpoint:", res.CheckpointErr)
	}
	fmt.Printf("paths:         %s (states completed: %d)\n", st.PathsMult, st.PathsCompleted)
	if *census {
		fmt.Printf("exact paths:   %d\n", st.ExactPaths)
	}
	fmt.Printf("coverage:      %.1f%% (%d/%d instructions)\n",
		100*st.Coverage(), st.CoveredInstrs, st.TotalInstrs)
	fmt.Printf("steps:         %d (instructions %d, forks %d)\n",
		st.Steps, st.Instructions, st.Forks)
	fmt.Printf("merges:        %d (attempts %d, fast-forward picks %d)\n",
		st.Merges, st.MergeAttempts, st.FFSelected)
	fmt.Printf("solver:        %d queries, %d SAT calls, %d reuse hits, %v in SAT\n",
		st.Solver.Queries, st.Solver.SATCalls,
		st.Solver.ModelReuseHits, st.Solver.SATTime.Round(time.Millisecond))
	if *traceTo != "" {
		fmt.Printf("trace:         %d events at %s (%d dropped)\n", res.TraceEvents, *traceTo, res.TraceDrops)
		if res.TraceErr != nil {
			fmt.Fprintln(os.Stderr, "symx: trace:", res.TraceErr)
		}
	}
	if *emitDir != "" {
		if res.CorpusErr != nil {
			fatal(res.CorpusErr)
		}
		fmt.Printf("corpus:        %d tests at %s (%d emitted, %d duplicates dropped)\n",
			st.TestsEmitted-st.TestsDeduped, *emitDir, st.TestsEmitted, st.TestsDeduped)
	}
	if *stats {
		printStats(st)
	}
	for i, e := range res.Errors {
		fmt.Printf("error[%d]:      %s (args %q)\n", i, e.Error(), e.Args)
	}
	for i, tc := range res.Tests {
		fmt.Printf("test[%d]:       args=%q stdin=%q -> output=%q exit=%d",
			i, tc.Args, tc.Stdin, tc.Output, tc.Exit)
		if tc.IsErr {
			fmt.Printf(" ERROR: %s", tc.Msg)
		}
		fmt.Println()
	}
}

// printStats renders the -stats block: CNF encoding effort, CDCL search
// effort per SAT call, and the expression builder's rewrite-rule hit
// counters.
func printStats(st symx.Stats) {
	sv := st.Solver
	fmt.Printf("encoding:      %d SAT vars, %d clauses emitted\n", sv.SATVars, sv.SATClauses)
	if n := float64(sv.SATCalls); n > 0 {
		fmt.Printf("search:        per SAT call %.1f decisions, %.1f propagations, %.2f conflicts, cone %.1f of %.1f core vars\n",
			float64(sv.SATDecisions)/n, float64(sv.SATPropagations)/n, float64(sv.SATConflicts)/n,
			float64(sv.ConeVars)/n, float64(sv.CoreVars)/n)
	}
	if st.TestsEmitted > 0 {
		fmt.Printf("tests:         %d emitted, %d deduplicated away\n",
			st.TestsEmitted, st.TestsDeduped)
	}
	if len(st.Rules) > 0 {
		fmt.Printf("rules:         %d distinct rewrite rules fired\n", len(st.Rules))
		for i, r := range st.Rules {
			if i >= 12 {
				fmt.Printf("    ... %d more\n", len(st.Rules)-i)
				break
			}
			fmt.Printf("    %-18s %d\n", r.Name, r.Hits)
		}
	}
}

// replayCorpus runs the stored corpus through the IR interpreter and exits
// non-zero on any expectation or coverage-parity mismatch.
func replayCorpus(dir string, prog *symx.Program) {
	rep, err := corpus.Replay(dir, prog.Internal())
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep.Summary())
	for _, m := range rep.Mismatches {
		fmt.Println("  MISMATCH", m)
	}
	if len(rep.MissingLocs) > 0 {
		fmt.Printf("  PARITY: %d symbolically covered locations unreached by replay\n", len(rep.MissingLocs))
	}
	if len(rep.ExtraLocs) > 0 {
		fmt.Printf("  PARITY: %d replay-covered locations outside the symbolic set\n", len(rep.ExtraLocs))
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

func parseMerge(spec string) symx.MergeMode {
	switch spec {
	case "none":
		return symx.MergeNone
	case "ssm":
		return symx.MergeSSM
	case "dsm":
		return symx.MergeDSM
	case "func":
		return symx.MergeFunc
	}
	fatal(fmt.Errorf("unknown merge mode %q", spec))
	panic("unreachable")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symx:", err)
	os.Exit(1)
}
