package main

// The -debug-addr introspection endpoint and the -progress stderr reporter.
//
// -debug-addr serves the standard library's diagnostic surface plus a live
// run view on one listener:
//
//	/debug/pprof/...    net/http/pprof (CPU, heap, goroutine profiles)
//	/debug/vars         expvar, including "symmerge.metrics" — the full
//	                    counter/histogram snapshot (symmerge-metrics/v1)
//	/progress           aggregate live progress (symmerge-progress/v1):
//	                    states, worklist, coverage, query counters
//
// The endpoint is read-only and attaches no cost to the exploration hot
// path: engines publish immutable snapshots on their step cadence and the
// handlers only ever read those.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strconv"
	"time"

	"symmerge/symx"
)

// serveDebug binds addr and serves pprof, expvar and /progress in the
// background for the lifetime of the process. Binding failures are
// reported synchronously so a typo'd address fails the run up front.
func serveDebug(addr string, met *symx.Metrics, mon *symx.Monitor) error {
	symx.PublishMetrics(met)
	http.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(mon.Progress())
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug-addr: %w", err)
	}
	fmt.Fprintf(os.Stderr, "symx: debug endpoint at http://%s/ (pprof, /debug/vars, /progress)\n", ln.Addr())
	go http.Serve(ln, nil)
	return nil
}

// reportProgress prints a one-line run summary to stderr every interval:
//
//	symx: 2.0s states=14 worklist=9 cov=61.2% steps=48213 (24106/s) queries=1930 (965/s)
//
// Rates are deltas over the reporting interval, not lifetime averages, so
// a stall shows up immediately. A resumed run's counters start at its
// snapshot's, so its first line shows no rates ("-/s"). The returned stop
// function halts the ticker; the final result line comes from the normal
// run output.
func reportProgress(interval time.Duration, mon *symx.Monitor, resumed bool) (stop func()) {
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var lastSteps, lastQueries uint64
		haveBase := !resumed
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			p := mon.Progress()
			rate := func(cur, last uint64) string {
				if !haveBase {
					return "-"
				}
				return strconv.FormatFloat(float64(cur-last)/interval.Seconds(), 'f', 0, 64)
			}
			fmt.Fprintf(os.Stderr,
				"symx: %.1fs states=%d worklist=%d cov=%.1f%% steps=%d (%s/s) queries=%d (%s/s)\n",
				p.ElapsedSeconds, p.PathsCompleted, p.Worklist, p.CoveragePct,
				p.Steps, rate(p.Steps, lastSteps), p.Queries, rate(p.Queries, lastQueries))
			lastSteps, lastQueries, haveBase = p.Steps, p.Queries, true
		}
	}()
	return func() { close(done) }
}
