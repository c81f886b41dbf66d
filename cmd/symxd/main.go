// Command symxd is the symbolic-execution daemon: an HTTP/JSON service that
// accepts MiniC programs, explores each as one job with its own expression
// builder and solvers, and streams results and canonical corpus entries
// back as JSON lines.
//
// With -checkpoint-dir, jobs submitted with a "key" are drain-safe: a
// SIGTERM preempts them into resumable snapshots, and resubmitting the
// same key with "resume" continues where the drain stopped them. A key
// uses only [A-Za-z0-9._-] and is not only dots; a key without
// -checkpoint-dir, or "resume" without a key, is refused with 400.
//
// Endpoints:
//
//	POST /v1/jobs     submit a job (JSON body), response is streaming JSONL:
//	                  {"event":"accepted"} → {"event":"test"}* → {"event":"result"};
//	                  a body with an unknown field is refused with 400
//	GET  /v1/progress live progress of every in-flight job
//	GET  /v1/stats    daemon counters: job outcomes, queries, SAT calls
//	GET  /healthz     liveness
//
// Flags:
//
//	-addr string             listen address (default 127.0.0.1:7877)
//	-checkpoint-dir string   root for per-key job checkpoints ("" = off)
//	-checkpoint-every dur    per-job snapshot interval (default 2s)
//	-max-jobs int            concurrent job slots (default 2)
//	-default-timeout dur     per-job deadline when the job sets none (default 60s)
//	-max-timeout dur         cap on requested per-job deadlines (default 10m)
//	-drain-grace dur         how long a SIGTERM drain waits for in-flight
//	                         jobs to checkpoint (default 30s)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"symmerge/internal/daemon"
)

func main() {
	var opts daemon.Options
	flag.StringVar(&opts.Addr, "addr", "127.0.0.1:7877", "listen address")
	flag.StringVar(&opts.CheckpointDir, "checkpoint-dir", "", "root directory for per-key job checkpoints (empty = off)")
	flag.DurationVar(&opts.CheckpointEvery, "checkpoint-every", 0, "per-job snapshot interval (default 2s)")
	flag.IntVar(&opts.MaxJobs, "max-jobs", 0, "concurrent job slots (default 2)")
	flag.DurationVar(&opts.DefaultTimeout, "default-timeout", 0, "per-job deadline when the job sets none (default 60s)")
	flag.DurationVar(&opts.MaxTimeout, "max-timeout", 0, "cap on requested per-job deadlines (default 10m)")
	grace := flag.Duration("drain-grace", 30*time.Second, "SIGTERM drain grace period")
	flag.Parse()

	srv, err := daemon.New(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "symxd: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "symxd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "symxd: listening on http://%s/ (POST /v1/jobs, /v1/progress, /v1/stats)\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "symxd: %s — draining (in-flight jobs checkpoint within %s)\n", got, *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "symxd: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "symxd: drained")
}
