// Command symxd is the persistent symbolic-execution daemon: an HTTP/JSON
// service that accepts MiniC programs, explores each as one job inside a
// shared long-lived domain (one expression builder plus a counterexample
// cache), and streams results and canonical corpus entries back as JSON
// lines.
//
// With -store the domain is backed by an on-disk persistent store, so
// solver verdicts (whole queries and blasted independence groups) survive
// restarts: resubmitting a program family to a
// warm daemon answers many queries from disk instead of the SAT solver.
// With -checkpoint-dir, jobs submitted with a "key" are drain-safe: a
// SIGTERM preempts them into resumable snapshots, and resubmitting the
// same key with "resume" continues where the drain stopped them.
//
// Endpoints:
//
//	POST /v1/jobs     submit a job (JSON body), response is streaming JSONL:
//	                  {"event":"accepted"} → {"event":"test"}* → {"event":"result"};
//	                  a body with an unknown field is refused with 400
//	GET  /v1/progress live aggregate of every in-flight job's engines
//	GET  /v1/stats    daemon counters: job outcomes, domain lifecycle
//	                  (rotations, builders_reclaimed), warm-store hits
//	GET  /healthz     liveness
//
// Flags:
//
//	-addr string             listen address (default 127.0.0.1:7877)
//	-store string            persistent store directory ("" = in-memory)
//	-store-tag string        engine generation tag for persisted segments
//	-checkpoint-dir string   root for per-key job checkpoints ("" = off)
//	-checkpoint-every dur    per-job snapshot interval (default 2s)
//	-max-jobs int            concurrent job slots (default 2)
//	-default-timeout dur     per-job deadline when the job sets none (default 60s)
//	-max-timeout dur         cap on requested per-job deadlines (default 10m)
//	-rotate-nodes int        builder node watermark for domain rotation
//	                         (default 1<<20; negative disables)
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
	flag.StringVar(&opts.StoreDir, "store", "", "persistent store directory (empty = in-memory domain)")
	flag.StringVar(&opts.StoreTag, "store-tag", "", "engine generation tag for persisted segments")
	flag.StringVar(&opts.CheckpointDir, "checkpoint-dir", "", "root directory for per-key job checkpoints (empty = off)")
	flag.DurationVar(&opts.CheckpointEvery, "checkpoint-every", 0, "per-job snapshot interval (default 2s)")
	flag.IntVar(&opts.MaxJobs, "max-jobs", 0, "concurrent job slots (default 2)")
	flag.DurationVar(&opts.DefaultTimeout, "default-timeout", 0, "per-job deadline when the job sets none (default 60s)")
	flag.DurationVar(&opts.MaxTimeout, "max-timeout", 0, "cap on requested per-job deadlines (default 10m)")
	flag.IntVar(&opts.RotateNodes, "rotate-nodes", 0, "builder node watermark for domain rotation (negative disables)")
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
