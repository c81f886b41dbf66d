// Package daemon implements symxd, the long-lived symbolic-execution
// service behind cmd/symxd. It accepts MiniC programs over HTTP, runs each
// as one symx exploration job under a per-job deadline, and streams the
// result — census, solver counters, and the canonical corpus entries — back
// as JSON lines.
//
// Jobs share nothing but the daemon's queue and counters: each one is a
// plain symx.Run with its own expression builder and solvers, freed when
// the job ends, so nothing a job observes depends on which jobs ran
// before it.
//
// Graceful drain: Drain stops admitting jobs, cancels the in-flight ones,
// and waits for them. Jobs submitted with a "key" run under a per-key
// checkpoint directory, so cancellation lands them as resumable snapshots
// (symx IntrCheckpoint) instead of lost work; resubmitting the same key
// with "resume" continues where the drain preempted them.
package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symmerge/symx"
)

// Options configures a Server. The zero value listens on a random
// localhost port with no checkpointing.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string

	// CheckpointDir, when non-empty, is the root under which jobs
	// submitted with a key get per-key checkpoint directories, making
	// them drain-safe and resumable.
	CheckpointDir string
	// CheckpointEvery is the per-job snapshot interval (default 2s — a
	// daemon job should lose little work to a drain).
	CheckpointEvery time.Duration

	// MaxJobs bounds concurrently running jobs (default 2); further
	// submissions queue on the semaphore.
	MaxJobs int
	// DefaultTimeout applies to jobs that do not set one (default 60s);
	// MaxTimeout caps what a job may request (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 2 * time.Second
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 2
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 10 * time.Minute
	}
}

// jobInfo is the live-registry entry behind /v1/progress.
type jobInfo struct {
	ID      uint64
	Label   string
	Key     string
	Started time.Time
	Mon     *symx.Monitor
}

// Server is the symxd HTTP service. Create with New, start with Start,
// stop with Drain (graceful) or Close (Drain with a short grace period).
type Server struct {
	opts Options

	ln   net.Listener
	http *http.Server

	// jobsCtx parents every job's context; drainAll cancels it so
	// in-flight jobs checkpoint and return.
	jobsCtx  context.Context
	drainAll context.CancelFunc
	draining atomic.Bool

	sem chan struct{}

	mu   sync.Mutex
	jobs map[uint64]*jobInfo

	nextID atomic.Uint64

	// Counters served at /v1/stats.
	jobsAccepted     atomic.Uint64
	jobsCompleted    atomic.Uint64
	jobsFailed       atomic.Uint64 // compile/config refusals
	jobsTimedOut     atomic.Uint64
	jobsCheckpointed atomic.Uint64
	jobsRejected     atomic.Uint64 // refused because draining
	satCalls         atomic.Uint64
	queries          atomic.Uint64
}

// New builds a server, creating the checkpoint root if one is set. The
// listener is not bound until Start.
func New(opts Options) (*Server, error) {
	opts.fill()
	s := &Server{opts: opts, jobs: make(map[uint64]*jobInfo)}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("daemon: checkpoint dir: %w", err)
		}
	}
	s.sem = make(chan struct{}, opts.MaxJobs)
	s.jobsCtx, s.drainAll = context.WithCancel(context.Background())

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/progress", s.handleProgress)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.http = &http.Server{Handler: mux}
	return s, nil
}

// Start binds the listen address and serves in the background. Binding
// failures are synchronous so a typo'd address fails startup, not the
// first request.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("daemon: listen: %w", err)
	}
	s.ln = ln
	go s.http.Serve(ln)
	return nil
}

// Addr reports the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain performs the SIGTERM shutdown: stop admitting jobs, cancel the
// in-flight ones (checkpoint-keyed jobs snapshot and report resumable),
// and wait for the handlers to finish streaming their results within ctx.
// Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainAll()
	// Shutdown waits for active requests — i.e. for every job handler to
	// observe its cancelled context, checkpoint, and write its final event.
	return s.http.Shutdown(ctx)
}

// Close is Drain with a 10s grace period, for defer-style teardown.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// registerJob adds a job to the live registry; the returned func removes it.
func (s *Server) registerJob(info *jobInfo) func() {
	s.mu.Lock()
	s.jobs[info.ID] = info
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.jobs, info.ID)
		s.mu.Unlock()
	}
}

// checkpointDirFor maps a job key to its per-key snapshot directory, or ""
// when the job has no key. A key is used verbatim as one path element, so
// it must consist of [A-Za-z0-9._-] and not be only dots: any other key is
// refused rather than rewritten, because a rewrite maps distinct keys onto
// one directory, where one key's job overwrites or resumes another key's
// snapshots. A daemon without -checkpoint-dir refuses every key: the key
// would checkpoint nothing, and naming a job is what the label is for.
func (s *Server) checkpointDirFor(key string) (string, error) {
	if key == "" {
		return "", nil
	}
	valid := strings.Trim(key, ".") != ""
	for _, r := range key {
		valid = valid && (r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.')
	}
	if !valid {
		return "", fmt.Errorf("job key %q: a key uses only the characters [A-Za-z0-9._-] and is not only dots", key)
	}
	if s.opts.CheckpointDir == "" {
		return "", fmt.Errorf("job key %q: the daemon runs without -checkpoint-dir, so a key checkpoints nothing (use label to name the job)", key)
	}
	return filepath.Join(s.opts.CheckpointDir, key), nil
}
