// Package daemon implements symxd, the long-lived symbolic-execution
// service behind cmd/symxd. It accepts MiniC programs over HTTP, runs each
// as one symx exploration job under a per-job deadline, and streams the
// result — census, solver counters, and the canonical corpus entries — back
// as JSON lines.
//
// What makes the daemon more than a loop around symx.Run is the shared
// symx.Domain: every job interns expressions into one builder and shares
// the counterexample cache, optionally backed by a persistent
// internal/store directory so knowledge survives restarts. Two disciplines
// keep that sound and bounded:
//
//   - Soundness: the domain only ever carries completed solver verdicts,
//     so a warm daemon produces byte-identical corpus digests to a cold
//     one (pinned by symx's differential tests). Nothing a job observes
//     depends on which jobs ran before it.
//
//   - Boundedness: the builder's intern table and the fingerprint memo only
//     grow. Once the table passes Options.RotateNodes and no job holds the
//     domain, the daemon flushes it to the store and rotates to a fresh
//     domain over the same store; the retired builder, cache, and memo
//     become garbage at that instant. symx.DomainsReclaimed (served as
//     builders_reclaimed in /v1/stats) proves the collector actually frees
//     them — the leak test drives a sustained submit loop and watches both
//     that counter and the live node count.
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

	"symmerge/internal/store"
	"symmerge/symx"
)

// Options configures a Server. The zero value listens on a random
// localhost port with an in-memory domain and no checkpointing.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string

	// StoreDir, when non-empty, backs the domain with a persistent store
	// at that directory: counterexample verdicts and blasted-group verdicts
	// survive daemon restarts.
	StoreDir string
	// StoreTag is the engine canonical-form generation recorded in
	// persisted segments (default store.DefaultTag).
	StoreTag string

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

	// RotateNodes is the builder intern-table watermark above which the
	// daemon rotates to a fresh domain between jobs (default 1<<20 nodes;
	// negative disables rotation).
	RotateNodes int
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.StoreTag == "" {
		o.StoreTag = store.DefaultTag
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
	if o.RotateNodes == 0 {
		o.RotateNodes = 1 << 20
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
	st   *store.Store

	ln   net.Listener
	http *http.Server

	// jobsCtx parents every job's context; drainAll cancels it so
	// in-flight jobs checkpoint and return.
	jobsCtx  context.Context
	drainAll context.CancelFunc
	draining atomic.Bool

	sem chan struct{}

	mu   sync.Mutex
	dom  *symx.Domain
	jobs map[uint64]*jobInfo

	nextID atomic.Uint64

	// Counters served at /v1/stats.
	jobsAccepted     atomic.Uint64
	jobsCompleted    atomic.Uint64
	jobsFailed       atomic.Uint64 // compile/config refusals
	jobsTimedOut     atomic.Uint64
	jobsCheckpointed atomic.Uint64
	jobsRejected     atomic.Uint64 // refused because draining
	domainsRotated   atomic.Uint64
	stableHits       atomic.Uint64 // Σ solver whole-query stable hits
	stableGroupHits  atomic.Uint64 // Σ solver group-level stable hits
	cexCacheHits     atomic.Uint64 // Σ in-process cex cache hits
	satCalls         atomic.Uint64
	queries          atomic.Uint64
}

// New builds a server: opens (or refuses) the persistent store and seeds
// the first domain from it. The listener is not bound until Start.
func New(opts Options) (*Server, error) {
	opts.fill()
	s := &Server{opts: opts, jobs: make(map[uint64]*jobInfo)}
	if opts.StoreDir != "" {
		st, err := store.Open(opts.StoreDir, store.Options{Tag: opts.StoreTag})
		if err != nil {
			return nil, fmt.Errorf("daemon: store: %w", err)
		}
		s.st = st
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("daemon: checkpoint dir: %w", err)
		}
	}
	s.dom = symx.NewDomain(s.st)
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
// wait for the handlers to finish streaming their results within ctx, then
// flush the domain to the persistent store. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainAll()
	// Shutdown waits for active requests — i.e. for every job handler to
	// observe its cancelled context, checkpoint, and write its final event.
	err := s.http.Shutdown(ctx)
	s.mu.Lock()
	dom := s.dom
	s.mu.Unlock()
	if dom != nil {
		if ferr := dom.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// Close is Drain with a 10s grace period, for defer-style teardown.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// acquireDomain hands the caller the current domain with a reference
// held; the caller must Release it when the job ends.
func (s *Server) acquireDomain() *symx.Domain {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dom.Acquire()
	return s.dom
}

// maybeRotate retires the current domain once the intern table passes the
// watermark and no job holds it: flush to the store, swap in a fresh
// domain over the same store, and drop the old pointer — the builder, its
// memo, and the cex cache become garbage here. Called after each job.
func (s *Server) maybeRotate() {
	if s.opts.RotateNodes < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dom.NumNodes() < s.opts.RotateNodes || s.dom.Refs() != 0 {
		return
	}
	// Refs()==0 under s.mu means no job holds the domain and none can
	// acquire it concurrently (acquireDomain also locks s.mu).
	old := s.dom
	if s.st != nil {
		old.Flush() // best-effort: rotation must not fail the daemon
	}
	s.dom = symx.NewDomain(s.st)
	s.domainsRotated.Add(1)
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

// checkpointDirFor maps a job key to its stable per-key snapshot
// directory, or "" when checkpointing is off. Keys are flattened to a
// filesystem-safe alphabet so a hostile key cannot escape the root.
func (s *Server) checkpointDirFor(key string) string {
	if key == "" || s.opts.CheckpointDir == "" {
		return ""
	}
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, key)
	if safe == "" || strings.Trim(safe, ".") == "" {
		safe = "job"
	}
	return filepath.Join(s.opts.CheckpointDir, safe)
}
