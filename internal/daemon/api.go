package daemon

// The HTTP/JSON wire surface: job submission (streaming JSONL response),
// the live progress view, and the stats document CI asserts against.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"symmerge/internal/corpus"
	"symmerge/symx"
)

const (
	// StatsSchema versions the /v1/stats document.
	StatsSchema = "symmerge-symxd-stats/v1"
	// ProgressSchema versions the /v1/progress document.
	ProgressSchema = "symmerge-symxd-progress/v1"
)

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	// Source is the MiniC program text (required).
	Source string `json:"source"`
	// Label names the job in progress views and logs.
	Label string `json:"label,omitempty"`
	// Key gives the job a stable per-key checkpoint directory under the
	// daemon's -checkpoint-dir: a drain preempts it into a resumable
	// snapshot, and resubmitting the same Key with Resume continues it.
	// A key is made of the characters [A-Za-z0-9._-] and is not only
	// dots; any other key is refused, so distinct keys never share a
	// directory. A daemon without -checkpoint-dir refuses any key.
	Key string `json:"key,omitempty"`
	// Resume restores the newest valid snapshot under Key before
	// exploring (the job starts fresh when none exists). It needs a Key;
	// without one the job is refused.
	Resume bool `json:"resume,omitempty"`

	// Merge is "none", "ssm", "dsm", or "func" (default "dsm").
	Merge string `json:"merge,omitempty"`
	// QCE gates merging on the query-count similarity relation
	// (default true under a merging regime).
	QCE *bool `json:"qce,omitempty"`

	// Symbolic environment (defaults: 2 args × 2 chars, no stdin).
	NArgs    int `json:"nargs,omitempty"`
	ArgLen   int `json:"arglen,omitempty"`
	StdinLen int `json:"stdin_len,omitempty"`

	// TimeoutSec bounds the job's wall clock (default and cap are daemon
	// options); MaxSteps bounds engine steps (0 = unlimited).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	MaxSteps   uint64  `json:"max_steps,omitempty"`

	// Tests streams every canonical corpus entry back as a "test" event.
	Tests bool `json:"tests,omitempty"`
}

// Event is one line of the streaming job response. Event is "accepted",
// "test", "result", or "error"; the other fields are event-specific.
type Event struct {
	Event string `json:"event"`
	ID    uint64 `json:"id,omitempty"`
	Error string `json:"error,omitempty"`

	// "test" events: one canonical corpus entry.
	Args   []string `json:"args,omitempty"`
	Stdin  string   `json:"stdin,omitempty"`
	Output string   `json:"output,omitempty"`
	Exit   int64    `json:"exit,omitempty"`
	IsErr  bool     `json:"is_err,omitempty"`
	Msg    string   `json:"msg,omitempty"`

	// "result" event.
	*JobResult `json:"result,omitempty"`
}

// JobResult summarizes a finished (or preempted) job.
type JobResult struct {
	Completed bool `json:"completed"`
	// Interrupted is "none", "budget", "context", or "checkpoint"; a
	// "checkpoint" stop is resumable by resubmitting the same key with
	// resume set.
	Interrupted string `json:"interrupted"`
	// Checkpointed is true when the stop left a resumable snapshot.
	Checkpointed bool `json:"checkpointed"`
	// TimedOut distinguishes a per-job deadline from a daemon drain.
	TimedOut bool `json:"timed_out,omitempty"`

	Paths       string  `json:"paths"` // multiplicity census (big integer)
	ExactPaths  uint64  `json:"exact_paths,omitempty"`
	ErrorsFound int     `json:"errors_found"`
	Coverage    float64 `json:"coverage"`
	Steps       uint64  `json:"steps"`
	Tests       int     `json:"tests"`

	// CorpusDigest is a deterministic hash of the canonical test set —
	// equal digests mean byte-identical corpora, which is how repeat and
	// resume parity is asserted end to end.
	CorpusDigest string `json:"corpus_digest"`

	Queries  uint64 `json:"queries"`
	SATCalls uint64 `json:"sat_calls"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// StatsDoc is the GET /v1/stats document — the daemon's own expvar-style
// counter surface (served on its own mux so several daemons coexist in
// one test process).
type StatsDoc struct {
	Schema string `json:"schema"`

	JobsAccepted     uint64 `json:"jobs_accepted"`
	JobsCompleted    uint64 `json:"jobs_completed"`
	JobsFailed       uint64 `json:"jobs_failed"`
	JobsTimedOut     uint64 `json:"jobs_timed_out"`
	JobsCheckpointed uint64 `json:"jobs_checkpointed"`
	JobsRejected     uint64 `json:"jobs_rejected"`
	JobsActive       int    `json:"jobs_active"`

	// Aggregate solver counters over finished jobs.
	Queries  uint64 `json:"queries"`
	SATCalls uint64 `json:"sat_calls"`
}

// ProgressDoc is the GET /v1/progress document: the fold of every
// in-flight job's live monitor.
type ProgressDoc struct {
	Schema string        `json:"schema"`
	Active int           `json:"active"`
	Jobs   []JobProgress `json:"jobs"`
}

// JobProgress is one in-flight job's live view.
type JobProgress struct {
	ID             uint64        `json:"id"`
	Label          string        `json:"label,omitempty"`
	Key            string        `json:"key,omitempty"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	Progress       symx.Progress `json:"progress"`
}

// corpusDigest hashes the canonical test set deterministically: tests are
// keyed by input hash, sorted, and folded with their observable behavior.
// Two runs with equal digests produced byte-identical corpora.
func corpusDigest(tests []symx.TestCase) string {
	lines := make([]string, len(tests))
	for i, tc := range tests {
		lines[i] = fmt.Sprintf("%s|%x|%d|%v|%s",
			corpus.InputID(tc.Args, tc.Stdin), tc.Output, tc.Exit, tc.IsErr, tc.Msg)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jobConfig lowers a request to a symx.Config (the context and monitor are
// attached by the handler).
func (s *Server) jobConfig(req *JobRequest) (symx.Config, error) {
	cfg := symx.Config{
		NArgs:        req.NArgs,
		ArgLen:       req.ArgLen,
		StdinLen:     req.StdinLen,
		MaxSteps:     req.MaxSteps,
		CollectTests: true,
	}
	cfg.CanonicalTests = true
	// Uncap the canonical set: the corpus digest must cover every test,
	// not an order-dependent 256-test prefix of them.
	cfg.MaxTests = 1 << 20
	if cfg.NArgs == 0 && cfg.StdinLen == 0 {
		cfg.NArgs = 2
	}
	if cfg.NArgs > 0 && cfg.ArgLen == 0 {
		cfg.ArgLen = 2
	}
	switch req.Merge {
	case "", "dsm":
		cfg.Merge = symx.MergeDSM
	case "none":
		cfg.Merge = symx.MergeNone
	case "ssm":
		cfg.Merge = symx.MergeSSM
	case "func":
		cfg.Merge = symx.MergeFunc
	default:
		return cfg, fmt.Errorf("unknown merge mode %q (none|ssm|dsm|func)", req.Merge)
	}
	if req.QCE != nil {
		cfg.UseQCE = *req.QCE
	} else {
		cfg.UseQCE = cfg.Merge != symx.MergeNone
	}
	if cfg.Merge != symx.MergeNone {
		cfg.TrackExactPaths = true
	}
	dir, err := s.checkpointDirFor(req.Key)
	if err != nil {
		return cfg, err
	}
	if req.Resume && dir == "" {
		return cfg, fmt.Errorf("resume: the job has no key, so there is no snapshot to resume from")
	}
	if dir != "" {
		cfg.CheckpointDir = dir
		cfg.CheckpointEvery = s.opts.CheckpointEvery
		cfg.Resume = req.Resume
	}
	return cfg, nil
}

// writeJSONError terminates a request with a one-line error document
// before any streaming started.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(Event{Event: "error", Error: msg})
}

// handleJobs is POST /v1/jobs: compile, queue on the job semaphore, run
// under the per-job deadline, and stream accepted/test/result events as
// JSON lines.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		s.jobsRejected.Add(1)
		writeJSONError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	// A field the daemon does not know (a typo, or an option it no longer
	// offers) is refused by name rather than silently dropped.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Source == "" {
		writeJSONError(w, http.StatusBadRequest, "empty source")
		return
	}
	p, err := symx.Compile(req.Source)
	if err != nil {
		s.jobsFailed.Add(1)
		writeJSONError(w, http.StatusBadRequest, "compile: "+err.Error())
		return
	}
	cfg, err := s.jobConfig(&req)
	if err != nil {
		s.jobsFailed.Add(1)
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Queue: a slot, the client giving up, or a drain — whichever first.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		return
	case <-s.jobsCtx.Done():
		s.jobsRejected.Add(1)
		writeJSONError(w, http.StatusServiceUnavailable, "draining")
		return
	}

	id := s.nextID.Add(1)
	s.jobsAccepted.Add(1)

	// Per-job deadline under the drain context: a drain cancels the job
	// early; its own timeout otherwise.
	timeout := s.opts.DefaultTimeout
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	if timeout > s.opts.MaxTimeout {
		timeout = s.opts.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(s.jobsCtx, timeout)
	defer cancel()
	cfg.Context = ctx

	mon := symx.NewMonitor()
	cfg.Monitor = mon
	unregister := s.registerJob(&jobInfo{ID: id, Label: req.Label, Key: req.Key,
		Started: time.Now(), Mon: mon})
	defer unregister()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ev Event) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(Event{Event: "accepted", ID: id})

	res := symx.Run(p, cfg)

	if res.ConfigErr != nil {
		s.jobsFailed.Add(1)
		emit(Event{Event: "error", ID: id, Error: "config: " + res.ConfigErr.Error()})
		return
	}

	s.jobsCompleted.Add(1)
	s.queries.Add(res.Stats.Solver.Queries)
	s.satCalls.Add(res.Stats.Solver.SATCalls)

	checkpointed := res.Interrupted == symx.IntrCheckpoint && res.CheckpointErr == nil
	if checkpointed {
		s.jobsCheckpointed.Add(1)
	}
	// The job's own deadline fired iff its context expired while the
	// daemon-wide drain context did not.
	timedOut := !res.Completed && ctx.Err() != nil && s.jobsCtx.Err() == nil
	if timedOut {
		s.jobsTimedOut.Add(1)
	}

	if req.Tests {
		for _, tc := range res.Tests {
			args := make([]string, len(tc.Args))
			for i, a := range tc.Args {
				args[i] = string(a)
			}
			emit(Event{Event: "test", ID: id, Args: args, Stdin: string(tc.Stdin),
				Output: string(tc.Output), Exit: tc.Exit, IsErr: tc.IsErr, Msg: tc.Msg})
		}
	}

	emit(Event{Event: "result", ID: id, JobResult: &JobResult{
		Completed:      res.Completed,
		Interrupted:    res.Interrupted.String(),
		Checkpointed:   checkpointed,
		TimedOut:       timedOut,
		Paths:          res.Stats.PathsMult.String(),
		ExactPaths:     res.Stats.ExactPaths,
		ErrorsFound:    res.Stats.ErrorsFound,
		Coverage:       res.Stats.Coverage(),
		Steps:          res.Stats.Steps,
		Tests:          len(res.Tests),
		CorpusDigest:   corpusDigest(res.Tests),
		Queries:        res.Stats.Solver.Queries,
		SATCalls:       res.Stats.Solver.SATCalls,
		ElapsedSeconds: res.Stats.ElapsedSeconds,
	}})
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	doc := StatsDoc{Schema: StatsSchema, JobsActive: len(s.jobs)}
	s.mu.Unlock()
	doc.JobsAccepted = s.jobsAccepted.Load()
	doc.JobsCompleted = s.jobsCompleted.Load()
	doc.JobsFailed = s.jobsFailed.Load()
	doc.JobsTimedOut = s.jobsTimedOut.Load()
	doc.JobsCheckpointed = s.jobsCheckpointed.Load()
	doc.JobsRejected = s.jobsRejected.Load()
	doc.Queries = s.queries.Load()
	doc.SATCalls = s.satCalls.Load()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// handleProgress is GET /v1/progress.
func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	infos := make([]*jobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		infos = append(infos, j)
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	doc := ProgressDoc{Schema: ProgressSchema, Active: len(infos), Jobs: []JobProgress{}}
	for _, j := range infos {
		doc.Jobs = append(doc.Jobs, JobProgress{
			ID: j.ID, Label: j.Label, Key: j.Key,
			ElapsedSeconds: time.Since(j.Started).Seconds(),
			Progress:       j.Mon.Progress(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
