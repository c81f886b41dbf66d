package symx

// The public face of the observability layer (internal/obs): metrics
// re-exports for embedders, and the Monitor — a live view of a run's
// engine, safe to sample from any goroutine while the exploration is hot.
// cmd/symx serves Monitor.Progress at -debug-addr /progress and prints it
// on the -progress cadence.

import (
	"sync/atomic"

	"symmerge/internal/core"
	"symmerge/internal/obs"
)

// Metrics is the counter/gauge/histogram registry the engine feeds when
// Config.Metrics is set. Snapshot() is safe to call concurrently with
// the run; PublishMetrics exposes it over expvar.
type Metrics = obs.Metrics

// MetricsSnap is one point-in-time JSON-marshalable metrics snapshot.
type MetricsSnap = obs.MetricsSnap

// NewMetrics returns an empty metrics registry for Config.Metrics.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// PublishMetrics registers m as the expvar variable "symmerge.metrics"
// (idempotent; only the first registry wins, matching expvar's
// publish-once contract).
func PublishMetrics(m *Metrics) { obs.PublishExpvar(m) }

// progressSchema versions the Progress JSON shape.
const progressSchema = "symmerge-progress/v1"

// Monitor reports live progress of the one engine a Run given it as
// Config.Monitor attaches. Set it before Run and sample Progress() from any
// goroutine: the engine publishes immutable snapshots, so reads never
// block the exploration. A Monitor follows one run; attaching a second
// engine replaces the first. A resumed checkpointed run's engine counts on
// from its snapshot, so the Monitor reports the counters and elapsed time
// of the whole exploration, as the run's Result does.
type Monitor struct {
	engine atomic.Pointer[core.Engine]
}

// NewMonitor returns an empty monitor. Attaching happens inside Run.
func NewMonitor() *Monitor { return &Monitor{} }

// attach registers the run's engine; nil-safe on both sides so the factory
// can call it unconditionally.
func (m *Monitor) attach(e *core.Engine) {
	if m != nil && e != nil {
		m.engine.Store(e)
	}
}

// Progress is a point-in-time view of a run's engine — the /progress JSON
// document. Engines is 1 once the engine is attached, 0 before.
type Progress struct {
	Schema         string  `json:"schema"`
	Engines        int     `json:"engines"`
	Steps          uint64  `json:"steps"`
	Instructions   uint64  `json:"instructions"`
	Forks          uint64  `json:"forks"`
	MergeAttempts  uint64  `json:"merge_attempts"`
	Merges         uint64  `json:"merges"`
	FFSelected     uint64  `json:"ff_selected"`
	PathsCompleted uint64  `json:"paths_completed"`
	ErrorsFound    int     `json:"errors_found"`
	Worklist       int     `json:"worklist"`
	Queries        uint64  `json:"queries"`
	CacheHits      uint64  `json:"cache_hits"` // model-reuse hits
	SATCalls       uint64  `json:"sat_calls"`
	CoveredInstrs  int     `json:"covered_instrs"`
	TotalInstrs    int     `json:"total_instrs"`
	CoveragePct    float64 `json:"coverage_pct"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// Progress samples the attached engine's latest published snapshot; every
// field, the elapsed time included, comes from that one snapshot. Nil-safe:
// a nil monitor reports an empty document.
func (m *Monitor) Progress() Progress {
	p := Progress{Schema: progressSchema}
	if m == nil {
		return p
	}
	e := m.engine.Load()
	if e == nil {
		return p
	}
	st, mask, wl := e.LiveProgress()
	p.Engines = 1
	p.Steps = st.Steps
	p.Instructions = st.Instructions
	p.Forks = st.Forks
	p.MergeAttempts = st.MergeAttempts
	p.Merges = st.Merges
	p.FFSelected = st.FFSelected
	p.PathsCompleted = st.PathsCompleted
	p.ErrorsFound = st.ErrorsFound
	p.Worklist = wl
	p.Queries = st.Solver.Queries
	p.CacheHits = st.Solver.ModelReuseHits
	p.SATCalls = st.Solver.SATCalls
	p.TotalInstrs = st.TotalInstrs
	p.ElapsedSeconds = st.ElapsedSeconds
	for _, c := range mask {
		if c {
			p.CoveredInstrs++
		}
	}
	if p.TotalInstrs > 0 {
		p.CoveragePct = 100 * float64(p.CoveredInstrs) / float64(p.TotalInstrs)
	}
	return p
}
