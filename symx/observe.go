package symx

// The public face of the observability layer (internal/obs): metrics
// re-exports for embedders, and the Monitor — a live aggregate view over
// every engine a run spins up, safe to sample from any goroutine while the
// exploration is hot. cmd/symx serves Monitor.Progress at -debug-addr
// /progress and prints it on the -progress cadence.

import (
	"sync"
	"time"

	"symmerge/internal/core"
	"symmerge/internal/obs"
)

// Metrics is the sharded counter/gauge/histogram registry the engines feed
// when Config.Metrics is set. Snapshot() is safe to call concurrently with
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

// Monitor reports live progress of the engines attached to it: each Run
// given the Monitor as Config.Monitor attaches its one engine. Set it
// before Run and sample Progress() from any goroutine — engines publish
// immutable snapshots, so reads never block the exploration.
//
// Counters are summed over attached engines, so a Monitor shared by
// several runs reports their total; coverage is the union of the engines'
// bitmaps. A resumed checkpointed run reports this invocation's progress
// only: the snapshot's earlier counters reach its Result, not the
// Monitor.
type Monitor struct {
	mu      sync.Mutex
	engines []*core.Engine
	start   time.Time
}

// NewMonitor returns an empty monitor. Attaching happens inside Run.
func NewMonitor() *Monitor { return &Monitor{start: time.Now()} }

// attach registers an engine; nil-safe on both sides so the factory can
// call it unconditionally.
func (m *Monitor) attach(e *core.Engine) {
	if m == nil || e == nil {
		return
	}
	m.mu.Lock()
	if m.start.IsZero() {
		m.start = time.Now()
	}
	m.engines = append(m.engines, e)
	m.mu.Unlock()
}

// Progress is a point-in-time aggregate over a run's engines — the
// /progress JSON document.
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

// Progress samples every attached engine's latest published snapshot and
// folds them. Nil-safe: a nil monitor reports an empty document.
func (m *Monitor) Progress() Progress {
	p := Progress{Schema: progressSchema}
	if m == nil {
		return p
	}
	m.mu.Lock()
	engines := append([]*core.Engine(nil), m.engines...)
	start := m.start
	m.mu.Unlock()

	var cover []bool
	for _, e := range engines {
		st, mask, wl := e.LiveProgress()
		p.Steps += st.Steps
		p.Instructions += st.Instructions
		p.Forks += st.Forks
		p.MergeAttempts += st.MergeAttempts
		p.Merges += st.Merges
		p.FFSelected += st.FFSelected
		p.PathsCompleted += st.PathsCompleted
		p.ErrorsFound += st.ErrorsFound
		p.Worklist += wl
		p.Queries += st.Solver.Queries
		p.CacheHits += st.Solver.ModelReuseHits
		p.SATCalls += st.Solver.SATCalls
		if st.TotalInstrs > p.TotalInstrs {
			p.TotalInstrs = st.TotalInstrs
		}
		if len(mask) > len(cover) {
			grown := make([]bool, len(mask))
			copy(grown, cover)
			cover = grown
		}
		for i, c := range mask {
			if c {
				cover[i] = true
			}
		}
	}
	p.Engines = len(engines)
	for _, c := range cover {
		if c {
			p.CoveredInstrs++
		}
	}
	if p.TotalInstrs > 0 {
		p.CoveragePct = 100 * float64(p.CoveredInstrs) / float64(p.TotalInstrs)
	}
	if !start.IsZero() {
		p.ElapsedSeconds = time.Since(start).Seconds()
	}
	return p
}
