package obs

import (
	"expvar"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets covers 1µs..2^25µs (~33s) in power-of-two buckets; bucket i
// counts durations in [2^i, 2^(i+1)) µs, the last bucket is open-ended.
const histBuckets = 26

// histogram is a fixed-bucket latency histogram: lock-free observe (one
// atomic add into a power-of-two µs bucket, one into the sum).
type histogram struct {
	buckets [histBuckets]atomic.Uint64
	sumUS   atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	b := bits.Len64(us) // 0→0, [2^i,2^(i+1))→i+1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.sumUS.Add(us)
}

// HistBucket is one non-empty histogram bucket: N observations at most
// LeUS microseconds (cumulative style, like Prometheus "le").
type HistBucket struct {
	LeUS uint64 `json:"le_us"`
	N    uint64 `json:"n"`
}

// HistSnap is a histogram snapshot with coarse percentile estimates (the
// upper bound of the bucket the quantile falls in).
type HistSnap struct {
	Count   uint64       `json:"count"`
	SumUS   uint64       `json:"sum_us"`
	P50US   uint64       `json:"p50_us"`
	P90US   uint64       `json:"p90_us"`
	P99US   uint64       `json:"p99_us"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

func (h *histogram) snapshot() HistSnap {
	var counts [histBuckets]uint64
	var sn HistSnap
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		sn.Count += counts[i]
	}
	sn.SumUS = h.sumUS.Load()
	if sn.Count == 0 {
		return sn
	}
	bound := func(i int) uint64 {
		if i == 0 {
			return 1
		}
		return uint64(1) << i
	}
	quantile := func(q float64) uint64 {
		target := uint64(q * float64(sn.Count))
		if target == 0 {
			target = 1
		}
		var cum uint64
		for i, n := range counts {
			cum += n
			if cum >= target {
				return bound(i)
			}
		}
		return bound(histBuckets - 1)
	}
	sn.P50US, sn.P90US, sn.P99US = quantile(0.50), quantile(0.90), quantile(0.99)
	var cum uint64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		cum += n
		sn.Buckets = append(sn.Buckets, HistBucket{LeUS: bound(i), N: cum})
	}
	return sn
}

// Metrics is the live metrics registry: counters, the worklist gauge,
// and latency histograms, all updated lock-free from the engines' goroutines
// and snapshotable from any other goroutine at any time. One registry serves
// every engine of the runs that share it.
type Metrics struct {
	steps         atomic.Uint64
	forks         atomic.Uint64
	mergeAttempts atomic.Uint64
	merges        atomic.Uint64
	mergeRejects  atomic.Uint64
	ffSelected    atomic.Uint64
	queries       [numQueryClasses]atomic.Uint64
	querySat      atomic.Uint64
	queryUnsat    atomic.Uint64
	queryErr      atomic.Uint64
	epochs        atomic.Uint64
	checkpoints   atomic.Uint64
	corpusTests   atomic.Uint64
	traceDropped  atomic.Uint64
	// worklist is the worklist length the engine reported last.
	worklist atomic.Uint64

	queryLat  [numQueryClasses]histogram
	mergeGate histogram
	stepLat   histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) noteTraceDrop() { m.traceDropped.Add(1) }

// MetricsSnap is a point-in-time JSON view of the registry (schema
// symmerge-metrics/v1). Counters are monotonic totals since the registry
// was created; the snapshot is not atomic across fields (each field is
// individually consistent).
type MetricsSnap struct {
	Schema string `json:"schema"`

	Steps         uint64 `json:"steps"`
	Forks         uint64 `json:"forks"`
	MergeAttempts uint64 `json:"merge_attempts"`
	Merges        uint64 `json:"merges"`
	MergeRejects  uint64 `json:"merge_rejects"`
	FFSelected    uint64 `json:"ff_selected"`

	QueriesSession uint64 `json:"queries_session"`
	QueriesCached  uint64 `json:"queries_cached"`
	QuerySat       uint64 `json:"query_sat"`
	QueryUnsat     uint64 `json:"query_unsat"`
	QueryErr       uint64 `json:"query_err"`

	Epochs      uint64 `json:"epochs"`
	Checkpoints uint64 `json:"checkpoints"`
	CorpusTests uint64 `json:"corpus_tests"`

	TraceDropped uint64 `json:"trace_dropped"`
	Worklist     uint64 `json:"worklist"`

	QueryLatSession HistSnap `json:"query_lat_session"`
	QueryLatCached  HistSnap `json:"query_lat_cached"`
	// QueryLatOneShot is always empty: no query class feeds it any more.
	// It stays because cmd/symbench, a separately versioned module, still
	// sums it into its query-time figure.
	QueryLatOneShot HistSnap `json:"query_lat_oneshot"`
	// QueryLatSummary is always empty: no query class feeds it any more.
	// It stays because cmd/symbench, a separately versioned module, still
	// sums it into its query-time figure.
	QueryLatSummary HistSnap `json:"query_lat_summary"`
	MergeGate       HistSnap `json:"merge_gate"`
	StepLat         HistSnap `json:"step_lat"`
}

// Snapshot captures the registry. Safe to call from any goroutine while
// engines are updating it.
func (m *Metrics) Snapshot() *MetricsSnap {
	if m == nil {
		return nil
	}
	return &MetricsSnap{
		Schema:         "symmerge-metrics/v1",
		Steps:          m.steps.Load(),
		Forks:          m.forks.Load(),
		MergeAttempts:  m.mergeAttempts.Load(),
		Merges:         m.merges.Load(),
		MergeRejects:   m.mergeRejects.Load(),
		FFSelected:     m.ffSelected.Load(),
		QueriesSession: m.queries[QuerySession].Load(),
		QueriesCached:  m.queries[QueryCached].Load(),
		QuerySat:       m.querySat.Load(),
		QueryUnsat:     m.queryUnsat.Load(),
		QueryErr:       m.queryErr.Load(),

		Epochs:          m.epochs.Load(),
		Checkpoints:     m.checkpoints.Load(),
		CorpusTests:     m.corpusTests.Load(),
		TraceDropped:    m.traceDropped.Load(),
		Worklist:        m.worklist.Load(),
		QueryLatSession: m.queryLat[QuerySession].snapshot(),
		QueryLatCached:  m.queryLat[QueryCached].snapshot(),
		MergeGate:       m.mergeGate.snapshot(),
		StepLat:         m.stepLat.snapshot(),
	}
}

var expvarOnce sync.Once

// PublishExpvar exports the registry as the expvar variable
// "symmerge.metrics" (importing this package already registers expvar's
// /debug/vars handler on http.DefaultServeMux). Idempotent: expvar
// variables cannot be re-published, so only the first registry wins for
// the life of the process.
func PublishExpvar(m *Metrics) {
	expvarOnce.Do(func() {
		expvar.Publish("symmerge.metrics", expvar.Func(func() any { return m.Snapshot() }))
	})
}
