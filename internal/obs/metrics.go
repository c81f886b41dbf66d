package obs

import (
	"expvar"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// counterShards is the stripe count of every counter: lanes hash onto
// stripes so concurrent engines don't contend on one cache line. A power
// of two (the add path masks, never mods).
const counterShards = 8

// gaugeLanes bounds the per-lane gauge array; lanes beyond it alias, which
// only matters for fleets wider than any configuration we run.
const gaugeLanes = 64

// padded is a cache-line-padded atomic cell so neighbouring stripes never
// false-share.
type padded struct {
	v atomic.Uint64
	_ [56]byte
}

type counter struct{ s [counterShards]padded }

func (c *counter) add(lane int, n uint64) {
	c.s[lane&(counterShards-1)].v.Add(n)
}

func (c *counter) load() uint64 {
	var t uint64
	for i := range c.s {
		t += c.s[i].v.Load()
	}
	return t
}

// gauge keeps one last-written value per lane; Snapshot reports the sum
// across lanes (e.g. total frontier length across engines).
type gauge struct{ s [gaugeLanes]padded }

func (g *gauge) set(lane int, v uint64) {
	g.s[lane&(gaugeLanes-1)].v.Store(v)
}

func (g *gauge) load() uint64 {
	var t uint64
	for i := range g.s {
		t += g.s[i].v.Load()
	}
	return t
}

// histBuckets covers 1µs..2^25µs (~33s) in power-of-two buckets; bucket i
// counts durations in [2^i, 2^(i+1)) µs, the last bucket is open-ended.
const histBuckets = 26

// histogram is a fixed-bucket latency histogram: lock-free observe (one
// atomic add into a power-of-two µs bucket, one into the sum), snapshot by
// summing stripes.
type histogram struct {
	buckets [histBuckets]counter
	sumUS   counter
}

func (h *histogram) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	b := bits.Len64(us) // 0→0, [2^i,2^(i+1))→i+1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].add(0, 1)
	h.sumUS.add(0, us)
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
		counts[i] = h.buckets[i].load()
		sn.Count += counts[i]
	}
	sn.SumUS = h.sumUS.load()
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

// Metrics is the live metrics registry: sharded counters, per-lane gauges,
// and latency histograms, all updated lock-free from the engines' goroutines
// and snapshotable from any other goroutine at any time. One registry serves
// every engine of the runs that share it.
type Metrics struct {
	steps         counter
	forks         counter
	mergeAttempts counter
	merges        counter
	mergeRejects  counter
	ffSelected    counter
	queries       [numQueryClasses]counter
	querySat      counter
	queryUnsat    counter
	queryErr      counter
	epochs        counter
	checkpoints   counter
	corpusTests   counter
	traceDropped  counter
	worklist      gauge

	queryLat  [numQueryClasses]histogram
	mergeGate histogram
	stepLat   histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) noteTraceDrop() { m.traceDropped.add(0, 1) }

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
		Steps:          m.steps.load(),
		Forks:          m.forks.load(),
		MergeAttempts:  m.mergeAttempts.load(),
		Merges:         m.merges.load(),
		MergeRejects:   m.mergeRejects.load(),
		FFSelected:     m.ffSelected.load(),
		QueriesSession: m.queries[QuerySession].load(),
		QueriesCached:  m.queries[QueryCached].load(),
		QuerySat:       m.querySat.load(),
		QueryUnsat:     m.queryUnsat.load(),
		QueryErr:       m.queryErr.load(),

		Epochs:          m.epochs.load(),
		Checkpoints:     m.checkpoints.load(),
		CorpusTests:     m.corpusTests.load(),
		TraceDropped:    m.traceDropped.load(),
		Worklist:        m.worklist.load(),
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
