package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// closeBuffer wraps a bytes.Buffer so the sink's writer goroutine and the
// test goroutine never race on it: reads only happen after Close returns.
type closeBuffer struct {
	bytes.Buffer
	closed bool
}

func (b *closeBuffer) Close() error { b.closed = true; return nil }

// emitAll exercises every event type once per lane.
func emitAll(o *Observer) {
	o.Fork(1, 2, 0, 3)
	o.MergeAttempt(2, 3, 0, 7)
	o.MergeAccept(2, 3, 4, 5*time.Microsecond)
	o.MergeReject(4, 5, "hot-var", 12.5, 6.25, 3*time.Microsecond)
	qid := o.QueryBegin()
	o.QueryEnd(qid, QuerySession, true, false, 40*time.Microsecond, 10, 25)
	qid = o.QueryBegin()
	o.QueryEnd(qid, QuerySession, false, false, 900*time.Microsecond, 100, 400)
	qid = o.QueryBegin()
	o.QueryEnd(qid, QueryCached, true, false, 0, 0, 0)
	o.FFSelect(7, 1, 2)
	o.Epoch(0, 4)
	o.Checkpoint(0, 4, false)
	o.CorpusEmit(3)
	t0 := o.StepStart()
	o.StepDone(t0, 11)
}

func TestNilLayerIsNoOp(t *testing.T) {
	var r *Run
	if r.NewLane() != nil {
		t.Fatal("nil Run should hand out nil lanes")
	}
	if r.Metrics() != nil {
		t.Fatal("nil Run should have nil metrics")
	}
	var o *Observer
	if o.Active() {
		t.Fatal("nil observer is active")
	}
	emitAll(o) // must not panic
	if !o.StepStart().IsZero() {
		t.Fatal("nil observer read the clock")
	}
	if NewRun(nil, nil) != nil {
		t.Fatal("NewRun(nil, nil) should be nil")
	}
}

func TestMetricsCountersAndHistograms(t *testing.T) {
	met := NewMetrics()
	r := NewRun(nil, met)
	const lanes, rounds = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		o := r.NewLane()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				emitAll(o)
			}
		}()
	}
	wg.Wait()
	sn := met.Snapshot()
	const n = lanes * rounds
	if sn.Schema != "symmerge-metrics/v1" {
		t.Fatalf("schema = %q", sn.Schema)
	}
	for name, got := range map[string]uint64{
		"forks":          sn.Forks,
		"merge_attempts": sn.MergeAttempts,
		"merges":         sn.Merges,
		"merge_rejects":  sn.MergeRejects,
		"ff_selected":    sn.FFSelected,
		"queries_cached": sn.QueriesCached,
		"query_unsat":    sn.QueryUnsat,
		"epochs":         sn.Epochs,
		"checkpoints":    sn.Checkpoints,
		"steps":          sn.Steps,
	} {
		if got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if sn.QueriesSession != 2*n || sn.QuerySat != 2*n {
		t.Errorf("queries_session/query_sat = %d/%d, want %d/%d", sn.QueriesSession, sn.QuerySat, 2*n, 2*n)
	}
	if sn.CorpusTests != 3*n {
		t.Errorf("corpus = %d, want %d", sn.CorpusTests, 3*n)
	}
	if sn.Worklist != 11 {
		t.Errorf("worklist gauge = %d, want the last reported length, 11", sn.Worklist)
	}
	for name, h := range map[string]HistSnap{
		"query_lat_session": sn.QueryLatSession,
		"query_lat_cached":  sn.QueryLatCached,
		"merge_gate":        sn.MergeGate,
	} {
		want := uint64(n)
		if name != "query_lat_cached" {
			want = 2 * n // two session queries; accept + reject both time the gate
		}
		if h.Count != want {
			t.Errorf("%s count = %d, want %d", name, h.Count, want)
		}
	}
	// Half the session queries take 40µs, in the (32,64] bucket, and half
	// 900µs, in the (512,1024] bucket.
	if p50, p90 := sn.QueryLatSession.P50US, sn.QueryLatSession.P90US; p50 != 64 || p90 != 1024 {
		t.Errorf("session p50/p90 = %d/%d, want 64/1024", p50, p90)
	}
	if sn.QueryLatSession.SumUS != 940*n {
		t.Errorf("session sum = %d, want %d", sn.QueryLatSession.SumUS, 940*n)
	}
	// The snapshot must be marshalable (it feeds expvar and /progress).
	if _, err := json.Marshal(sn); err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf closeBuffer
	sink := NewSink(&buf, 0)
	met := NewMetrics()
	r := NewRun(sink, met)
	o := r.NewLane()
	o2 := r.NewLane()
	emitAll(o)
	emitAll(o2)
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !buf.closed {
		t.Fatal("sink did not close the underlying writer")
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	sum, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v\ntrace:\n%s", err, buf.String())
	}
	if sum.Dropped != 0 {
		t.Fatalf("dropped = %d", sum.Dropped)
	}
	if sum.Lanes != 2 {
		t.Fatalf("lanes = %d, want 2", sum.Lanes)
	}
	// Each emitAll writes 14 trace events (StepStart/Done are metrics-only).
	if sum.Events != 28 {
		t.Fatalf("events = %d, want 28\ntrace:\n%s", sum.Events, buf.String())
	}
	if sum.ByType[EvQueryEnd] != 6 || sum.ByType[EvMergeReject] != 2 {
		t.Fatalf("by-type counts: %v", sum.ByType)
	}
	if sink.Events() != 28 {
		t.Fatalf("sink.Events = %d", sink.Events())
	}

	var chrome bytes.Buffer
	if err := ChromeTrace(bytes.NewReader(buf.Bytes()), &chrome); err != nil {
		t.Fatalf("chrome: %v", err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &ct); err != nil {
		t.Fatalf("chrome output not JSON: %v", err)
	}
	spans, metas := 0, 0
	for _, e := range ct.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
		case "M":
			metas++
		}
	}
	// Per lane: 3 query spans + 1 merge + 1 merge-reject = 5 spans.
	if spans != 10 {
		t.Fatalf("chrome spans = %d, want 10", spans)
	}
	if metas != 2 {
		t.Fatalf("chrome thread metadata = %d, want 2", metas)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	head := `{"ev":"trace_begin","us":0,"schema":"symmerge-trace/v1"}` + "\n"
	cases := map[string]string{
		"missing header": `{"ev":"fork","us":1,"w":0,"parent":1,"child":2,"fn":0,"pc":0}` + "\n",
		"bad schema":     `{"ev":"trace_begin","us":0,"schema":"nope/v9"}` + "\n",
		"unknown event":  head + `{"ev":"warp","us":1,"w":0}` + "\n",
		"missing field":  head + `{"ev":"fork","us":1,"w":0,"parent":1}` + "\n",
		"bad class":      head + `{"ev":"query_end","us":1,"w":0,"qid":1,"class":"warp","sat":true,"dur_us":1,"sat_vars":0,"sat_clauses":0}` + "\n",
		"no footer":      head,
		"wrong count":    head + `{"ev":"corpus_emit","us":1,"w":0,"n":1}` + "\n" + `{"ev":"trace_end","us":2,"events":7,"dropped":0}` + "\n",
		"not json":       head + "not json\n",
	}
	for name, trace := range cases {
		if _, err := Validate(strings.NewReader(trace)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	ok := head + `{"ev":"corpus_emit","us":1,"w":0,"n":1}` + "\n" + `{"ev":"trace_end","us":2,"events":1,"dropped":3}` + "\n"
	sum, err := Validate(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if sum.Dropped != 3 || sum.Events != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestSinkBackPressureDropsNotBlocks(t *testing.T) {
	// A maximally stalled sink: the writer goroutine has not consumed a
	// single line (it starts only after the burst), so the bounded channel
	// is the whole slack. Every event past its capacity must drop without
	// blocking the emitter.
	var buf closeBuffer
	sink := &Sink{
		ch:    make(chan []byte, 2),
		start: time.Now(),
		done:  make(chan struct{}),
		w:     bufio.NewWriter(&buf),
	}
	sink.pool.New = func() any { return make([]byte, 0, 192) }
	met := NewMetrics()
	r := NewRun(sink, met)
	o := r.NewLane()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			o.CorpusEmit(1)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("emitter blocked on a stalled sink")
	}
	if got := sink.Drops(); got != 48 {
		t.Fatalf("drops = %d, want 48", got)
	}
	if met.Snapshot().TraceDropped != 48 {
		t.Fatalf("metrics drop counter = %d, want 48", met.Snapshot().TraceDropped)
	}
	go sink.run() // writer catches up; Close drains the 2 queued lines
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := sink.Events() + sink.Drops(); got != 50 {
		t.Fatalf("events+drops = %d, want 50", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	h.observe(0)                    // bucket 0 (le 1)
	h.observe(1 * time.Microsecond) // bucket 1 (le 2)
	h.observe(3 * time.Microsecond) // bucket 2 (le 4)
	h.observe(60 * time.Second)     // clamped to the open-ended last bucket
	sn := h.snapshot()
	if sn.Count != 4 {
		t.Fatalf("count = %d", sn.Count)
	}
	if len(sn.Buckets) != 4 {
		t.Fatalf("buckets = %+v", sn.Buckets)
	}
	if sn.Buckets[0].LeUS != 1 || sn.Buckets[0].N != 1 {
		t.Fatalf("bucket 0 = %+v", sn.Buckets[0])
	}
	if last := sn.Buckets[3]; last.N != 4 {
		t.Fatalf("cumulative last bucket = %+v", last)
	}
	if sn.P50US != 2 {
		t.Fatalf("p50 = %d, want 2", sn.P50US)
	}
}
