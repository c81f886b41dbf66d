// Package obs is the exploration observability layer: a structured JSONL
// trace-event stream (schema symmerge-trace/v1), a registry of atomic
// counters, a gauge and fixed-bucket latency histograms, and the
// converters/validators the tooling builds on (Chrome trace-event export,
// per-line schema validation).
//
// The design constraint is that observability must never perturb the
// exploration it observes:
//
//   - A disabled layer costs one predictable nil-check branch per hook: a
//     nil *Run hands out nil *Observer lanes, and every Observer method is
//     a no-op on a nil receiver.
//   - The trace sink never blocks an engine. Events are encoded in the
//     emitting goroutine into pooled buffers and handed to a background
//     writer over a bounded channel; when the channel is full the event is
//     dropped and counted (Sink.Drops, the trace_end record, and the
//     trace_dropped metric) rather than applying back-pressure.
//   - Exploration results must be byte-identical with tracing on or off:
//     hooks only read engine state, never branch on it.
//
// One Run is shared by everything that emits for an exploration (the
// engine and, with checkpointing, the checkpoint driver); each takes its
// own lane via NewLane, which becomes one thread row in the Chrome trace
// export.
package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// SchemaVersion identifies the JSONL trace schema; the first line of every
// trace is a trace_begin record carrying it.
const SchemaVersion = "symmerge-trace/v1"

// Event type tags (the "ev" field of every trace line).
const (
	EvTraceBegin   = "trace_begin"
	EvFork         = "fork"
	EvMergeAttempt = "merge_attempt"
	EvMergeAccept  = "merge_accept"
	EvMergeReject  = "merge_reject"
	EvQueryBegin   = "query_begin"
	EvQueryEnd     = "query_end"
	EvFFSelect     = "ff_select"
	EvEpoch        = "epoch"
	EvCheckpoint   = "checkpoint"
	EvCorpusEmit   = "corpus_emit"
	EvTraceEnd     = "trace_end"
)

// QueryClass classifies how a solver query was answered, the dimension the
// latency histograms split on.
type QueryClass uint8

// Query classes.
const (
	// QuerySession: answered by a persistent incremental session
	// (blast-once/assume-many under assumptions).
	QuerySession QueryClass = iota
	// QueryCached: answered without SAT, by re-evaluating a recent model
	// (the solver's model-reuse ring).
	QueryCached

	numQueryClasses
)

func (c QueryClass) String() string {
	switch c {
	case QuerySession:
		return "session"
	case QueryCached:
		return "cached"
	}
	return "?"
}

// Run is the shared per-exploration observability context: one trace sink,
// one metrics registry, and a lane allocator. A nil *Run is the disabled
// layer — NewLane then returns nil Observers whose methods no-op.
type Run struct {
	sink  *Sink
	met   *Metrics
	start time.Time
	lanes atomic.Int32
}

// NewRun bundles a sink and a metrics registry (either may be nil) into a
// run context. When both are nil it returns nil: the whole layer compiles
// down to nil-receiver no-ops.
func NewRun(sink *Sink, met *Metrics) *Run {
	if sink == nil && met == nil {
		return nil
	}
	r := &Run{sink: sink, met: met, start: time.Now()}
	if sink != nil {
		// Event timestamps and the sink's own trace_end timestamp must
		// share one epoch.
		r.start = sink.start
		sink.met = met
	}
	return r
}

// Metrics returns the run's metrics registry (nil when disabled).
func (r *Run) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.met
}

// NewLane allocates an observer lane — one per engine. Lane numbers become
// the "w" field of trace events and the per-lane rows of the Chrome
// export. Safe on a nil receiver (returns a nil Observer).
func (r *Run) NewLane() *Observer {
	if r == nil {
		return nil
	}
	return &Observer{run: r, lane: int(r.lanes.Add(1)) - 1}
}

func (r *Run) sinceUS() int64 { return time.Since(r.start).Microseconds() }

// Observer is one engine's lane into the run's sink and metrics. All
// methods are safe (and free) on a nil receiver; an Observer is otherwise
// single-goroutine state, like the engine that owns it.
type Observer struct {
	run  *Run
	lane int
	qseq uint64 // per-lane query-span sequence (query_begin/query_end pairing)
}

// Active reports whether any consumer (sink or metrics) is attached; hooks
// that need extra work to assemble an event (timing, QCE estimates) gate on
// it so the disabled path stays a single branch.
func (o *Observer) Active() bool { return o != nil }

// head starts an event line: {"ev":"...","us":...,"w":...
func (o *Observer) head(ev string) []byte {
	b := o.run.sink.getBuf()
	b = append(b, `{"ev":"`...)
	b = append(b, ev...)
	b = append(b, `","us":`...)
	b = strconv.AppendInt(b, o.run.sinceUS(), 10)
	b = append(b, `,"w":`...)
	b = strconv.AppendInt(b, int64(o.lane), 10)
	return b
}

func fInt(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func fUint(b []byte, name string, v uint64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendUint(b, v, 10)
}

func fFloat(b []byte, name string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', 6, 64)
}

func fStr(b []byte, name, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, `":"`...)
	b = append(b, v...) // values are internal identifiers, never user data
	return append(b, '"')
}

func fBool(b []byte, name string, v bool) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendBool(b, v)
}

func closeLine(b []byte) []byte { return append(b, '}', '\n') }

// Fork records a state fork (branch or assert split) at fn:pc.
func (o *Observer) Fork(parent, child uint64, fn, pc int) {
	if o == nil {
		return
	}
	if m := o.run.met; m != nil {
		m.forks.Add(1)
	}
	if s := o.run.sink; s != nil {
		b := o.head(EvFork)
		b = fUint(b, "parent", parent)
		b = fUint(b, "child", child)
		b = fInt(b, "fn", int64(fn))
		b = fInt(b, "pc", int64(pc))
		s.enqueue(closeLine(b))
	}
}

// MergeAttempt records a similarity check between two same-location states.
func (o *Observer) MergeAttempt(a, b uint64, fn, pc int) {
	if o == nil {
		return
	}
	if m := o.run.met; m != nil {
		m.mergeAttempts.Add(1)
	}
	if s := o.run.sink; s != nil {
		buf := o.head(EvMergeAttempt)
		buf = fUint(buf, "a", a)
		buf = fUint(buf, "b", b)
		buf = fInt(buf, "fn", int64(fn))
		buf = fInt(buf, "pc", int64(pc))
		s.enqueue(closeLine(buf))
	}
}

// MergeAccept records a successful merge of a and b into m, with the
// merge-gate duration (similarity check + state combination).
func (o *Observer) MergeAccept(a, b, merged uint64, dur time.Duration) {
	if o == nil {
		return
	}
	if m := o.run.met; m != nil {
		m.merges.Add(1)
		m.mergeGate.observe(dur)
	}
	if s := o.run.sink; s != nil {
		buf := o.head(EvMergeAccept)
		buf = fUint(buf, "a", a)
		buf = fUint(buf, "b", b)
		buf = fUint(buf, "m", merged)
		buf = fInt(buf, "dur_us", dur.Microseconds())
		s.enqueue(closeLine(buf))
	}
}

// MergeReject records a failed similarity check, with the gate that refused
// it and the QCE quantities behind the decision (qt is the interprocedural
// query-count estimate Qt_global, threshold is α·Qt_global; both zero when
// QCE is off).
func (o *Observer) MergeReject(a, b uint64, reason string, qt, threshold float64, dur time.Duration) {
	if o == nil {
		return
	}
	if m := o.run.met; m != nil {
		m.mergeRejects.Add(1)
		m.mergeGate.observe(dur)
	}
	if s := o.run.sink; s != nil {
		buf := o.head(EvMergeReject)
		buf = fUint(buf, "a", a)
		buf = fUint(buf, "b", b)
		buf = fStr(buf, "reason", reason)
		if qt != 0 || threshold != 0 {
			buf = fFloat(buf, "qt", qt)
			buf = fFloat(buf, "threshold", threshold)
		}
		buf = fInt(buf, "dur_us", dur.Microseconds())
		s.enqueue(closeLine(buf))
	}
}

// QueryBegin opens a solver-query span and returns its lane-local id, to be
// passed to the matching QueryEnd.
func (o *Observer) QueryBegin() uint64 {
	if o == nil {
		return 0
	}
	o.qseq++
	if s := o.run.sink; s != nil {
		b := o.head(EvQueryBegin)
		b = fUint(b, "qid", o.qseq)
		s.enqueue(closeLine(b))
	}
	return o.qseq
}

// QueryEnd closes a solver-query span: how the query was answered (class),
// the verdict, the latency, and the SAT-encoding delta it cost (variables
// allocated and clauses added; zero for cached answers and full session
// reuse). failed marks a budget/timeout error; sat is meaningless then.
func (o *Observer) QueryEnd(qid uint64, class QueryClass, sat, failed bool, dur time.Duration, vars, clauses uint64) {
	if o == nil {
		return
	}
	if m := o.run.met; m != nil {
		m.queries[class].Add(1)
		m.queryLat[class].observe(dur)
		switch {
		case failed:
			m.queryErr.Add(1)
		case sat:
			m.querySat.Add(1)
		default:
			m.queryUnsat.Add(1)
		}
	}
	if s := o.run.sink; s != nil {
		b := o.head(EvQueryEnd)
		b = fUint(b, "qid", qid)
		b = fStr(b, "class", class.String())
		b = fBool(b, "sat", sat)
		if failed {
			b = fBool(b, "err", true)
		}
		b = fInt(b, "dur_us", dur.Microseconds())
		b = fUint(b, "sat_vars", vars)
		b = fUint(b, "sat_clauses", clauses)
		s.enqueue(closeLine(b))
	}
}

// FFSelect records a fast-forwarding pick (Algorithm 2's pickNextF
// overriding the driving strategy) of the state at fn:pc.
func (o *Observer) FFSelect(state uint64, fn, pc int) {
	if o == nil {
		return
	}
	if m := o.run.met; m != nil {
		m.ffSelected.Add(1)
	}
	if s := o.run.sink; s != nil {
		b := o.head(EvFFSelect)
		b = fUint(b, "state", state)
		b = fInt(b, "fn", int64(fn))
		b = fInt(b, "pc", int64(pc))
		s.enqueue(closeLine(b))
	}
}

// Epoch records the start of checkpoint epoch seq, the stretch of
// exploration that ends in snapshot seq, from a frontier of seeds states.
func (o *Observer) Epoch(seq uint64, seeds int) {
	if o == nil {
		return
	}
	if m := o.run.met; m != nil {
		m.epochs.Add(1)
	}
	if s := o.run.sink; s != nil {
		b := o.head(EvEpoch)
		b = fUint(b, "seq", seq)
		b = fInt(b, "seeds", int64(seeds))
		s.enqueue(closeLine(b))
	}
}

// Checkpoint records a snapshot write of the given frontier size; failed
// marks a write that did not persist.
func (o *Observer) Checkpoint(seq uint64, states int, failed bool) {
	if o == nil {
		return
	}
	if m := o.run.met; m != nil {
		m.checkpoints.Add(1)
	}
	if s := o.run.sink; s != nil {
		b := o.head(EvCheckpoint)
		b = fUint(b, "seq", seq)
		b = fInt(b, "states", int64(states))
		if failed {
			b = fBool(b, "err", true)
		}
		s.enqueue(closeLine(b))
	}
}

// CorpusEmit records n test cases streamed to the corpus sink.
func (o *Observer) CorpusEmit(n int) {
	if o == nil || n <= 0 {
		return
	}
	if m := o.run.met; m != nil {
		m.corpusTests.Add(uint64(n))
	}
	if s := o.run.sink; s != nil {
		b := o.head(EvCorpusEmit)
		b = fInt(b, "n", int64(n))
		s.enqueue(closeLine(b))
	}
}

// StepStart opens a scheduler-step timing window when step metrics are on;
// it returns the zero time (and StepDone no-ops) otherwise, so the hot path
// with no metrics never reads the clock.
func (o *Observer) StepStart() time.Time {
	if o == nil || o.run.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// StepDone closes a step timing window: throughput counter, step-latency
// histogram, and the worklist-length gauge.
func (o *Observer) StepDone(t0 time.Time, worklist int) {
	if o == nil || o.run.met == nil || t0.IsZero() {
		return
	}
	m := o.run.met
	m.steps.Add(1)
	m.stepLat.observe(time.Since(t0))
	m.worklist.Store(uint64(worklist))
}
