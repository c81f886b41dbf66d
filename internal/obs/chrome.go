package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON array
// format"), the schema chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"` // µs
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace converts a symmerge-trace/v1 JSONL stream into Chrome
// trace-event format: one thread row per lane ("w"), solver queries and
// merge-gate decisions as complete ("X") spans, the remaining events as
// thread-scoped instants. query_begin/query_end pairs match on (lane, qid);
// an unmatched begin (its end was dropped or the trace truncated) degrades
// to an instant rather than failing the conversion.
func ChromeTrace(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	out := chromeTrace{DisplayTimeUnit: "ms"}
	type qkey struct {
		w   int
		qid uint64
	}
	open := make(map[qkey]int64) // query_begin timestamps awaiting their end
	lanes := make(map[int]bool)
	lineNo := 0
	num := func(rec record, f string) int64 { v, _ := rec[f].(float64); return int64(v) }
	for sc.Scan() {
		lineNo++
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		ev, _ := rec["ev"].(string)
		us := num(rec, "us")
		lane := int(num(rec, "w"))
		if ev != EvTraceBegin && ev != EvTraceEnd {
			lanes[lane] = true
		}
		span := func(name string, dur int64, args map[string]any) {
			if dur < 1 {
				dur = 1
			}
			ts := us - dur
			if ts < 0 {
				ts = 0
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Phase: "X", TS: ts, Dur: dur, PID: 1, TID: lane, Args: args,
			})
		}
		instant := func(name, scope string, args map[string]any) {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Phase: "i", TS: us, PID: 1, TID: lane, Scope: scope, Args: args,
			})
		}
		switch ev {
		case EvTraceBegin, EvTraceEnd, EvMergeAttempt:
			// Attempts are subsumed by the accept/reject span that follows.
		case EvQueryBegin:
			open[qkey{lane, uint64(num(rec, "qid"))}] = us
		case EvQueryEnd:
			k := qkey{lane, uint64(num(rec, "qid"))}
			dur := num(rec, "dur_us")
			class, _ := rec["class"].(string)
			args := map[string]any{
				"class": class, "sat": rec["sat"],
				"sat_vars": num(rec, "sat_vars"), "sat_clauses": num(rec, "sat_clauses"),
			}
			if rec["err"] == true {
				args["err"] = true
			}
			if ts, ok := open[k]; ok {
				delete(open, k)
				if d := us - ts; d > dur {
					dur = d
				}
			}
			span("query:"+class, dur, args)
		case EvMergeAccept:
			span("merge", num(rec, "dur_us"), map[string]any{
				"a": num(rec, "a"), "b": num(rec, "b"), "m": num(rec, "m"),
			})
		case EvMergeReject:
			args := map[string]any{
				"a": num(rec, "a"), "b": num(rec, "b"), "reason": rec["reason"],
			}
			if qt, ok := rec["qt"]; ok {
				args["qt"], args["threshold"] = qt, rec["threshold"]
			}
			span("merge-reject", num(rec, "dur_us"), args)
		case EvFork:
			instant(ev, "t", map[string]any{"parent": num(rec, "parent"), "child": num(rec, "child")})
		case EvEpoch, EvCheckpoint:
			instant(ev, "p", map[string]any{"seq": num(rec, "seq")})
		default: // ff_select, steal, donate, corpus_emit, future instants
			instant(ev, "t", nil)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for k, ts := range open { // ends lost to drops/truncation
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "query:?", Phase: "i", TS: ts, PID: 1, TID: k.w, Scope: "t",
		})
	}
	ids := make([]int, 0, len(lanes))
	for l := range lanes {
		ids = append(ids, l)
	}
	sort.Ints(ids)
	for _, l := range ids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: l,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", l)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
