package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// record is one decoded trace line; field presence/typing is checked
// against eventFields, so map decoding is enough.
type record map[string]any

// eventFields lists, per event type, the fields that must be present
// beyond the common envelope ("ev", "us", and — for worker events — "w").
var eventFields = map[string][]string{
	EvTraceBegin:   {"schema"},
	EvFork:         {"w", "parent", "child", "fn", "pc"},
	EvMergeAttempt: {"w", "a", "b", "fn", "pc"},
	EvMergeAccept:  {"w", "a", "b", "m", "dur_us"},
	EvMergeReject:  {"w", "a", "b", "reason", "dur_us"},
	EvQueryBegin:   {"w", "qid"},
	EvQueryEnd:     {"w", "qid", "class", "sat", "dur_us", "sat_vars", "sat_clauses"},
	EvFFSelect:     {"w", "state", "fn", "pc"},
	EvSteal:        {"w", "n"},
	EvDonate:       {"w", "n"},
	EvEpoch:        {"w", "seq", "seeds"},
	EvCheckpoint:   {"w", "seq", "states"},
	EvCorpusEmit:   {"w", "n"},
	EvTraceEnd:     {"events", "dropped"},

	EvPruneStatic: {"w", "state", "fn", "pc", "kind"},
}

var queryClasses = map[string]bool{"session": true, "oneshot": true, "cached": true}

// TraceSummary is what Validate learned from a schema-valid trace.
type TraceSummary struct {
	Events  uint64            // event lines between header and footer
	Dropped uint64            // trace_end's drop counter
	Lanes   int               // distinct "w" values seen
	ByType  map[string]uint64 // event count per "ev" tag
}

// Validate checks a JSONL trace line by line against symmerge-trace/v1:
// the first line must be a trace_begin carrying the schema version, the
// last a trace_end whose event count matches the lines in between, and
// every line must parse and carry its event type's required fields. It
// returns a summary on success and a line-numbered error on the first
// violation.
func Validate(r io.Reader) (*TraceSummary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	sum := &TraceSummary{ByType: make(map[string]uint64)}
	lanes := make(map[int64]bool)
	lineNo := 0
	sawBegin, sawEnd := false, false
	for sc.Scan() {
		lineNo++
		if sawEnd {
			return nil, fmt.Errorf("line %d: content after trace_end", lineNo)
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		ev, _ := rec["ev"].(string)
		if ev == "" {
			return nil, fmt.Errorf("line %d: missing \"ev\"", lineNo)
		}
		fields, ok := eventFields[ev]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown event type %q", lineNo, ev)
		}
		if _, ok := rec["us"].(float64); !ok {
			return nil, fmt.Errorf("line %d: %s: missing numeric \"us\"", lineNo, ev)
		}
		for _, f := range fields {
			if _, ok := rec[f]; !ok {
				return nil, fmt.Errorf("line %d: %s: missing field %q", lineNo, ev, f)
			}
		}
		switch ev {
		case EvTraceBegin:
			if lineNo != 1 {
				return nil, fmt.Errorf("line %d: trace_begin not first", lineNo)
			}
			if s, _ := rec["schema"].(string); s != SchemaVersion {
				return nil, fmt.Errorf("line %d: schema %q, want %q", lineNo, rec["schema"], SchemaVersion)
			}
			sawBegin = true
			continue
		case EvTraceEnd:
			sawEnd = true
			ev2, _ := rec["events"].(float64)
			dr, _ := rec["dropped"].(float64)
			if uint64(ev2) != sum.Events {
				return nil, fmt.Errorf("line %d: trace_end counts %d events, trace has %d", lineNo, uint64(ev2), sum.Events)
			}
			sum.Dropped = uint64(dr)
			continue
		case EvQueryEnd:
			if c, _ := rec["class"].(string); !queryClasses[c] {
				return nil, fmt.Errorf("line %d: query_end: unknown class %q", lineNo, rec["class"])
			}
		}
		if lineNo == 1 {
			return nil, fmt.Errorf("line 1: expected trace_begin, got %s", ev)
		}
		if w, ok := rec["w"].(float64); ok {
			lanes[int64(w)] = true
		}
		sum.Events++
		sum.ByType[ev]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawBegin {
		return nil, fmt.Errorf("empty trace: no trace_begin")
	}
	if !sawEnd {
		return nil, fmt.Errorf("truncated trace: no trace_end")
	}
	sum.Lanes = len(lanes)
	return sum, nil
}
