package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// reportFile is the document -json writes and -compare reads.
type reportFile struct {
	Schema  string    `json:"schema"`
	Reports []*report `json:"reports"`
}

const reportSchema = "symbench-report/v1"

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics writes every metric of the report as "name value unit",
// sorted by name.
func printMetrics(w io.Writer, r *report) {
	fmt.Fprintf(w, "# workload %s seed %d reps %d runs %d failed %d\n", r.Workload, r.Seed, r.Reps, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %s\n", n, formatValue(m.Value), m.Unit)
	}
	for _, row := range r.Tools {
		for _, f := range row.Failures {
			fmt.Fprintf(w, "# FAIL %s: %s\n", row.Tool, f)
		}
	}
}

func formatValue(v float64) string {
	data, _ := json.Marshal(v)
	return string(data)
}

// resultLine is the last line of standard output: the metrics named in the
// benchmark description for the mode (end-to-end, or per-layer with
// tracing), over every report of the run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResultLine(reports []*report, names []string) resultLine {
	res := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reports {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, n := range names {
			key := n
			if len(reports) > 1 {
				key = r.Workload + "." + n
			}
			if m, ok := r.Metrics[n]; ok {
				res.Metrics[key] = m
			}
		}
	}
	return res
}

// spanLog keeps the benchmark's own spans (set-up calls, tool runs, corpus
// replays) in memory; -spans writes them as Chrome trace events.
type spanLog struct {
	origin time.Time
	spans  []span
}

type span struct {
	Name   string
	Cat    string
	Start  time.Time
	End    time.Time
	ID     int
	Parent int // 0 for a root span
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now()}
}

// begin opens a span and returns its id, which end closes.
func (l *spanLog) begin(name, cat string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, Cat: cat, Start: time.Now(), ID: id, Parent: parent})
	return id
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Now() }

// add records a closed span.
func (l *spanLog) add(name, cat string, start, end time.Time, parent int) {
	l.spans = append(l.spans, span{Name: name, Cat: cat, Start: start, End: end, ID: len(l.spans) + 1, Parent: parent})
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes the spans of every report as one Chrome trace-event
// file, one process row per workload.
func writeSpans(path string, reports []*report) error {
	var events []chromeEvent
	for i, r := range reports {
		l := r.spans
		for _, s := range l.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				TS:  float64(s.Start.Sub(l.origin).Nanoseconds()) / 1e3,
				Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
				PID: i + 1, TID: 1,
				Args: map[string]any{"workload": r.Workload, "id": s.ID, "parent": s.Parent},
			})
		}
	}
	return writeJSONFile(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
