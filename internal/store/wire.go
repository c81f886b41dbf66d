package store

// Wire structs for the persistent store, mirroring the checkpoint
// conventions: uint64s travel as decimal strings so non-Go tooling cannot
// lose precision, and every file is one JSON line followed by one line of
// hex SHA-256 over the JSON bytes.

import (
	"fmt"
	"strconv"

	"symmerge/internal/expr"
	"symmerge/internal/solver"
)

// wireCex is one persisted counterexample-cache verdict.
type wireCex struct {
	Hi    string                `json:"h"` // fingerprint halves, decimal
	Lo    string                `json:"l"`
	Sat   bool                  `json:"s,omitempty"`
	Model []solver.StableAssign `json:"m,omitempty"`
}

// segment is the content of one store segment file. Segments written by
// older versions may also carry a "sums" key (persisted function
// summaries); decoding ignores it, and the next compaction drops it.
type segment struct {
	Schema string    `json:"schema"`
	Tag    string    `json:"tag"`
	Cex    []wireCex `json:"cex,omitempty"`
}

// decodeCex parses one persisted cex entry's fingerprint.
func decodeCex(w *wireCex) (expr.FP, error) {
	hi, err := strconv.ParseUint(w.Hi, 10, 64)
	if err != nil {
		return expr.FP{}, fmt.Errorf("store: bad cex fingerprint hi %q", w.Hi)
	}
	lo, err := strconv.ParseUint(w.Lo, 10, 64)
	if err != nil {
		return expr.FP{}, fmt.Errorf("store: bad cex fingerprint lo %q", w.Lo)
	}
	fp := expr.FP{Hi: hi, Lo: lo}
	if fp.IsZero() {
		return expr.FP{}, fmt.Errorf("store: zero cex fingerprint")
	}
	for _, a := range w.Model {
		if a.Name == "" || a.Width > 64 {
			return expr.FP{}, fmt.Errorf("store: bad model assignment %q/%d", a.Name, a.Width)
		}
	}
	return fp, nil
}
