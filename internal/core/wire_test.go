package core

import (
	"strings"
	"testing"

	"symmerge/internal/expr"
)

// TestStateFromWireRefusals corrupts one field of a valid wire state per
// case: stateFromWire must refuse each with an error naming the problem.
func TestStateFromWireRefusals(t *testing.T) {
	e := newTestEngine(t, arraySrc, Config{})
	b := e.build
	c8 := b.Const('a', 8)
	c32 := b.Const('a', 32)
	x := b.Var("x", 8)
	// valid returns a fresh wire of the initial state printing one byte;
	// main's local 0 is its array b.
	valid := func() *StateWire {
		s := e.initialState()
		s.Output = putOut(nil, c8)
		return s.ToWire(b)
	}
	if _, err := e.stateFromWire(valid()); err != nil {
		t.Fatalf("valid wire refused: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(w *StateWire)
		want    string
	}{
		{"frames", func(w *StateWire) { w.Frames = nil }, "no frames"},
		{"multiplicity", func(w *StateWire) { w.Mult = "0" }, "bad multiplicity"},
		{"path conjunct", func(w *StateWire) { w.PC = append(w.PC, x) }, "path conjunct 0 is not boolean"},
		{"function range", func(w *StateWire) { w.Frames[0].Fn = 99 }, "function 99 out of range"},
		{"pc range", func(w *StateWire) { w.Frames[0].PC = 9999 }, "pc 9999 out of range"},
		{"local count", func(w *StateWire) { w.Frames[0].Locals = w.Frames[0].Locals[:0] }, "locals serialized"},
		{"ref depth", func(w *StateWire) { w.Frames[0].Locals[0].Depth = 3 }, "ref depth 3 out of range"},
		{"ref slot", func(w *StateWire) { w.Frames[0].Locals[0].Local = 99 }, "ref slot 99 out of range"},
		{"object width", func(w *StateWire) { w.Frames[0].Objects[0].Width = 16 }, "cell width 16"},
		{"cell width", func(w *StateWire) { w.Frames[0].Objects[0].Cells[0] = c32 }, "cell 0 does not have width 8"},
		{"heap order", func(w *StateWire) {
			obj := WireObject{Cells: []*expr.Expr{c8}, Width: 8}
			w.Heap = []WireHeapEntry{{ID: 2, Obj: obj}, {ID: 1, Obj: obj}}
		}, "heap not sorted"},
		{"allocation counters", func(w *StateWire) { w.Allocs = []uint16{1} }, "1 allocation counters serialized"},
		{"history position", func(w *StateWire) { w.History, w.HistPos = []uint64{1, 2}, 2 }, "history position 2 out of range"},
		{"empty history position", func(w *StateWire) { w.HistPos = 1 }, "history position 1 with empty history"},
		{"shadow conjunct", func(w *StateWire) { w.Shadow = [][]*expr.Expr{{b.True(), x}} }, "shadow path 0 conjunct 1 is not boolean"},
		{"output value", func(w *StateWire) { w.Output[0].Val = nil }, "output entry 0 has no value"},
		{"output guard", func(w *StateWire) { w.Output[0].Guard = x }, "output entry 0: non-boolean guard"},
		{"output width", func(w *StateWire) { w.Output[0].Val = c32 }, "output entry 0: value width 32 (want 8)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := valid()
			tc.corrupt(w)
			_, err := e.stateFromWire(w)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("stateFromWire = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
