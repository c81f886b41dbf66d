package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"symmerge/internal/core"
	"symmerge/internal/corpus"
	"symmerge/internal/expr"
)

// frontierFixture is a small but representative frontier: two states
// sharing expression structure, with symbolic locals, an object-reference
// local, a full-width constant, a path condition, a heap cell, a guarded
// output byte, and a shadow census. Its table is in the order an ID-sorted
// encoder writes it, so older writers produce the same bytes.
func frontierFixture() core.Frontier {
	const x, y, sum, c10, cond, big, notCond = 1, 2, 3, 4, 5, 6, 7 // references
	return core.Frontier{
		Exprs: []expr.Node{
			{K: uint8(expr.KVar), W: 8, N: "x"},
			{K: uint8(expr.KVar), W: 8, N: "y"},
			{K: uint8(expr.KAdd), W: 8, Kids: []uint32{x - 1, y - 1}},
			{K: uint8(expr.KConst), W: 8, V: "10"},
			{K: uint8(expr.KUlt), Kids: []uint32{x - 1, c10 - 1}},
			{K: uint8(expr.KConst), W: 64, V: strconv.FormatUint(1<<63|12345, 10)},
			{K: uint8(expr.KNot), Kids: []uint32{cond - 1}},
		},
		States: []core.StateWire{
			{
				Frames: []core.WireFrame{{
					Fn: 0, PC: 3, RetDst: -1,
					Locals:  []core.WireValue{{E: sum}, {Depth: 0, Local: 1}, {E: big}},
					Objects: []*core.WireObject{nil, {Cells: []uint32{x, sum}, Width: 8}, nil},
				}},
				PC:      []uint32{cond},
				Heap:    []core.WireHeapEntry{{ID: 2, Obj: core.WireObject{Cells: []uint32{y}, Width: 8}}},
				Allocs:  []uint16{1, 0},
				Mult:    "3",
				Output:  []core.WireOut{{Guard: cond, Val: x}},
				NSyms:   2,
				History: []uint64{7, 9, 0},
				HistPos: 1,
				Shadow:  [][]uint32{{cond}, {notCond}},
			},
			{
				Frames: []core.WireFrame{{
					Fn: 0, PC: 5, RetDst: -1,
					Locals:  []core.WireValue{{E: x}, {E: y}, {E: sum}},
					Objects: []*core.WireObject{nil, nil, nil},
				}},
				PC:   []uint32{notCond},
				Mult: "1",
			},
		},
	}
}

// v1Frontier is how a symmerge-checkpoint/v1 file spells the fixture's
// frontier: the last two keys of the snapshot object.
const v1Frontier = `"exprs":[{"k":1,"w":8,"n":"x"},{"k":1,"w":8,"n":"y"},{"k":12,"w":8,"c":[0,1]},{"k":0,"w":8,"v":"10"},{"k":8,"c":[0,3]},{"k":0,"w":64,"v":"9223372036854788153"},{"k":2,"c":[4]}],` +
	`"states":[{"frames":[{"fn":0,"pc":3,"ret":-1,"locals":[{"e":3},{"l":1},{"e":6}],"objects":[null,{"cells":[1,3],"width":8},null]}],` +
	`"pc":[5],"heap":[{"id":2,"obj":{"cells":[2],"width":8}}],"allocs":[1,0],"mult":"3","output":[{"g":5,"v":1}],"nsyms":2,` +
	`"history":[7,9,0],"histpos":1,"shadow":[[5],[7]]},` +
	`{"frames":[{"fn":0,"pc":5,"ret":-1,"locals":[{"e":1},{"e":2},{"e":3}],"objects":[null,null,null]}],"pc":[7],"mult":"1"}]}`

// TestEncodeDecodeRoundTrip writes a snapshot and loads it back: the
// frontier must keep its v1 keys and place, and the loaded snapshot must
// equal the written one.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sn := &Snapshot{Seq: 1, Program: corpus.ProgramInfo{Name: "t", Hash: "h"}, Config: "c", Frontier: frontierFixture()}
	path, err := Write(dir, sn)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if body, _, _ := bytes.Cut(data, []byte("\n")); !bytes.HasSuffix(body, []byte(v1Frontier)) {
		t.Errorf("snapshot body does not end in the v1 frontier:\n%s\nwant suffix\n%s", body, v1Frontier)
	}
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sn) {
		t.Errorf("loaded snapshot differs from the written one:\n%+v\nvs\n%+v", got, sn)
	}
}

func TestWriteLoadLatest(t *testing.T) {
	dir := t.TempDir()

	if sn, err := LoadLatest(dir); err != nil || sn != nil {
		t.Fatalf("empty dir: got (%v, %v), want (nil, nil)", sn, err)
	}

	for seq := uint64(0); seq < 4; seq++ {
		sn := &Snapshot{Seq: seq, Program: corpus.ProgramInfo{Name: "t", Hash: "h"}, Config: "c", Frontier: frontierFixture()}
		if _, err := Write(dir, sn); err != nil {
			t.Fatalf("write %d: %v", seq, err)
		}
	}

	got, err := LoadLatest(dir)
	if err != nil || got == nil || got.Seq != 3 {
		t.Fatalf("LoadLatest = (%+v, %v), want seq 3", got, err)
	}

	// Pruning keeps only the newest two.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("prune left %v, want 2 files", names)
	}

	// A torn newest snapshot is skipped, not fatal: corrupt seq 3 and the
	// loader must fall back to seq 2.
	path := filepath.Join(dir, "snap-00000003.ckpt")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadLatest(dir)
	if err != nil || got == nil || got.Seq != 2 {
		t.Fatalf("after tearing seq 3: LoadLatest = (%+v, %v), want seq 2", got, err)
	}

	// A wrong-schema snapshot is refused the same way.
	raw := []byte(`{"schema":"symmerge-checkpoint/v999","seq":9,"states":[]}`)
	writeRaw(t, dir, "snap-00000009.ckpt", raw)
	got, err = LoadLatest(dir)
	if err != nil || got == nil || got.Seq != 2 {
		t.Fatalf("after foreign schema: LoadLatest = (%+v, %v), want seq 2", got, err)
	}
}

// writeRaw writes body plus a valid checksum trailer, bypassing Write, so
// tests can plant snapshots whose JSON the loader must reject on content.
func writeRaw(t *testing.T, dir, name string, body []byte) {
	t.Helper()
	sum := sha256.Sum256(body)
	data := append(append(body, '\n'), hex.EncodeToString(sum[:])...)
	data = append(data, '\n')
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}
