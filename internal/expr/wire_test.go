package expr

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestTableRoundTrip checks the node-table codec through JSON against both
// decode targets: the producing builder must give back the original
// pointers and mint no node, and a fresh builder must give back a DAG that
// re-encodes to the same table. A full-width constant must survive the
// decimal encoding.
func TestTableRoundTrip(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	sum := b.Add(x, y)
	cond := b.Ult(x, b.Const(10, 8))
	big := b.Const(1<<63|12345, 64)
	roots := []*Expr{sum, nil, cond, b.Not(cond), big, b.Ite(cond, sum, y)}

	var tab Table
	refs := make([]uint32, len(roots))
	for i, e := range roots {
		refs[i] = tab.Ref(e)
	}
	data, err := json.Marshal(tab.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []Node
	if err := json.Unmarshal(data, &nodes); err != nil {
		t.Fatal(err)
	}

	minted := b.Stats.Nodes.Load()
	back, err := DecodeTable(b, nodes)
	if err != nil {
		t.Fatalf("decode (same builder): %v", err)
	}
	if n := b.Stats.Nodes.Load() - minted; n != 0 {
		t.Errorf("decoding through the producing builder minted %d nodes", n)
	}
	for i, e := range roots {
		if r := refs[i]; (r == 0) != (e == nil) || r != 0 && back[r-1] != e {
			t.Errorf("root %d (%v): reference %d does not decode to the original pointer", i, e, r)
		}
	}

	fresh, err := DecodeTable(NewBuilder(), nodes)
	if err != nil {
		t.Fatalf("decode (fresh builder): %v", err)
	}
	if got := fresh[refs[4]-1].Val; got != 1<<63|12345 {
		t.Errorf("uint64 constant corrupted: %d", got)
	}
	var again Table
	for i, r := range refs {
		if r == 0 {
			continue
		}
		if got := again.Ref(fresh[r-1]); got != r {
			t.Errorf("root %d: re-encoded reference %d, want %d", i, got, r)
		}
	}
	if !reflect.DeepEqual(again.Nodes, tab.Nodes) {
		t.Errorf("re-encoding through a fresh builder diverged:\n%+v\nvs\n%+v", again.Nodes, tab.Nodes)
	}
}

func TestDecodeTableRejectsForwardReference(t *testing.T) {
	nodes := []Node{{K: uint8(KNot), Kids: []uint32{1}}, {K: uint8(KVar), N: "b"}}
	if _, err := DecodeTable(NewBuilder(), nodes); err == nil || !strings.Contains(err.Error(), "not a predecessor") {
		t.Fatalf("forward kid reference: err = %v, want a refusal", err)
	}
}

// TestKindNumbers pins every kind's wire number: a snapshot's node carries
// its kind as that number (Node.K), so a renumbered kind would decode as
// another operator. The numbers of retired kinds stay reserved, and Intern
// refuses them by name even where the node has the retired kind's shape.
func TestKindNumbers(t *testing.T) {
	want := map[Kind]uint8{
		KConst: 0, KVar: 1, KNot: 2, KAnd: 3, KOr: 4,
		KEq: 7, KUlt: 8, KUle: 9, KSlt: 10, KSle: 11,
		KAdd: 12, KSub: 13, KMul: 14, KUDiv: 15, KURem: 16, KSDiv: 17, KSRem: 18,
		KBAnd: 19, KBOr: 20, KBXor: 21, KBNot: 22, KNeg: 23, KShl: 24, KLShr: 25, KAShr: 26,
		KZExt: 27, KExtract: 29, KIte: 31,
	}
	for k, n := range want {
		if uint8(k) != n {
			t.Errorf("%s is kind %d on the wire, want %d", k, uint8(k), n)
		}
	}

	b := NewBuilder()
	p, q := b.Var("p", 0), b.Var("q", 0)
	x, y := b.Var("x", 8), b.Var("y", 8)
	retired := []struct {
		k     uint8
		name  string
		width uint8
		aux   uint16
		kids  []*Expr
	}{
		{5, "xor", 0, 0, []*Expr{p, q}},
		{6, "implies", 0, 0, []*Expr{p, q}},
		{28, "sext", 16, 8, []*Expr{x}},
		{30, "concat", 16, 0, []*Expr{x, y}},
	}
	for _, r := range retired {
		_, err := b.Intern(Kind(r.k), r.width, 0, r.aux, "", r.kids)
		if err == nil || !strings.Contains(err.Error(), r.name) {
			t.Errorf("Intern of kind %d: err = %v, want a refusal naming %s", r.k, err, r.name)
		}
	}
	if n := len(want) + len(retired); n != int(numKinds) {
		t.Errorf("the tables cover %d kind numbers, want all %d", n, numKinds)
	}
}
