// Package checkpoint implements the versioned, self-describing snapshot
// format that makes exploration crash-safe: a snapshot captures the
// engine's live frontier (every worklist state in core.StateWire form),
// the cumulative progress counters, and the corpus writer's dedup state,
// so a killed run resumes from its last snapshot and converges to the
// same census and corpus as an uninterrupted run.
//
// On disk a snapshot is a single file, snap-%08d.ckpt, holding one line
// of JSON followed by one line with the hex SHA-256 of the JSON bytes.
// The trailing digest is what distinguishes "the previous run died after
// renaming a complete snapshot into place" from "the filesystem tore the
// file": LoadLatest verifies it and silently falls back to the next-newest
// snapshot when it does not match. Writes go through a temp file in the
// same directory plus os.Rename, so a snapshot is either entirely present
// or entirely absent.
//
// Expressions are serialized once per snapshot as a node table in builder
// ID order. A builder assigns IDs at construction and every operand is
// constructed before its parent, so ID order is a topological order: the
// decoder re-interns nodes first-to-last through expr.Builder.Intern
// (which hash-conses without re-running rewrite rules — snapshot nodes
// are already canonical) and every Kids reference points backwards.
// Expression references elsewhere in the snapshot are uint32 node-table
// indices offset by one, with 0 meaning nil.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"symmerge/internal/core"
	"symmerge/internal/corpus"
	"symmerge/internal/expr"
)

// Schema is the wire-format identifier. Bump it on any incompatible
// change to Snapshot or the node encoding; Load refuses other schemas so
// a stale snapshot can never be misread as current.
const Schema = "symmerge-checkpoint/v1"

// keepSnapshots is how many verified snapshots Write leaves behind: the
// one just written plus its predecessor, in case the newest is lost to a
// tear between rename and fsync of the directory.
const keepSnapshots = 2

// Node is one expression in the snapshot's topologically ordered table.
// The constant value travels as a decimal string: JSON numbers cannot
// carry a full uint64 through non-Go tooling without precision loss.
type Node struct {
	K    uint8    `json:"k"`
	W    uint8    `json:"w,omitempty"`
	A    uint16   `json:"a,omitempty"`
	V    string   `json:"v,omitempty"`
	N    string   `json:"n,omitempty"`
	Kids []uint32 `json:"c,omitempty"`
}

// Ref is a node-table reference: 0 is nil, r points at table index r-1.
type Ref = uint32

// Value, Object, Frame, HeapEntry, Out and State mirror the core wire
// structs with every *expr.Expr replaced by a Ref.
type Value struct {
	E     Ref `json:"e,omitempty"`
	Depth int `json:"d,omitempty"`
	Local int `json:"l,omitempty"`
}

type Object struct {
	Cells []Ref `json:"cells"`
	Width uint8 `json:"width"`
}

type Frame struct {
	Fn      int       `json:"fn"`
	PC      int       `json:"pc"`
	RetDst  int       `json:"ret"`
	Locals  []Value   `json:"locals,omitempty"`
	Objects []*Object `json:"objects,omitempty"`
}

type HeapEntry struct {
	ID  uint32 `json:"id"`
	Obj Object `json:"obj"`
}

type Out struct {
	Guard Ref `json:"g,omitempty"`
	Val   Ref `json:"v"`
}

type State struct {
	Frames  []Frame     `json:"frames"`
	PC      []Ref       `json:"pc,omitempty"`
	Heap    []HeapEntry `json:"heap,omitempty"`
	Allocs  []uint16    `json:"allocs,omitempty"`
	Mult    string      `json:"mult"`
	Output  []Out       `json:"output,omitempty"`
	NSyms   int         `json:"nsyms,omitempty"`
	History []uint64    `json:"history,omitempty"`
	HistPos int         `json:"histpos,omitempty"`
	Shadow  [][]Ref     `json:"shadow,omitempty"`
	JustRet bool        `json:"justret,omitempty"`
}

// Progress is the cumulative exploration result as of the snapshot. A
// resumed run adds its own engine totals on top of this base; the split
// is exact because the snapshot is taken between scheduler steps, so no
// work is counted on both sides. Rules is deliberately absent: rewrite
// counters are builder-global diagnostics that a resumed (fresh) builder
// cannot continue.
type Progress struct {
	Stats core.Stats `json:"stats"`
	// Covered is the cumulative coverage bitmap as a sorted range list
	// over LocIndex values (the corpus manifest encoding).
	Covered string           `json:"covered"`
	Tests   []core.TestCase  `json:"tests,omitempty"`
	Errors  []core.PathError `json:"errors,omitempty"`
}

// CorpusState is the writer's dedup and counter state; restoring it makes
// post-snapshot test emission idempotent (see corpus.Writer.RestoreState).
type CorpusState struct {
	Seen    []string `json:"seen,omitempty"`
	Emitted int      `json:"emitted"`
	Skipped int      `json:"skipped,omitempty"`
}

// Snapshot is one complete resumable picture of an exploration.
type Snapshot struct {
	Schema string `json:"schema"`
	// Seq increases by one per snapshot of a logical run and survives
	// resume (a resumed run continues the numbering), so the newest
	// snapshot in a directory is the one with the highest Seq.
	Seq uint64 `json:"seq"`
	// Program identifies what was being explored; Load refuses to resume
	// onto a program with a different IR hash.
	Program corpus.ProgramInfo `json:"program"`
	// Config is the canonical exploration descriptor (merge regime, QCE,
	// strategy, seed, input sizes — the corpus manifest convention).
	// Resuming under a different descriptor would silently change the
	// census, so Load refuses that too.
	Config   string       `json:"config"`
	Progress Progress     `json:"progress"`
	Corpus   *CorpusState `json:"corpus,omitempty"`
	Exprs    []Node       `json:"exprs,omitempty"`
	States   []State      `json:"states"`
}

// EncodeStates fills the snapshot's expression table and state list from
// live wire states. All states must come from one expr.Builder (the
// checkpoint driver snapshots one engine): builder IDs are the topological
// order the table is sorted by, and IDs from different builders are
// incomparable.
func (sn *Snapshot) EncodeStates(wires []*core.StateWire) {
	enc := &encoder{index: map[*expr.Expr]uint32{}}
	// First pass: collect every distinct reachable node.
	for _, w := range wires {
		enc.visitState(w)
	}
	sort.Slice(enc.nodes, func(i, j int) bool { return enc.nodes[i].ID() < enc.nodes[j].ID() })
	for i, e := range enc.nodes {
		enc.index[e] = uint32(i)
	}
	sn.Exprs = make([]Node, len(enc.nodes))
	for i, e := range enc.nodes {
		n := Node{K: uint8(e.Kind), W: e.Width, A: e.Aux, N: e.Name}
		if e.Kind == expr.KConst && e.Val != 0 {
			n.V = strconv.FormatUint(e.Val, 10)
		}
		if len(e.Kids) > 0 {
			n.Kids = make([]uint32, len(e.Kids))
			for j, k := range e.Kids {
				n.Kids[j] = enc.index[k]
			}
		}
		sn.Exprs[i] = n
	}
	sn.States = make([]State, len(wires))
	for i, w := range wires {
		sn.States[i] = enc.state(w)
	}
}

type encoder struct {
	index map[*expr.Expr]uint32 // collection: presence; encoding: table index
	nodes []*expr.Expr
}

func (enc *encoder) visit(e *expr.Expr) {
	if e == nil {
		return
	}
	if _, ok := enc.index[e]; ok {
		return
	}
	enc.index[e] = 0
	for _, k := range e.Kids {
		enc.visit(k)
	}
	enc.nodes = append(enc.nodes, e)
}

func (enc *encoder) visitState(w *core.StateWire) {
	for _, f := range w.Frames {
		for _, v := range f.Locals {
			enc.visit(v.E)
		}
		for _, o := range f.Objects {
			if o != nil {
				for _, c := range o.Cells {
					enc.visit(c)
				}
			}
		}
	}
	for _, c := range w.PC {
		enc.visit(c)
	}
	for _, h := range w.Heap {
		for _, c := range h.Obj.Cells {
			enc.visit(c)
		}
	}
	for _, o := range w.Output {
		enc.visit(o.Guard)
		enc.visit(o.Val)
	}
	for _, p := range w.Shadow {
		for _, c := range p {
			enc.visit(c)
		}
	}
}

func (enc *encoder) ref(e *expr.Expr) Ref {
	if e == nil {
		return 0
	}
	return enc.index[e] + 1
}

func (enc *encoder) object(o *core.WireObject) Object {
	cells := make([]Ref, len(o.Cells))
	for i, c := range o.Cells {
		cells[i] = enc.ref(c)
	}
	return Object{Cells: cells, Width: o.Width}
}

func (enc *encoder) state(w *core.StateWire) State {
	st := State{
		Mult:    w.Mult,
		NSyms:   w.NSyms,
		HistPos: w.HistPos,
		JustRet: w.JustRet,
		Allocs:  w.Allocs,
		History: w.History,
	}
	st.Frames = make([]Frame, len(w.Frames))
	for i, f := range w.Frames {
		cf := Frame{Fn: f.Fn, PC: f.PC, RetDst: f.RetDst}
		if len(f.Locals) > 0 {
			cf.Locals = make([]Value, len(f.Locals))
			for j, v := range f.Locals {
				cf.Locals[j] = Value{E: enc.ref(v.E), Depth: v.Depth, Local: v.Local}
			}
		}
		if len(f.Objects) > 0 {
			cf.Objects = make([]*Object, len(f.Objects))
			for j, o := range f.Objects {
				if o != nil {
					obj := enc.object(o)
					cf.Objects[j] = &obj
				}
			}
		}
		st.Frames[i] = cf
	}
	if len(w.PC) > 0 {
		st.PC = make([]Ref, len(w.PC))
		for i, c := range w.PC {
			st.PC[i] = enc.ref(c)
		}
	}
	if len(w.Heap) > 0 {
		st.Heap = make([]HeapEntry, len(w.Heap))
		for i, h := range w.Heap {
			st.Heap[i] = HeapEntry{ID: h.ID, Obj: enc.object(&h.Obj)}
		}
	}
	if len(w.Output) > 0 {
		st.Output = make([]Out, len(w.Output))
		for i, o := range w.Output {
			st.Output[i] = Out{Guard: enc.ref(o.Guard), Val: enc.ref(o.Val)}
		}
	}
	if len(w.Shadow) > 0 {
		st.Shadow = make([][]Ref, len(w.Shadow))
		for i, p := range w.Shadow {
			refs := make([]Ref, len(p))
			for j, c := range p {
				refs[j] = enc.ref(c)
			}
			st.Shadow[i] = refs
		}
	}
	return st
}

// DecodeStates re-interns the snapshot's expression table through b and
// rebuilds the wire states with live expression pointers. The builder
// should be the one the resuming engines share, so every decoded node is
// a hash-cons hit or a fresh canonical node in the right ID space.
func (sn *Snapshot) DecodeStates(b *expr.Builder) ([]*core.StateWire, error) {
	exprs := make([]*expr.Expr, len(sn.Exprs))
	for i, n := range sn.Exprs {
		var val uint64
		if n.V != "" {
			v, err := strconv.ParseUint(n.V, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("node %d: bad value %q", i, n.V)
			}
			val = v
		}
		kids := make([]*expr.Expr, len(n.Kids))
		for j, r := range n.Kids {
			if int(r) >= i {
				return nil, fmt.Errorf("node %d: kid %d is not a predecessor", i, r)
			}
			kids[j] = exprs[r]
		}
		e, err := b.Intern(expr.Kind(n.K), n.W, val, n.A, n.N, kids)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		exprs[i] = e
	}
	dec := &decoder{exprs: exprs}
	out := make([]*core.StateWire, len(sn.States))
	for i := range sn.States {
		w, err := dec.state(&sn.States[i])
		if err != nil {
			return nil, fmt.Errorf("state %d: %w", i, err)
		}
		out[i] = w
	}
	return out, nil
}

type decoder struct {
	exprs []*expr.Expr
}

func (dec *decoder) ref(r Ref) (*expr.Expr, error) {
	if r == 0 {
		return nil, nil
	}
	if int(r) > len(dec.exprs) {
		return nil, fmt.Errorf("expression reference %d out of range", r)
	}
	return dec.exprs[r-1], nil
}

func (dec *decoder) refs(rs []Ref) ([]*expr.Expr, error) {
	if rs == nil {
		return nil, nil
	}
	out := make([]*expr.Expr, len(rs))
	for i, r := range rs {
		e, err := dec.ref(r)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func (dec *decoder) object(o *Object) (*core.WireObject, error) {
	cells, err := dec.refs(o.Cells)
	if err != nil {
		return nil, err
	}
	return &core.WireObject{Cells: cells, Width: o.Width}, nil
}

func (dec *decoder) state(st *State) (*core.StateWire, error) {
	w := &core.StateWire{
		Mult:    st.Mult,
		NSyms:   st.NSyms,
		HistPos: st.HistPos,
		JustRet: st.JustRet,
		Allocs:  st.Allocs,
		History: st.History,
	}
	var err error
	if w.PC, err = dec.refs(st.PC); err != nil {
		return nil, err
	}
	w.Frames = make([]core.WireFrame, len(st.Frames))
	for i, f := range st.Frames {
		wf := core.WireFrame{Fn: f.Fn, PC: f.PC, RetDst: f.RetDst}
		wf.Locals = make([]core.WireValue, len(f.Locals))
		for j, v := range f.Locals {
			e, err := dec.ref(v.E)
			if err != nil {
				return nil, err
			}
			wf.Locals[j] = core.WireValue{E: e, Depth: v.Depth, Local: v.Local}
		}
		wf.Objects = make([]*core.WireObject, len(f.Objects))
		for j, o := range f.Objects {
			if o == nil {
				continue
			}
			if wf.Objects[j], err = dec.object(o); err != nil {
				return nil, err
			}
		}
		w.Frames[i] = wf
	}
	if len(st.Heap) > 0 {
		w.Heap = make([]core.WireHeapEntry, len(st.Heap))
		for i, h := range st.Heap {
			o, err := dec.object(&h.Obj)
			if err != nil {
				return nil, err
			}
			w.Heap[i] = core.WireHeapEntry{ID: h.ID, Obj: *o}
		}
	}
	if len(st.Output) > 0 {
		w.Output = make([]core.WireOut, len(st.Output))
		for i, o := range st.Output {
			g, err := dec.ref(o.Guard)
			if err != nil {
				return nil, err
			}
			v, err := dec.ref(o.Val)
			if err != nil {
				return nil, err
			}
			w.Output[i] = core.WireOut{Guard: g, Val: v}
		}
	}
	if st.Shadow != nil {
		w.Shadow = make([][]*expr.Expr, len(st.Shadow))
		for i, p := range st.Shadow {
			if w.Shadow[i], err = dec.refs(p); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// fileName returns the snapshot's name inside its directory.
func fileName(seq uint64) string { return fmt.Sprintf("snap-%08d.ckpt", seq) }

// Write persists the snapshot atomically (temp file + rename into dir,
// which is created if needed) and prunes all but the newest keepSnapshots
// verified snapshots. It returns the snapshot's final path.
func Write(dir string, sn *Snapshot) (string, error) {
	sn.Schema = Schema
	body, err := json.Marshal(sn)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	data := make([]byte, 0, len(body)+2*sha256.Size+2)
	data = append(data, body...)
	data = append(data, '\n')
	data = append(data, hex.EncodeToString(sum[:])...)
	data = append(data, '\n')
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fileName(sn.Seq))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	prune(dir, sn.Seq)
	return path, nil
}

// prune best-effort deletes snapshots older than the keepSnapshots newest
// (by sequence number, relative to the one just written).
func prune(dir string, latest uint64) {
	for _, seq := range listSeqs(dir) {
		if seq+keepSnapshots <= latest {
			_ = os.Remove(filepath.Join(dir, fileName(seq)))
		}
	}
}

// listSeqs returns the sequence numbers of the snapshot files present in
// dir, ascending.
func listSeqs(dir string) []uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, ent := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(ent.Name(), "snap-%d.ckpt", &seq); n == 1 && err == nil && ent.Name() == fileName(seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// LoadLatest returns the newest snapshot in dir that passes the checksum
// and schema checks, skipping over corrupt or torn newer ones (a crash
// can interrupt Write at any byte). It returns (nil, nil) when the
// directory holds no usable snapshot — the caller starts fresh.
func LoadLatest(dir string) (*Snapshot, error) {
	seqs := listSeqs(dir)
	for i := len(seqs) - 1; i >= 0; i-- {
		sn, err := load(filepath.Join(dir, fileName(seqs[i])))
		if err != nil {
			continue
		}
		return sn, nil
	}
	return nil, nil
}

// load reads and verifies one snapshot file.
func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, trailer, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("%s: no checksum trailer", path)
	}
	sum := sha256.Sum256(body)
	if want := hex.EncodeToString(sum[:]); string(bytes.TrimSpace(trailer)) != want {
		return nil, fmt.Errorf("%s: checksum mismatch", path)
	}
	var sn Snapshot
	if err := json.Unmarshal(body, &sn); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sn.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q (want %q)", path, sn.Schema, Schema)
	}
	return &sn, nil
}
