// Package corpus is the replayable test-case store: a versioned on-disk
// format for the concrete tests a symbolic exploration generates, a writer
// that streams them out as the engine finishes paths, and a replay oracle
// that executes a stored corpus through the independent IR interpreter
// (internal/ir.InterpWith) and checks every recorded expectation.
//
// Layout: one JSON file per test, named by the hash of its concrete input
// (argv bytes + stdin bytes), plus a manifest.json tying the set together.
// Naming by input hash makes deduplication structural — two explorations
// that reach the same concrete input write the same file — and, because
// test inputs come from canonical minimal models (solver.MinModelIn) and
// expectations are evaluated under those models, a corpus is a pure
// function of the explored path set: re-running with a different search
// strategy or solver state, or across a checkpoint resume, reproduces it
// byte for byte.
//
// Each test records the engine's expectations (output bytes, exit code,
// assert failure) and the covered-location set of its concrete execution.
// Replay re-executes every input and fails on any divergence, and
// additionally checks coverage parity: the union of the tests' concrete
// coverage must equal the symbolic run's covered set stored in the
// manifest — the end-to-end evidence that merged exploration visits
// exactly the concrete behaviors unmerged exploration does.
package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"symmerge/internal/checkpoint/faultinject"
	"symmerge/internal/ir"
)

// Schema identifies the on-disk format; bump on incompatible changes.
const Schema = "symmerge-corpus/v1"

// FormatVersion is the per-test file format version.
const FormatVersion = 1

// Test is one persisted test case. Byte slices render as base64 in JSON.
type Test struct {
	Version int    `json:"version"`
	ID      string `json:"id"` // input hash; also the file's base name

	// Concrete input.
	Args  [][]byte `json:"args"`
	Stdin []byte   `json:"stdin,omitempty"`

	// Expectations, as predicted by the symbolic engine's model evaluation
	// (not by the interpreter — replay is a genuine cross-check).
	Output       []byte `json:"output,omitempty"`
	Exit         int64  `json:"exit"`
	AssertFailed bool   `json:"assert_failed,omitempty"`
	AssertMsg    string `json:"assert_msg,omitempty"`

	// Covered is the covered-location set (ir.Program.LocIndex space) of
	// this input's concrete execution, recorded at write time as a compact
	// sorted range list ("0-14,16,19-42").
	Covered string `json:"covered"`
}

// Entry is one manifest row.
type Entry struct {
	ID   string `json:"id"`
	File string `json:"file"`
}

// ProgramInfo pins the corpus to the program it was generated from.
type ProgramInfo struct {
	Name string `json:"name,omitempty"`
	// Hash is the SHA-256 of the program's IR disassembly; replay refuses
	// a corpus whose hash does not match the program it is given.
	Hash      string `json:"hash"`
	Locations int    `json:"locations"`
}

// Manifest ties a corpus directory together.
type Manifest struct {
	Schema  string      `json:"schema"`
	Program ProgramInfo `json:"program"`
	// Config is the canonical descriptor of the producing exploration
	// (merge regime, QCE, strategy, seed, input sizes). Scheduling knobs
	// (budgets, checkpointing) are deliberately excluded: they must not
	// change the corpus.
	Config string `json:"config"`
	// Completed records whether the producing exploration drained its
	// worklist; a partial (budget-stopped) corpus makes no coverage-parity
	// or determinism promises.
	Completed bool `json:"completed"`
	// Emitted counts tests received by the writer (pre-dedup); Deduped
	// counts duplicates dropped by input-hash identity; Skipped counts
	// error tests excluded because their failure is an engine analysis
	// (bounds checking, solver budget) with no concrete-replay
	// counterpart.
	Emitted int `json:"emitted"`
	Deduped int `json:"deduped"`
	Skipped int `json:"skipped,omitempty"`
	// SymCovered is the symbolic exploration's covered-location set as a
	// sorted range list over LocIndex values — what replay coverage is
	// compared against.
	SymCovered string `json:"sym_covered"`
	// Tests lists the corpus sorted by ID.
	Tests []Entry `json:"tests"`
}

// ManifestName is the manifest's file name inside a corpus directory.
const ManifestName = "manifest.json"

// InputID hashes a concrete input (argv + stdin) into the test's identity:
// the first 16 bytes of SHA-256 over a length-prefixed encoding, hex.
func InputID(args [][]byte, stdin []byte) string {
	h := sha256.New()
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(args)))
	h.Write(n[:])
	for _, a := range args {
		binary.BigEndian.PutUint32(n[:], uint32(len(a)))
		h.Write(n[:])
		h.Write(a)
	}
	binary.BigEndian.PutUint32(n[:], uint32(len(stdin)))
	h.Write(n[:])
	h.Write(stdin)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ProgramHash fingerprints a program by its IR disassembly.
func ProgramHash(p *ir.Program) string {
	sum := sha256.Sum256([]byte(p.String()))
	return hex.EncodeToString(sum[:])
}

// Replayable reports whether a program's tests can be replayed concretely:
// programs drawing on sym_* intrinsics have inputs the corpus format does
// not record and the interpreter cannot provide.
func Replayable(p *ir.Program) bool {
	for _, f := range p.Funcs {
		for i := range f.Instrs {
			switch f.Instrs[i].Op {
			case ir.OpSymInt, ir.OpSymByte, ir.OpSymBool, ir.OpMakeSymArr:
				return false
			}
		}
	}
	return true
}

// Writer streams generated tests into a corpus directory: each Add writes
// the test's file (deduplicated by input hash) immediately, Finalize writes
// the manifest. Add is safe for concurrent use.
type Writer struct {
	mu      sync.Mutex
	dir     string
	prog    *ir.Program
	info    ProgramInfo
	config  string
	seen    map[string]bool
	emitted int
	skipped int // non-replayable error tests, excluded silently
	err     error
}

// NewWriter prepares a corpus directory for prog. name labels the program
// in the manifest (tool name or source file); config is the canonical
// producing-configuration descriptor. The program must be replayable.
func NewWriter(dir string, prog *ir.Program, name, config string) (*Writer, error) {
	if !Replayable(prog) {
		return nil, fmt.Errorf("corpus: program %q uses sym_* intrinsics; its tests cannot be replayed concretely", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Writer{
		dir:    dir,
		prog:   prog,
		info:   ProgramInfo{Name: name, Hash: ProgramHash(prog), Locations: prog.NumLocations()},
		config: config,
		seen:   map[string]bool{},
	}, nil
}

// Add streams one test into the corpus: it computes the input's identity,
// drops duplicates, runs the instrumented interpreter once to record the
// input's covered-location set, and writes the test file. The expectations
// (output, exit, assert) must come from the engine's model evaluation.
// The first I/O or interpreter error sticks and is returned by Finalize.
func (w *Writer) Add(args [][]byte, stdin, output []byte, exit int64, assertFailed bool, assertMsg string) {
	id := InputID(args, stdin)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.emitted++
	if w.seen[id] || w.err != nil {
		return
	}
	w.seen[id] = true
	res, err := ir.InterpWith(w.prog, args, stdin, ir.InterpOptions{Coverage: true})
	if err != nil {
		w.err = fmt.Errorf("corpus: interpreting test %s: %w", id, err)
		return
	}
	t := &Test{
		Version:      FormatVersion,
		ID:           id,
		Args:         args,
		Stdin:        stdin,
		Output:       output,
		Exit:         exit,
		AssertFailed: assertFailed,
		AssertMsg:    assertMsg,
		Covered:      MaskToRanges(res.Covered),
	}
	w.err = writeJSON(filepath.Join(w.dir, id+".json"), t)
}

// SkipUnreplayable records a test the writer deliberately excludes (error
// tests whose failure is an engine analysis, not program semantics).
func (w *Writer) SkipUnreplayable() {
	w.mu.Lock()
	w.skipped++
	w.mu.Unlock()
}

// Counts reports tests received and duplicates dropped so far.
func (w *Writer) Counts() (emitted, deduped int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.emitted, w.emitted - len(w.seen)
}

// Finalize writes the manifest and returns it. symCovered is the symbolic
// run's coverage bitmap (Result.CoverageMask); completed its Completed flag.
func (w *Writer) Finalize(symCovered []bool, completed bool) (*Manifest, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return nil, w.err
	}
	ids := make([]string, 0, len(w.seen))
	for id := range w.seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	m := &Manifest{
		Schema:     Schema,
		Program:    w.info,
		Config:     w.config,
		Completed:  completed,
		Emitted:    w.emitted,
		Deduped:    w.emitted - len(ids),
		Skipped:    w.skipped,
		SymCovered: MaskToRanges(symCovered),
	}
	for _, id := range ids {
		m.Tests = append(m.Tests, Entry{ID: id, File: id + ".json"})
	}
	if err := writeJSON(filepath.Join(w.dir, ManifestName), m); err != nil {
		return nil, err
	}
	return m, nil
}

// MaskToRanges renders a coverage bitmap as a canonical sorted range list:
// maximal runs of set bits as "lo-hi" (or "lo" for singletons), joined by
// commas. "" is the empty set.
func MaskToRanges(mask []bool) string {
	var b strings.Builder
	i := 0
	for i < len(mask) {
		if !mask[i] {
			i++
			continue
		}
		j := i
		for j+1 < len(mask) && mask[j+1] {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&b, "%d", i)
		} else {
			fmt.Fprintf(&b, "%d-%d", i, j)
		}
		i = j + 1
	}
	return b.String()
}

// RangesToMask parses a range list back into a bitmap over n locations.
func RangesToMask(s string, n int) ([]bool, error) {
	out := make([]bool, n)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		lo, hi, ok := strings.Cut(part, "-")
		if !ok {
			hi = lo
		}
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a < 0 || b < a || b >= n {
			return nil, fmt.Errorf("corpus: bad location range %q (program has %d locations)", part, n)
		}
		for i := a; i <= b; i++ {
			out[i] = true
		}
	}
	return out, nil
}

// writeJSON marshals v deterministically (indented, trailing newline) and
// writes it crash-safely: the bytes land in a sibling temp file first and
// are renamed into place, so a process killed at any instant leaves either
// the old file, the new file, or a stray .tmp — never torn JSON at the
// final path. ValidateDir cleans stray temp files up on resume.
func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	// The fault-injection point simulates the pre-crash-safety writer (or a
	// filesystem that tears on power loss): a truncated file at the FINAL
	// path, then death. The resume-time quarantine pass exists for exactly
	// this artifact.
	faultinject.HitWith(faultinject.PointCorpusWrite, func() {
		_ = os.WriteFile(path, data[:len(data)/2], 0o644)
	})
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
