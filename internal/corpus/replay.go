package corpus

// The replay oracle: load a corpus directory, execute every test through
// the independent IR interpreter, and check the recorded expectations and
// the coverage-parity invariant.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"symmerge/internal/ir"
)

// Load reads and validates a corpus directory: the manifest decodes, every
// listed test file decodes, and each test's recorded ID matches the hash of
// its input (so a corrupted or hand-edited file cannot masquerade as its
// name). Tests are returned in manifest (ID) order.
func Load(dir string) (*Manifest, []*Test, error) {
	var m Manifest
	if err := readJSON(filepath.Join(dir, ManifestName), &m); err != nil {
		return nil, nil, err
	}
	if m.Schema != Schema {
		return nil, nil, fmt.Errorf("corpus: %s has schema %q, want %q", dir, m.Schema, Schema)
	}
	tests := make([]*Test, 0, len(m.Tests))
	for _, e := range m.Tests {
		var t Test
		if err := readJSON(filepath.Join(dir, e.File), &t); err != nil {
			return nil, nil, err
		}
		if t.Version != FormatVersion {
			return nil, nil, fmt.Errorf("corpus: test %s has version %d, want %d", e.File, t.Version, FormatVersion)
		}
		if got := InputID(t.Args, t.Stdin); got != t.ID || t.ID != e.ID {
			return nil, nil, fmt.Errorf("corpus: test %s identity mismatch (recorded %s, input hashes to %s)", e.File, t.ID, got)
		}
		tests = append(tests, &t)
	}
	return &m, tests, nil
}

// Mismatch is one replay divergence: a recorded expectation the concrete
// re-execution did not meet.
type Mismatch struct {
	TestID string
	Field  string // "output", "exit", "assert", "assert_msg", "assume", "coverage"
	Want   string
	Got    string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("test %s: %s: want %s, got %s", m.TestID, m.Field, m.Want, m.Got)
}

// Report is the outcome of replaying a corpus.
type Report struct {
	Tests      int
	Mismatches []Mismatch
	// Manifest is the corpus manifest the replay ran against.
	Manifest *Manifest

	// Coverage parity: the union of the tests' concrete covered sets
	// against the symbolic run's covered set from the manifest.
	SymCovered    int
	ReplayCovered int
	// MissingLocs are locations the symbolic run covered that no replay
	// reached; ExtraLocs the reverse. Parity holds iff both are empty.
	MissingLocs []int
	ExtraLocs   []int
}

// ParityOK reports whether replay coverage matches the symbolic covered
// set. When the emission skipped non-replayable error tests (bounds /
// solver-budget paths, Manifest.Skipped > 0) their coverage legitimately
// has no replaying witness, so only extra replay coverage — locations the
// symbolic run never reached — counts against parity; a corpus with no
// skips is held to exact equality.
func (r *Report) ParityOK() bool {
	if r.Manifest != nil && r.Manifest.Skipped > 0 {
		return len(r.ExtraLocs) == 0
	}
	return len(r.MissingLocs) == 0 && len(r.ExtraLocs) == 0
}

// OK reports a fully clean replay: no mismatches and coverage parity.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 && r.ParityOK() }

// Summary renders a one-paragraph human-readable report.
func (r *Report) Summary() string {
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("%d mismatches, %d/%d missing/extra locations",
			len(r.Mismatches), len(r.MissingLocs), len(r.ExtraLocs))
	}
	return fmt.Sprintf("replayed %d tests: %s (coverage: replay %d vs symbolic %d locations)",
		r.Tests, status, r.ReplayCovered, r.SymCovered)
}

// Replay executes every test of the corpus at dir through the IR
// interpreter, asserting each recorded expectation (output bytes, exit
// code, assert failure and message, the per-test covered set) and the
// corpus-wide coverage-parity invariant. It returns an error only for
// structural problems (unreadable corpus, program mismatch); semantic
// divergences are reported as Mismatches.
func Replay(dir string, prog *ir.Program) (*Report, error) {
	m, tests, err := Load(dir)
	if err != nil {
		return nil, err
	}
	if h := ProgramHash(prog); h != m.Program.Hash {
		return nil, fmt.Errorf("corpus: %s was generated from program %s…, replaying against %s…; regenerate the corpus",
			dir, m.Program.Hash[:12], h[:12])
	}
	sym, err := RangesToMask(m.SymCovered, prog.NumLocations())
	if err != nil {
		return nil, err
	}
	rep := &Report{Manifest: m}
	for _, c := range sym {
		if c {
			rep.SymCovered++
		}
	}
	rep.Tests = len(tests)
	union := make([]bool, prog.NumLocations())
	for _, t := range tests {
		res, err := ir.InterpWith(prog, t.Args, t.Stdin, ir.InterpOptions{Coverage: true})
		if err != nil {
			return nil, fmt.Errorf("corpus: replaying test %s: %w", t.ID, err)
		}
		rep.check(t, res)
		for i, c := range res.Covered {
			union[i] = union[i] || c
		}
	}
	for i := range union {
		switch {
		case union[i] && !sym[i]:
			rep.ExtraLocs = append(rep.ExtraLocs, i)
		case !union[i] && sym[i]:
			rep.MissingLocs = append(rep.MissingLocs, i)
		}
		if union[i] {
			rep.ReplayCovered++
		}
	}
	return rep, nil
}

// check compares one test's recorded expectations against its concrete
// re-execution.
func (r *Report) check(t *Test, res *ir.InterpResult) {
	bad := func(field, want, got string) {
		r.Mismatches = append(r.Mismatches, Mismatch{TestID: t.ID, Field: field, Want: want, Got: got})
	}
	if res.AssumeFailed {
		bad("assume", "a completed path", "assume-stopped run")
		return
	}
	if string(res.Output) != string(t.Output) {
		bad("output", fmt.Sprintf("%q", t.Output), fmt.Sprintf("%q", res.Output))
	}
	if res.Exit != t.Exit {
		bad("exit", fmt.Sprint(t.Exit), fmt.Sprint(res.Exit))
	}
	if res.AssertFailed != t.AssertFailed {
		bad("assert", fmt.Sprint(t.AssertFailed), fmt.Sprint(res.AssertFailed))
	} else if t.AssertFailed && res.Msg != t.AssertMsg {
		bad("assert_msg", fmt.Sprintf("%q", t.AssertMsg), fmt.Sprintf("%q", res.Msg))
	}
	if got := MaskToRanges(res.Covered); got != t.Covered {
		bad("coverage", t.Covered, got)
	}
}

// DirDigest hashes a corpus directory's contents — every regular file,
// sorted by name, name and bytes — into one hex digest. Two corpora are
// byte-identical iff their digests match; the determinism suite compares
// digests across repeated runs.
func DirDigest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("corpus: decoding %s: %w", path, err)
	}
	return nil
}
