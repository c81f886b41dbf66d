package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"symmerge/internal/ir"
	"symmerge/internal/lang"
)

const testProg = `void main() {
    byte c = argchar(1, 0);
    if (c == 'a') { putchar('A'); } else { putchar('B'); }
    halt(7);
}`

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// emit runs the interpreter to derive true expectations and adds the test —
// a stand-in for the engine's model evaluation in these unit tests.
func emit(t *testing.T, w *Writer, p *ir.Program, args [][]byte) {
	t.Helper()
	res, err := ir.Interp(p, args, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(args, nil, res.Output, res.Exit, res.AssertFailed, res.Msg)
}

func TestWriterRoundTrip(t *testing.T) {
	p := compile(t, testProg)
	dir := t.TempDir()
	w, err := NewWriter(dir, p, "unit", "merge=none")
	if err != nil {
		t.Fatal(err)
	}
	emit(t, w, p, [][]byte{[]byte("a")})
	emit(t, w, p, [][]byte{[]byte("b")})
	emit(t, w, p, [][]byte{[]byte("a")}) // duplicate
	man, err := w.Finalize(make([]bool, p.NumLocations()), true)
	if err != nil {
		t.Fatal(err)
	}
	if man.Emitted != 3 || man.Deduped != 1 || len(man.Tests) != 2 {
		t.Fatalf("manifest counts: emitted=%d deduped=%d tests=%d", man.Emitted, man.Deduped, len(man.Tests))
	}
	m2, tests, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Program.Hash != ProgramHash(p) || len(tests) != 2 {
		t.Fatalf("load: hash/tests mismatch")
	}
	for _, tc := range tests {
		if tc.Covered == "" {
			t.Fatalf("test %s has empty covered set", tc.ID)
		}
	}
}

// TestWriterConcurrentAdd: Add is safe for concurrent use. Goroutines
// adding the same inputs leave one file per input, and every emission is
// counted.
func TestWriterConcurrentAdd(t *testing.T) {
	p := compile(t, testProg)
	w, err := NewWriter(t.TempDir(), p, "unit", "merge=none")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, inputs = 4, 8
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range inputs {
				w.Add([][]byte{{byte('a' + i)}}, nil, nil, 7, false, "")
			}
		}()
	}
	wg.Wait()
	if emitted, deduped := w.Counts(); emitted != goroutines*inputs || deduped != (goroutines-1)*inputs {
		t.Errorf("counts: emitted=%d deduped=%d, want %d and %d", emitted, deduped, goroutines*inputs, (goroutines-1)*inputs)
	}
	man, err := w.Finalize(make([]bool, p.NumLocations()), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Tests) != inputs {
		t.Errorf("manifest lists %d tests, want %d", len(man.Tests), inputs)
	}
}

func TestReplayDetectsDrift(t *testing.T) {
	p := compile(t, testProg)
	dir := t.TempDir()
	w, err := NewWriter(dir, p, "unit", "merge=none")
	if err != nil {
		t.Fatal(err)
	}
	emit(t, w, p, [][]byte{[]byte("a")})
	// A wrong expectation: the engine "predicted" output X for input b.
	w.Add([][]byte{[]byte("b")}, nil, []byte("X"), 7, false, "")
	if _, err := w.Finalize(make([]bool, p.NumLocations()), true); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 1 || rep.Mismatches[0].Field != "output" {
		t.Fatalf("want exactly one output mismatch, got %v", rep.Mismatches)
	}
}

func TestReplayRefusesWrongProgram(t *testing.T) {
	p := compile(t, testProg)
	dir := t.TempDir()
	w, err := NewWriter(dir, p, "unit", "")
	if err != nil {
		t.Fatal(err)
	}
	emit(t, w, p, [][]byte{[]byte("a")})
	if _, err := w.Finalize(make([]bool, p.NumLocations()), true); err != nil {
		t.Fatal(err)
	}
	other := compile(t, `void main() { putchar('z'); }`)
	if _, err := Replay(dir, other); err == nil || !strings.Contains(err.Error(), "generated from program") {
		t.Fatalf("want program-hash refusal, got %v", err)
	}
}

func TestLoadRejectsTamperedTest(t *testing.T) {
	p := compile(t, testProg)
	dir := t.TempDir()
	w, err := NewWriter(dir, p, "unit", "")
	if err != nil {
		t.Fatal(err)
	}
	emit(t, w, p, [][]byte{[]byte("a")})
	man, err := w.Finalize(make([]bool, p.NumLocations()), true)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the stored input: the recorded ID no longer matches.
	path := filepath.Join(dir, man.Tests[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"args": [`+"\n"+`    "YQ=="`, `"args": [`+"\n"+`    "Yg=="`, 1)
	if tampered == string(data) {
		t.Fatal("tamper replacement did not apply")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "identity mismatch") {
		t.Fatalf("want identity mismatch, got %v", err)
	}
}

// TestParityToleratesSkippedErrorTests: coverage reached only by skipped
// (non-replayable) error paths must not fail parity — but coverage outside
// the symbolic set still must.
func TestParityToleratesSkippedErrorTests(t *testing.T) {
	p := compile(t, testProg)
	dir := t.TempDir()
	w, err := NewWriter(dir, p, "unit", "")
	if err != nil {
		t.Fatal(err)
	}
	emit(t, w, p, [][]byte{[]byte("a")})
	w.SkipUnreplayable()
	// Symbolic set = everything the replay covers plus one extra location
	// (stands in for the skipped error path's coverage).
	res, err := ir.InterpWith(p, [][]byte{[]byte("a")}, nil, ir.InterpOptions{Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	sym := append([]bool(nil), res.Covered...)
	marked := false
	for i, c := range sym {
		if !c {
			sym[i] = true
			marked = true
			break
		}
	}
	if !marked {
		t.Fatal("test program has no uncovered location to mark")
	}
	if _, err := w.Finalize(sym, true); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissingLocs) != 1 {
		t.Fatalf("want 1 missing location, got %d", len(rep.MissingLocs))
	}
	if !rep.ParityOK() {
		t.Fatal("parity should tolerate missing coverage when tests were skipped at emission")
	}
	rep.Manifest.Skipped = 0
	if rep.ParityOK() {
		t.Fatal("without skips the same gap must fail parity")
	}
}

func TestWriterRejectsSymbolicIntrinsics(t *testing.T) {
	p := compile(t, `void main() { int x = sym_int(); putchar(tobyte(x)); }`)
	if _, err := NewWriter(t.TempDir(), p, "unit", ""); err == nil {
		t.Fatal("want rejection of sym_* program")
	}
}

func TestDirDigestDetectsAnyByteChange(t *testing.T) {
	p := compile(t, testProg)
	dir := t.TempDir()
	w, _ := NewWriter(dir, p, "unit", "")
	emit(t, w, p, [][]byte{[]byte("a")})
	if _, err := w.Finalize(make([]bool, p.NumLocations()), true); err != nil {
		t.Fatal(err)
	}
	d1, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	data, _ := os.ReadFile(path)
	os.WriteFile(path, append(data, ' '), 0o644)
	d2, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("digest did not change after edit")
	}
}

func TestInputIDUnambiguous(t *testing.T) {
	// Length-prefixing must keep ["ab"] distinct from ["a","b"] and from
	// stdin carrying the same bytes.
	ids := map[string]string{}
	cases := []struct {
		name  string
		args  [][]byte
		stdin []byte
	}{
		{"one-arg", [][]byte{[]byte("ab")}, nil},
		{"two-args", [][]byte{[]byte("a"), []byte("b")}, nil},
		{"stdin", nil, []byte("ab")},
		{"arg+stdin", [][]byte{[]byte("a")}, []byte("b")},
		{"empty-args", [][]byte{nil, nil}, nil},
		{"nothing", nil, nil},
	}
	for _, c := range cases {
		id := InputID(c.args, c.stdin)
		if prev, dup := ids[id]; dup {
			t.Fatalf("collision between %s and %s", prev, c.name)
		}
		ids[id] = c.name
	}
}
