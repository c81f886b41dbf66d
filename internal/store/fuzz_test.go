package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"symmerge/internal/expr"
	"symmerge/internal/solver"
)

// seedSegmentBytes renders a well-formed segment file (payload + checksum)
// so the fuzzer starts from the interesting region of the input space.
func seedSegmentBytes(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.(*testing.F).TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s.InsertCex(expr.FP{Hi: 1, Lo: 2}, true,
		[]solver.StableAssign{{Name: "x", Width: 8, Val: 200}})
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzStoreRoundTrip drops arbitrary bytes in place of a segment file and
// opens the store: load must never panic, never error out of Open, and
// never return an ill-formed verdict — corrupt input degrades to
// quarantine/skip counts.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not json at all\ndeadbeef\n"))
	f.Add([]byte(`{"schema":"symmerge-store/v1","tag":"engine/v1"}`)) // no checksum line
	seed := seedSegmentBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // torn
	f.Add(seed[:len(seed)-3]) // checksum truncated
	// Checksummed-but-hostile payloads: valid files whose JSON carries
	// zero or overflowing fingerprints, malformed models, and a legacy
	// summary entry with junk kinds and out-of-range refs.
	var hostiles [][]byte
	for _, hostile := range []segment{
		{Schema: Schema, Tag: DefaultTag, Cex: []wireCex{{Hi: "0", Lo: "0", Sat: true}}},
		{Schema: Schema, Tag: DefaultTag, Cex: []wireCex{{Hi: "18446744073709551616", Lo: "1"}}},
		{Schema: Schema, Tag: DefaultTag, Cex: []wireCex{{Hi: "5", Lo: "6", Sat: true,
			Model: []solver.StableAssign{{Name: "", Width: 99, Val: 1}}}}},
	} {
		payload, err := json.Marshal(hostile)
		if err != nil {
			f.Fatal(err)
		}
		hostiles = append(hostiles, payload)
	}
	hostiles = append(hostiles, []byte(`{"schema":"symmerge-store/v1","tag":"engine/v1",`+
		`"sums":[{"sig":"s","rest":"r","x":[{"k":200},{"k":3,"c":[9]}],"en":[{"r":77}]}]}`))
	for _, payload := range hostiles {
		dir := f.TempDir()
		path := filepath.Join(dir, "x")
		if err := writeFileChecksummed(path, payload); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open must degrade, not fail, on segment corruption: %v", err)
		}
		// Whatever loaded must be internally consistent: fingerprints
		// non-zero, models well-formed.
		s.mu.Lock()
		for fp, r := range s.cex {
			if fp.IsZero() {
				t.Error("zero fingerprint loaded")
			}
			for _, a := range r.model {
				if a.Name == "" || a.Width > 64 {
					t.Errorf("ill-formed model assignment loaded: %+v", a)
				}
			}
		}
		s.mu.Unlock()
		// The store must remain writable after swallowing garbage.
		s.InsertCex(expr.FP{Hi: 11, Lo: 12}, false, nil)
		if err := s.Flush(); err != nil {
			t.Fatalf("Flush after corrupt load: %v", err)
		}
		if _, err := Open(dir, Options{}); err != nil {
			t.Fatalf("reopen after corrupt load: %v", err)
		}
	})
}
