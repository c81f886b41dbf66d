package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symmerge/internal/expr"
	"symmerge/internal/solver"
)

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func fp(hi, lo uint64) expr.FP { return expr.FP{Hi: hi, Lo: lo} }

func TestCexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	model := []solver.StableAssign{{Name: "x", Width: 8, Val: 4}, {Name: "y", Width: 0, Val: 1}}
	s.InsertCex(fp(1, 2), true, model)
	s.InsertCex(fp(3, 4), false, nil)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Reopen: both verdicts and the full model must survive.
	s2 := openT(t, dir, Options{})
	sat, m, ok := s2.LookupCex(fp(1, 2))
	if !ok || !sat || len(m) != 2 || m[0].Name != "x" || m[0].Val != 4 || m[1].Name != "y" {
		t.Fatalf("sat entry did not round-trip: ok=%v sat=%v m=%v", ok, sat, m)
	}
	if sat, _, ok := s2.LookupCex(fp(3, 4)); !ok || sat {
		t.Fatalf("unsat entry did not round-trip: ok=%v sat=%v", ok, sat)
	}
	if _, _, ok := s2.LookupCex(fp(9, 9)); ok {
		t.Fatal("phantom entry")
	}
	if st := s2.Stats(); st.CexLoaded != 2 || st.CexEntries != 2 {
		t.Fatalf("stats after reload: %+v", st)
	}
}

// legacySegment is a segment as written while the store also persisted
// function summaries: two verdicts next to a "sums" entry, byte for byte.
const legacySegment = `{"schema":"symmerge-store/v1","tag":"engine/v1",` +
	`"cex":[{"h":"1","l":"2","s":true,"m":[{"n":"x","w":8,"v":"4"}]},{"h":"3","l":"4"}],` +
	`"sums":[{"sig":"f(code)","rest":"0/0/0|s0,","x":[{"k":1,"w":8,"n":"p!0_8"},{"k":0,"w":8,"v":"1"},` +
	`{"k":12,"w":8,"c":[2,1]},{"k":0,"w":8,"v":"10"},{"k":8,"c":[1,4]},{"k":1,"w":8,"n":"arg0_0"},` +
	`{"k":0,"w":8,"v":"65"},{"k":7,"c":[6,7]},{"k":12,"w":8,"c":[1,6]},{"k":0,"w":8},{"k":7,"c":[1,10]}],` +
	`"ph":[1],"en":[{"pc":[5,8],"r":3,"o":[{"g":5,"v":1},{"v":6}],"w":[{"p":1,"c":3,"v":9}],` +
	`"c":[{"o":0,"p":2},{"o":1,"p":0}]},{"pc":[11],"k":2,"e":{"o":0,"p":7,"m":"division by zero"}}]}]}`

// TestLegacySegmentKeepsVerdicts: a store written while summaries
// were persisted still serves every verdict under the unchanged schema and
// tag, and the next compaction rewrites it without the summaries.
func TestLegacySegmentKeepsVerdicts(t *testing.T) {
	dir := t.TempDir()
	mdata, err := json.Marshal(manifest{Schema: Schema})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileChecksummed(filepath.Join(dir, "MANIFEST.json"), mdata); err != nil {
		t.Fatal(err)
	}
	if err := writeFileChecksummed(filepath.Join(dir, segName(0)), []byte(legacySegment)); err != nil {
		t.Fatal(err)
	}

	s := openT(t, dir, Options{CompactAt: 1})
	if st := s.Stats(); st.CexLoaded != 2 || st.BadEntries != 0 || st.Quarantined != 0 || st.StaleSegs != 0 {
		t.Fatalf("legacy segment not loaded cleanly: %+v", st)
	}
	sat, m, ok := s.LookupCex(fp(1, 2))
	if !ok || !sat || len(m) != 1 || m[0].Name != "x" || m[0].Val != 4 {
		t.Fatalf("legacy sat verdict: ok=%v sat=%v m=%v", ok, sat, m)
	}
	if sat, _, ok := s.LookupCex(fp(3, 4)); !ok || sat {
		t.Fatalf("legacy unsat verdict: ok=%v sat=%v", ok, sat)
	}

	// A second segment crosses CompactAt, so this flush compacts both
	// into one segment rewritten from memory.
	s.InsertCex(fp(5, 6), false, nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("flush did not compact: %+v", st)
	}
	segs := s.listSegments()
	if len(segs) != 1 {
		t.Fatalf("segments after compaction: %v", segs)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := verifyChecksum(data)
	if !ok {
		t.Fatal("compacted segment fails its checksum")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(payload, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["sums"]; ok {
		t.Fatalf("compacted segment still carries summaries: %s", payload)
	}
	if st := openT(t, dir, Options{}).Stats(); st.CexLoaded != 3 {
		t.Fatalf("verdicts after compaction and reopen: %+v", st)
	}
}

func TestSchemaRefusal(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.InsertCex(fp(1, 1), true, nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the manifest under a bumped schema: Open must refuse, same
	// discipline as checkpoint resume.
	data, err := json.Marshal(manifest{Schema: "symmerge-store/v999"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileChecksummed(filepath.Join(dir, "MANIFEST.json"), data); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a store written under a different schema")
	} else if !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("refusal error does not explain itself: %v", err)
	}
}

func TestStaleTagRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Tag: "engine/v1"})
	s.InsertCex(fp(1, 1), true, nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// An "upgraded" engine (new canonical-form generation) must not reuse
	// entries fingerprinted under the old rules.
	s2 := openT(t, dir, Options{Tag: "engine/v2"})
	if _, _, ok := s2.LookupCex(fp(1, 1)); ok {
		t.Fatal("stale-tag verdict was silently reused")
	}
	st := s2.Stats()
	if st.StaleSegs == 0 {
		t.Fatalf("stale segment not counted: %+v", st)
	}
	if st.CexEntries != 0 {
		t.Fatalf("stale entries loaded: %+v", st)
	}

	// Same tag still loads.
	s3 := openT(t, dir, Options{Tag: "engine/v1"})
	if _, _, ok := s3.LookupCex(fp(1, 1)); !ok {
		t.Fatal("matching-tag verdict lost")
	}
}

func TestTornSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.InsertCex(fp(1, 1), true, nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.InsertCex(fp(2, 2), false, nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Tear the second segment in half.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	if _, _, ok := s2.LookupCex(fp(1, 1)); !ok {
		t.Fatal("intact segment lost alongside the torn one")
	}
	if _, _, ok := s2.LookupCex(fp(2, 2)); ok {
		t.Fatal("torn segment's entry resurrected")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantine count: %+v", st)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("torn segment not renamed aside: %v", err)
	}
	// A third open must not re-quarantine (the file is gone).
	if st := openT(t, dir, Options{}).Stats(); st.Quarantined != 0 {
		t.Fatalf("quarantine repeated: %+v", st)
	}
}

func TestCorruptChecksumQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.InsertCex(fp(7, 7), true, []solver.StableAssign{{Name: "x", Width: 8, Val: 1}})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff // flip a payload byte; the digest no longer matches
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if _, _, ok := s2.LookupCex(fp(7, 7)); ok {
		t.Fatal("corrupt segment's entry reused")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantine count: %+v", st)
	}
}

func TestCompactionBoundsSegments(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactAt: 3})
	for i := 0; i < 10; i++ {
		s.InsertCex(fp(uint64(i+1), 1), true, nil)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 10 flushes with CompactAt=3: %+v", st)
	}
	if st.Segments > 3+1 {
		t.Fatalf("segment count unbounded: %+v", st)
	}
	// All entries survive compaction, across a reopen.
	s2 := openT(t, dir, Options{CompactAt: 3})
	for i := 0; i < 10; i++ {
		if _, _, ok := s2.LookupCex(fp(uint64(i+1), 1)); !ok {
			t.Fatalf("entry %d lost in compaction", i+1)
		}
	}
}

func TestCexEvictionBound(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{MaxCexEntries: 100})
	for i := 0; i < 1000; i++ {
		s.InsertCex(fp(uint64(i+1), 2), i%2 == 0, nil)
	}
	st := s.Stats()
	if st.CexEntries > 100 {
		t.Fatalf("capacity bound not enforced: %d entries", st.CexEntries)
	}
	if st.Evicted == 0 {
		t.Fatal("no evictions counted")
	}
	// Newest entries survive.
	if _, _, ok := s.LookupCex(fp(1000, 2)); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestFlushNothingIsNoop(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 0 || st.Flushes != 0 {
		t.Fatalf("empty flush wrote a segment: %+v", st)
	}
}
