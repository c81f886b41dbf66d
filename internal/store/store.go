// Package store is the cross-run persistence layer behind the symxd
// daemon: an on-disk, crash-safe store of solver verdicts (the
// counterexample cache, keyed by 128-bit stable expression fingerprints),
// so repeat and near-repeat programs skip most solver work in any later
// job, process, or machine that opens the same directory.
//
// The disk discipline mirrors internal/checkpoint: every file is one line
// of JSON followed by one line with the hex SHA-256 of the JSON bytes,
// written to a temp file in the same directory and renamed into place. A
// file is either entirely present or entirely absent; a torn or corrupted
// file fails its digest, is renamed aside with a .quarantine suffix, and
// the load continues — persistence is an accelerator, and a damaged store
// degrades to a cold one, never to wrong results or a crash.
//
// Layout: MANIFEST.json carries the schema; data lives in numbered segment
// files (seg-%08d.seg), each an append batch from one Flush. Open refuses a
// directory whose manifest declares a different schema (the same refusal
// discipline as checkpoint resume: a stale store must never be silently
// misread), and skips — counting them as stale — segments written under a
// different engine tag (the canonical-form generation: entries fingerprint
// expressions after the producer's rewrite rules, so a different rule
// generation means the keys no longer mean the same thing). Flush compacts
// when the segment count grows past a threshold, dropping stale, evicted,
// and duplicate entries, which keeps the directory bounded under sustained
// daemon traffic.
package store

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
	"sync"

	"symmerge/internal/expr"
	"symmerge/internal/solver"
)

// Schema is the store wire-format identifier. Bump on any incompatible
// change; Open refuses directories written under another schema.
const Schema = "symmerge-store/v1"

// DefaultTag is the current engine tag: the generation of the expression
// canonical form (rewrite rules + fingerprint definition). Segments written
// under a different tag are rejected on load. Bump when either changes
// meaning.
const DefaultTag = "engine/v1"

// Options configures a Store.
type Options struct {
	// Tag overrides DefaultTag (tests use this to simulate an engine
	// upgrade against an old store).
	Tag string
	// MaxCexEntries bounds the in-memory (and, after compaction, on-disk)
	// verdict count; 0 selects the default. When full, the oldest half is
	// dropped — same two-generation shape as the in-memory cache.
	MaxCexEntries int
	// CompactAt is the segment count that triggers compaction on Flush or
	// Open; 0 selects the default.
	CompactAt int
}

const (
	defaultMaxCex    = 1 << 20
	defaultCompactAt = 8
)

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	CexEntries  int    // live persisted verdicts
	Segments    int    // segment files on disk
	CexLoaded   int    // verdicts loaded by Open
	Quarantined int    // files renamed aside (torn/corrupt/foreign schema)
	StaleSegs   int    // segments rejected for a mismatched engine tag
	BadEntries  int    // individual entries skipped by validation
	Evicted     int    // verdicts dropped by the capacity bound
	Flushes     uint64 // Flush calls that wrote a segment
	Compactions uint64
	LookupHits  uint64 // LookupCex hits (the daemon's warm counter feeds on this)
	Inserts     uint64
}

type cexRec struct {
	sat   bool
	model []solver.StableAssign
	seq   uint64 // insertion order, for oldest-half eviction
}

// Store is safe for concurrent use; LookupCex/InsertCex sit on the
// solver's miss path (after the in-memory ID cache), so a single mutex is
// plenty.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cex      map[expr.FP]*cexRec
	cexOrder []expr.FP // insertion order; may contain evicted strays
	dirtyCex []expr.FP
	nextSeg  uint64
	seqNo    uint64
	stats    Stats
}

// Open opens (creating if needed) the store directory, loading every
// readable segment. A manifest declaring a different schema is a hard
// error; everything else degrades gracefully (quarantine / skip / count).
func Open(dir string, opts Options) (*Store, error) {
	if opts.Tag == "" {
		opts.Tag = DefaultTag
	}
	if opts.MaxCexEntries <= 0 {
		opts.MaxCexEntries = defaultMaxCex
	}
	if opts.CompactAt <= 0 {
		opts.CompactAt = defaultCompactAt
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		cex:  make(map[expr.FP]*cexRec),
	}
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	s.loadSegments()
	if s.stats.Segments > opts.CompactAt {
		s.mu.Lock()
		s.compactLocked()
		s.mu.Unlock()
	}
	return s, nil
}

// manifest is the content of MANIFEST.json.
type manifest struct {
	Schema string `json:"schema"`
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "MANIFEST.json") }

func (s *Store) checkManifest() error {
	path := s.manifestPath()
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m manifest
		if payload, ok := verifyChecksum(data); ok && json.Unmarshal(payload, &m) == nil {
			if m.Schema != Schema {
				return fmt.Errorf("store: %s was written under schema %q, this binary speaks %q; refusing to reuse it",
					s.dir, m.Schema, Schema)
			}
			return nil
		}
		// Torn or corrupt manifest: quarantine and fall through to
		// recreate. Safety does not rest on the manifest — every segment
		// repeats the schema and tag.
		s.quarantine(path)
	case !os.IsNotExist(err):
		return err
	}
	data, err = json.Marshal(manifest{Schema: Schema})
	if err != nil {
		return err
	}
	return writeFileChecksummed(path, data)
}

// segName renders a segment file name.
func segName(n uint64) string { return fmt.Sprintf("seg-%08d.seg", n) }

// loadSegments reads every segment in numeric order. Cex verdicts are
// immutable facts, so the first copy of a duplicated key is kept.
func (s *Store) loadSegments() {
	names := s.listSegments()
	for _, n := range names {
		path := filepath.Join(s.dir, segName(n))
		if n >= s.nextSeg {
			s.nextSeg = n + 1
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		payload, ok := verifyChecksum(data)
		if !ok {
			s.quarantine(path)
			continue
		}
		var seg segment
		if json.Unmarshal(payload, &seg) != nil || seg.Schema != Schema {
			s.quarantine(path)
			continue
		}
		if seg.Tag != s.opts.Tag {
			s.stats.StaleSegs++
			continue
		}
		for i := range seg.Cex {
			w := &seg.Cex[i]
			fp, err := decodeCex(w)
			if err != nil {
				s.stats.BadEntries++
				continue
			}
			s.addCexLocked(fp, w.Sat, w.Model, false)
			s.stats.CexLoaded++
		}
		s.stats.Segments++
	}
}

func (s *Store) listSegments() []uint64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []uint64
	for _, e := range ents {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.seg", &n); err == nil &&
			e.Name() == segName(n) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quarantine renames a damaged file aside so it is never re-read (and a
// human can inspect it), counting it. Rename failures degrade to ignoring
// the file for this process.
func (s *Store) quarantine(path string) {
	_ = os.Rename(path, path+".quarantine")
	s.stats.Quarantined++
}

// addCexLocked records a verdict in memory (caller holds mu for the loaded
// path; Open runs single-goroutine so lock-free use there is fine too).
func (s *Store) addCexLocked(fp expr.FP, sat bool, model []solver.StableAssign, dirty bool) {
	if _, ok := s.cex[fp]; ok {
		return
	}
	s.seqNo++
	s.cex[fp] = &cexRec{sat: sat, model: model, seq: s.seqNo}
	s.cexOrder = append(s.cexOrder, fp)
	if dirty {
		s.dirtyCex = append(s.dirtyCex, fp)
	}
	if len(s.cex) > s.opts.MaxCexEntries {
		s.evictOldestLocked()
	}
}

// evictOldestLocked drops the oldest half of the verdicts (two-generation
// discipline, matching the in-memory cache). cexOrder is rebuilt from the
// survivors, which also sheds strays left by earlier evictions.
func (s *Store) evictOldestLocked() {
	drop := len(s.cex) / 2
	kept := s.cexOrder[:0]
	for _, fp := range s.cexOrder {
		if _, ok := s.cex[fp]; !ok {
			continue // stray from an earlier eviction
		}
		if drop > 0 {
			delete(s.cex, fp)
			drop--
			s.stats.Evicted++
			continue
		}
		kept = append(kept, fp)
	}
	s.cexOrder = kept
}

// --- solver.StableBackend ---

// LookupCex returns the persisted verdict for a query fingerprint. The
// returned model slice is the stored one; callers must not mutate it (the
// solver only reads it to materialize a Model).
func (s *Store) LookupCex(fp expr.FP) (bool, []solver.StableAssign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.cex[fp]
	if !ok {
		return false, nil, false
	}
	s.stats.LookupHits++
	return r.sat, r.model, true
}

// InsertCex persists a verdict (in memory until the next Flush).
func (s *Store) InsertCex(fp expr.FP, sat bool, model []solver.StableAssign) {
	if fp.IsZero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Inserts++
	s.addCexLocked(fp, sat, model, true)
}

// --- flushing ---

// Flush writes every entry recorded since the last flush as one new
// segment, then compacts if the directory has grown past the threshold.
// Flushing nothing is a no-op.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	seg := segment{Schema: Schema, Tag: s.opts.Tag}
	for _, fp := range s.dirtyCex {
		r, ok := s.cex[fp]
		if !ok {
			continue // evicted before it was ever flushed
		}
		seg.Cex = append(seg.Cex, wireCex{
			Hi: strconv.FormatUint(fp.Hi, 10), Lo: strconv.FormatUint(fp.Lo, 10),
			Sat: r.sat, Model: r.model,
		})
	}
	if len(seg.Cex) == 0 {
		return nil
	}
	if err := s.writeSegmentLocked(&seg); err != nil {
		return err
	}
	s.dirtyCex = s.dirtyCex[:0]
	s.stats.Flushes++
	if s.stats.Segments > s.opts.CompactAt {
		s.compactLocked()
	}
	return nil
}

// writeSegmentLocked writes one segment file with the checksum discipline.
func (s *Store) writeSegmentLocked(seg *segment) error {
	data, err := json.Marshal(seg)
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, segName(s.nextSeg))
	if err := writeFileChecksummed(path, data); err != nil {
		return err
	}
	s.nextSeg++
	s.stats.Segments++
	return nil
}

// compactLocked rewrites every live entry into one fresh segment and
// removes the older files. The new segment lands (temp+rename) before any
// old file is removed, so a crash mid-compaction leaves duplicates, never
// losses; duplicate entries dedup through the maps on the next Open.
func (s *Store) compactLocked() {
	seg := segment{Schema: Schema, Tag: s.opts.Tag}
	// Live verdicts in insertion order (deterministic, oldest first).
	order := make([]expr.FP, 0, len(s.cex))
	for _, fp := range s.cexOrder {
		if _, ok := s.cex[fp]; ok {
			order = append(order, fp)
		}
	}
	for _, fp := range order {
		r := s.cex[fp]
		seg.Cex = append(seg.Cex, wireCex{
			Hi: strconv.FormatUint(fp.Hi, 10), Lo: strconv.FormatUint(fp.Lo, 10),
			Sat: r.sat, Model: r.model,
		})
	}

	old := s.listSegments()
	if err := s.writeSegmentLocked(&seg); err != nil {
		return // keep the old segments; compaction retries next flush
	}
	for _, n := range old {
		if os.Remove(filepath.Join(s.dir, segName(n))) == nil {
			s.stats.Segments--
		}
	}
	s.dirtyCex = s.dirtyCex[:0]
	s.stats.Compactions++
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CexEntries = len(s.cex)
	return st
}

// --- file discipline ---

// writeFileChecksummed writes payload + "\n" + hex sha256(payload) + "\n"
// via a temp file in the same directory and an atomic rename.
func writeFileChecksummed(path string, payload []byte) error {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.Grow(len(payload) + 2*sha256.Size + 2)
	buf.Write(payload)
	buf.WriteByte('\n')
	buf.WriteString(hex.EncodeToString(sum[:]))
	buf.WriteByte('\n')

	tmp, err := os.CreateTemp(filepath.Dir(path), ".store-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(buf.Bytes())
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmpName)
		if werr != nil {
			return werr
		}
		if serr != nil {
			return serr
		}
		return cerr
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// verifyChecksum splits a checksummed file into its payload, reporting
// whether the trailing digest matches.
func verifyChecksum(data []byte) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	payload := data[:nl]
	rest := bytes.TrimSpace(data[nl+1:])
	if len(rest) != 2*sha256.Size {
		return nil, false
	}
	want, err := hex.DecodeString(string(rest))
	if err != nil {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	return payload, bytes.Equal(sum[:], want)
}
