// Package checkpoint is the file envelope that makes exploration
// crash-safe: a snapshot holds the engine's live frontier (core.Frontier,
// the node table and the states that reference it, written by
// core.Engine.Snapshot), its cumulative progress (core.Progress), and the
// corpus writer's dedup state, so a killed run resumes from its last
// snapshot and converges to the same census and corpus as an
// uninterrupted run.
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
// The frontier's own keys ("exprs", "states") and the progress's are
// core's wire tags: every expression kid points backwards in the table,
// and core.Engine.Restore re-interns and validates the whole frontier and
// the progress. This package neither encodes nor decodes states.
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

	"symmerge/internal/core"
	"symmerge/internal/corpus"
)

// Schema is the wire-format identifier. Bump it on any incompatible
// change to Snapshot or to core's wire form; LoadLatest skips other
// schemas so a stale snapshot can never be misread as current.
const Schema = "symmerge-checkpoint/v1"

// keepSnapshots is how many verified snapshots Write leaves behind: the
// one just written plus its predecessor, in case the newest is lost to a
// tear between rename and fsync of the directory.
const keepSnapshots = 2

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
	// Program identifies what was being explored; a resume refuses a
	// snapshot of a program with a different IR hash.
	Program corpus.ProgramInfo `json:"program"`
	// Config is the canonical exploration descriptor (merge regime, QCE,
	// strategy, seed, input sizes — the corpus manifest convention).
	// Resuming under a different descriptor would silently change the
	// census, so a resume refuses that too.
	Config string `json:"config"`
	// Progress is the engine's cumulative progress as of the snapshot
	// (core.Engine.Progress); a resumed engine counts on from it. It is
	// taken between scheduler steps, so no work is counted twice.
	Progress core.Progress `json:"progress"`
	Corpus   *CorpusState  `json:"corpus,omitempty"`
	// The frontier's "exprs" and "states" keys come last, where v1 has
	// always put them.
	core.Frontier
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
