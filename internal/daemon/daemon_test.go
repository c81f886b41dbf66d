package daemon

// End-to-end daemon tests over real HTTP: concurrent submission, per-job
// timeout enforcement, and graceful drain with in-flight jobs checkpointed
// and later resumed — all against live listeners on loopback, asserting
// through the same wire surface (streaming JSONL + /v1/stats) that clients
// and CI use.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// quickSrc explores in well under a second but still issues real solver
// queries: two branch cascades per argv byte plus a cross-arg accumulator.
const quickSrc = `
int classify(byte c) {
    if (c < 'a') { return 0; }
    if (c > 'z') { return 1; }
    if (c == 'q') { return 2; }
    return 3;
}

void main() {
    int total = 0;
    total = total + classify(argchar(1, 0));
    total = total + classify(argchar(1, 1));
    total = total + classify(argchar(2, 0));
    putchar(tobyte('0' + total % 10));
    if (total == 6) {
        putchar('!');
    }
}
`

// slowSrc path-explodes: with three 6-char symbolic args and no merging
// the branch cascade per byte multiplies far past anything a sub-second
// deadline can finish — the timeout and drain tests rely on that.
const slowSrc = `
void main() {
    int total = 0;
    for (int arg = 1; arg < argc(); arg++) {
        for (int i = 0; argchar(arg, i) != 0; i++) {
            byte c = argchar(arg, i);
            if (c > 'a') { total = total + 1; }
            if (c > 'f') { total = total + 2; }
            if (c > 'm') { total = total + 3; }
            if (c > 't') { total = total + 4; }
        }
    }
    putchar(tobyte('0' + total % 10));
}
`

func startServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// submit posts a job and decodes the full JSONL event stream.
func submit(t *testing.T, addr string, req JobRequest) []Event {
	t.Helper()
	evs, err := trySubmit(addr, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return evs
}

func trySubmit(addr string, req JobRequest) ([]Event, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return evs, fmt.Errorf("bad event line %q: %w", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

// resultOf digs the final "result" event out of a stream.
func resultOf(t *testing.T, evs []Event) *JobResult {
	t.Helper()
	for _, ev := range evs {
		if ev.Event == "result" {
			if ev.JobResult == nil {
				t.Fatal("result event without payload")
			}
			return ev.JobResult
		}
		if ev.Event == "error" {
			t.Fatalf("job failed: %s", ev.Error)
		}
	}
	t.Fatalf("no result event in %d events", len(evs))
	return nil
}

func getStats(t *testing.T, addr string) StatsDoc {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var doc StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return doc
}

// TestDaemonConcurrentSubmissions: more jobs than slots, submitted at
// once. Every job completes, all runs of the same program agree on the
// corpus digest (concurrent jobs must not leak state into each other's
// results), and the counters account for every submission.
func TestDaemonConcurrentSubmissions(t *testing.T) {
	s := startServer(t, Options{MaxJobs: 3})
	const n = 6
	results := make([]*JobResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			evs, err := trySubmit(s.Addr(), JobRequest{
				Source: quickSrc, Label: fmt.Sprintf("job-%d", i),
				Merge: "dsm", Tests: i == 0,
			})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			for _, ev := range evs {
				if ev.Event == "result" {
					results[i] = ev.JobResult
				}
			}
		}(i)
	}
	wg.Wait()
	var digest string
	for i, r := range results {
		if r == nil {
			t.Fatalf("job %d: no result", i)
		}
		if !r.Completed {
			t.Errorf("job %d: incomplete", i)
		}
		if digest == "" {
			digest = r.CorpusDigest
		} else if r.CorpusDigest != digest {
			t.Errorf("job %d: corpus digest %s != %s", i, r.CorpusDigest, digest)
		}
	}
	doc := getStats(t, s.Addr())
	if doc.JobsAccepted != n || doc.JobsCompleted != n {
		t.Errorf("accounting: accepted=%d completed=%d want %d", doc.JobsAccepted, doc.JobsCompleted, n)
	}
	if doc.JobsActive != 0 {
		t.Errorf("%d jobs still registered after completion", doc.JobsActive)
	}
}

// TestDaemonPerJobTimeout: a path-exploding job under a sub-second
// deadline must come back promptly, marked timed out, without taking the
// daemon down.
func TestDaemonPerJobTimeout(t *testing.T) {
	s := startServer(t, Options{MaxJobs: 1})
	start := time.Now()
	evs := submit(t, s.Addr(), JobRequest{
		Source: slowSrc, Merge: "none",
		NArgs: 3, ArgLen: 6, TimeoutSec: 0.3,
	})
	took := time.Since(start)
	res := resultOf(t, evs)
	if res.Completed {
		t.Fatal("path-exploding job claims completion under a 0.3s deadline")
	}
	if !res.TimedOut {
		t.Errorf("timeout not attributed: interrupted=%s", res.Interrupted)
	}
	if took > 10*time.Second {
		t.Errorf("deadline enforcement took %v", took)
	}
	doc := getStats(t, s.Addr())
	if doc.JobsTimedOut != 1 {
		t.Errorf("jobs_timed_out=%d want 1", doc.JobsTimedOut)
	}
	// The daemon must still serve after a timeout.
	if res := resultOf(t, submit(t, s.Addr(), JobRequest{Source: quickSrc})); !res.Completed {
		t.Error("daemon unhealthy after a job timeout")
	}
}

// TestDaemonDrainCheckpointsInFlight: SIGTERM semantics. A keyed in-flight
// job is preempted into a resumable snapshot during Drain; a fresh daemon
// over the same directories resumes it to the exact corpus an
// uninterrupted run produces.
func TestDaemonDrainCheckpointsInFlight(t *testing.T) {
	ckpt := t.TempDir()
	opts := Options{
		MaxJobs:         2,
		CheckpointDir:   ckpt,
		CheckpointEvery: 50 * time.Millisecond,
	}
	s := startServer(t, opts)

	// Reference: an uninterrupted keyed run that spans several checkpoint
	// epochs (so mid-run snapshots exist on disk) yet completes fast.
	ref := resultOf(t, submit(t, s.Addr(), JobRequest{
		Source: slowSrc, Merge: "none", NArgs: 2, ArgLen: 2,
		Key: "ref", TimeoutSec: 120,
	}))
	if !ref.Completed {
		t.Fatal("reference run incomplete")
	}

	// In-flight job to drain: same program, bigger environment, long
	// deadline — it cannot finish before Drain fires.
	type outcome struct {
		evs []Event
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		evs, err := trySubmit(s.Addr(), JobRequest{
			Source: slowSrc, Merge: "none", NArgs: 3, ArgLen: 6,
			Key: "drainee", TimeoutSec: 120,
		})
		done <- outcome{evs, err}
	}()
	// Wait until the job is live (visible in /v1/progress), then a little
	// longer so at least one checkpoint epoch has elapsed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("drainee never became active")
		}
		resp, err := http.Get("http://" + s.Addr() + "/v1/progress")
		if err != nil {
			t.Fatal(err)
		}
		var doc ProgressDoc
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if doc.Active >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("drained job stream: %v", out.err)
	}
	res := resultOf(t, out.evs)
	if res.Completed {
		t.Fatal("drained job claims completion")
	}
	if !res.Checkpointed || res.Interrupted != "checkpoint" {
		t.Fatalf("drain did not checkpoint: checkpointed=%v interrupted=%s",
			res.Checkpointed, res.Interrupted)
	}
	if res.TimedOut {
		t.Error("drain misattributed as a per-job timeout")
	}
	snaps, err := os.ReadDir(filepath.Join(ckpt, "drainee"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot on disk after drain: %v (%d entries)", err, len(snaps))
	}

	// Restart: a new daemon over the same checkpoint root resumes the
	// key. The job is huge, so bound the resumed leg by timeout and only
	// assert it picked the snapshot up (resumable again, made progress).
	s2 := startServer(t, opts)
	resumed := resultOf(t, submit(t, s2.Addr(), JobRequest{
		Source: slowSrc, Merge: "none", NArgs: 3, ArgLen: 6,
		Key: "drainee", Resume: true, TimeoutSec: 0.5,
	}))
	if resumed.Completed {
		t.Fatal("resumed leg of the huge job cannot have completed in 0.5s")
	}
	if !resumed.Checkpointed {
		t.Errorf("resumed leg not checkpointed again: interrupted=%s", resumed.Interrupted)
	}

	// Resume-to-completion parity: the ref key's newest snapshot is a
	// mid-run frontier, so this resumes partway and must still converge
	// to the uninterrupted run's corpus digest.
	full := resultOf(t, submit(t, s2.Addr(), JobRequest{
		Source: slowSrc, Merge: "none", NArgs: 2, ArgLen: 2,
		Key: "ref", Resume: true, TimeoutSec: 120,
	}))
	if !full.Completed {
		t.Fatal("resumed reference incomplete")
	}
	if full.CorpusDigest != ref.CorpusDigest {
		t.Errorf("resumed corpus digest %s != reference %s", full.CorpusDigest, ref.CorpusDigest)
	}
	doc := getStats(t, s2.Addr())
	if doc.JobsCheckpointed == 0 {
		t.Error("restarted daemon recorded no checkpointed job")
	}
}

// TestDaemonRejectsBadRequests: compile errors and unknown configurations
// come back as structured 4xx errors, drain refuses new work with 503, and
// none of it disturbs the counters for real jobs.
func TestDaemonRejectsBadRequests(t *testing.T) {
	s := startServer(t, Options{MaxJobs: 1})
	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	if resp, _ := post(`{"source":""}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty source: status %d", resp.StatusCode)
	}
	if resp, body := post(`{"source":"void main() { syntax error"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad program: status %d body %s", resp.StatusCode, body)
	}
	if resp, _ := post(`{"source":"void main() { }","merge":"zzz"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad merge mode: status %d", resp.StatusCode)
	}
	if resp, _ := post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body: status %d", resp.StatusCode)
	}
	// Unknown fields — a retired option or a typo — are refused by name,
	// not silently dropped.
	for _, field := range []string{"summaries", "workers", "mrege"} {
		resp, body := post(`{"source":"void main() { }","` + field + `":true}`)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(`\"`+field+`\"`)) {
			t.Errorf("unknown field %q: status %d body %s", field, resp.StatusCode, body)
		}
	}
	doc := getStats(t, s.Addr())
	if doc.JobsAccepted != 0 {
		t.Errorf("rejections counted as accepted jobs: %d", doc.JobsAccepted)
	}
	if doc.JobsFailed == 0 {
		t.Error("no failures recorded")
	}
}

// TestDaemonResumeNeedsCheckpointing: "resume" continues a keyed job from
// its snapshot. Without a key, or on a daemon running without
// -checkpoint-dir, there is no snapshot to continue, so the job is refused
// with a 400 instead of silently exploring from scratch. A key on such a
// daemon is refused even without resume: it would checkpoint nothing.
func TestDaemonResumeNeedsCheckpointing(t *testing.T) {
	withDir := startServer(t, Options{CheckpointDir: t.TempDir()})
	noDir := startServer(t, Options{})
	for _, c := range []struct {
		name string
		s    *Server
		req  JobRequest
		want string
	}{
		{"no key", withDir, JobRequest{Source: quickSrc, Resume: true}, "no key"},
		{"no checkpoint dir", noDir, JobRequest{Source: quickSrc, Key: "k", Resume: true}, "-checkpoint-dir"},
		{"key without checkpoint dir", noDir, JobRequest{Source: quickSrc, Key: "k"}, "-checkpoint-dir"},
	} {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+c.s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: status %d body %s, want a 400 naming %q", c.name, resp.StatusCode, buf.String(), c.want)
		}
	}
	// With a key and a checkpoint root, resume is accepted; with no
	// snapshot yet the job starts fresh.
	if res := resultOf(t, submit(t, withDir.Addr(), JobRequest{Source: quickSrc, Key: "k", Resume: true})); !res.Completed {
		t.Error("keyed resume with no snapshot did not complete")
	}
}

// TestDaemonCheckpointKeysNeverAlias: a key names its job's checkpoint
// directory, so two distinct accepted keys must never resolve to the same
// directory — one key's job would overwrite, or resume, another key's
// snapshots. Keys that a filesystem-safe rewrite would fold together are
// refused instead.
func TestDaemonCheckpointKeysNeverAlias(t *testing.T) {
	root := t.TempDir()
	s, err := New(Options{CheckpointDir: root})
	if err != nil {
		t.Fatal(err)
	}
	refused := []string{"a/b", "a b", `a\b`, "a:b", "é", "a\x00b", ".", "..", "...", "../x"}
	accepted := []string{"a_b", "A_B", "a.b", "a-b", "ab", "job", ".a", "a..", "..a", "0"}
	for _, key := range refused {
		cfg, err := s.jobConfig(&JobRequest{Key: key})
		if err == nil {
			t.Errorf("key %q accepted as directory %s", key, cfg.CheckpointDir)
		} else if !strings.Contains(err.Error(), "[A-Za-z0-9._-]") {
			t.Errorf("key %q: refusal %q does not name the allowed set", key, err)
		}
	}
	byDir := map[string]string{}
	for _, key := range accepted {
		cfg, err := s.jobConfig(&JobRequest{Key: key})
		if err != nil {
			t.Errorf("key %q refused: %v", key, err)
			continue
		}
		dir := cfg.CheckpointDir
		if filepath.Dir(dir) != root {
			t.Errorf("key %q resolves to %s, outside the checkpoint root", key, dir)
		}
		if other, ok := byDir[dir]; ok {
			t.Errorf("keys %q and %q share the directory %s", other, key, dir)
		}
		byDir[dir] = key
	}
}
