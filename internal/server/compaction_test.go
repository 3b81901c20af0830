package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/govern"
	"repro/internal/obs"
)

// newRecordedJournalEnv is newJournalEnv with the journal's own
// recorder, so a test reads the journal_* metrics apart from the
// server's.
func newRecordedJournalEnv(t *testing.T, dir string, mutate ...func(*Config)) (*env, *obs.Recorder) {
	t.Helper()
	jrec := obs.NewRecorder()
	j, records, err := durable.Open(dir, durable.Options{Recorder: jrec})
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	e := newEnv(t, 2, 32, append([]func(*Config){func(cfg *Config) {
		cfg.Journal = j
	}}, mutate...)...)
	e.srv.Replay(records)
	return e, jrec
}

// uniqueSubmission is a one-file submission whose content is unique to
// i, padded so each scan journals a few kilobytes.
func uniqueSubmission(i int) string {
	content := fmt.Sprintf("%s// revision %d\n%s", vulnerablePHP, i, strings.Repeat("// padding\n", 150))
	b, _ := json.Marshal(map[string]any{
		"name":  fmt.Sprintf("amortized%03d", i),
		"files": map[string]string{"plugin.php": content},
	})
	return string(b)
}

// Compaction triggers when the WAL outgrows the last snapshot (or the
// floor), so the bytes all compactions write stay within twice the
// bytes appended plus the floor; a fixed threshold rewrites the growing
// registry every few scans, quadratic in the scan count.
func TestCompactionAmortized(t *testing.T) {
	t.Parallel()
	const floor = 64 << 10
	e, jrec := newRecordedJournalEnv(t, t.TempDir(), func(cfg *Config) {
		cfg.CompactWALBytes = floor
	})
	const scans, batch = 200, 20
	for i := 0; i < scans; i += batch {
		ids := make([]string, 0, batch)
		for k := i; k < i+batch; k++ {
			code, sc := e.submitJSON(t, uniqueSubmission(k))
			if code != http.StatusAccepted {
				t.Fatalf("submission %d = %d, want 202", k, code)
			}
			ids = append(ids, sc.ID)
		}
		for _, id := range ids {
			if done := e.wait(t, id); done.Status != stateDone {
				t.Fatalf("scan %s = %s, want done", id, done.Status)
			}
		}
	}
	// Workers journal the last settles just after the state flips.
	e.crash(t)

	c := jrec.Snapshot().Counters
	appended, written := c["journal_appended_bytes_total"], c["journal_snapshot_bytes_total"]
	t.Logf("%d compactions wrote %d snapshot bytes for %d appended bytes",
		c["journal_compactions_total"], written, appended)
	if appended == 0 || written == 0 {
		t.Fatalf("journal byte counters not kept: appended %d, snapshot %d", appended, written)
	}
	if c["journal_compactions_total"] < 3 {
		t.Fatalf("only %d compactions over %d appended bytes; the test needs several",
			c["journal_compactions_total"], appended)
	}
	if limit := 2*appended + floor; written > limit {
		t.Errorf("compaction wrote %d bytes, over 2 x %d appended + %d floor = %d",
			written, appended, floor, limit)
	}
}

// A compaction writing its snapshot holds neither the server's locks
// nor the journal's append lock: while the snapshot write is blocked,
// a scan is accepted, runs and settles, and all three of its appends
// land. After the compaction completes they survive a restart, carried
// in the WAL tail. Not parallel: installs the global fault hook.
func TestCompactionDoesNotBlockAppends(t *testing.T) {
	dir := t.TempDir()
	e, jrec := newRecordedJournalEnv(t, dir)
	_, first := e.submitJSON(t, submission("beforecompaction"))
	if done := e.wait(t, first.ID); done.Status != stateDone {
		t.Fatalf("first scan = %+v", done)
	}
	// Appends observe their latency last, after every fault-hook call,
	// so a counted append no longer reads the hook this test swaps.
	appends := func() int64 { return jrec.Snapshot().Histograms["journal_append_seconds"].Count }
	// The settle append follows the state flip the poll observed.
	waitAppends := func(n int64, why string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for appends() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d appends landed %s", appends(), n, why)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitAppends(3, "for the first scan")

	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	govern.IOFaultHookForTesting = func(op, path string) error {
		if op == "snapshot" && strings.HasPrefix(path, dir) {
			once.Do(func() {
				close(reached)
				<-release
			})
		}
		return nil
	}
	defer func() { govern.IOFaultHookForTesting = nil }()
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })

	compacted := make(chan struct{})
	go func() {
		e.srv.CompactJournal()
		close(compacted)
	}()
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("compaction never reached its snapshot write")
	}

	submitted := make(chan scanJSON, 1)
	go func() {
		var sc scanJSON
		resp, err := http.Post(e.ts.URL+"/v1/scans", "application/json", strings.NewReader(submission("duringcompaction")))
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&sc)
			resp.Body.Close()
		}
		submitted <- sc
	}()
	// accepted, started, completed.
	waitAppends(6, "while the snapshot write was blocked")
	select {
	case <-compacted:
		t.Fatal("compaction finished while its snapshot write was blocked")
	default:
	}
	second := <-submitted
	if second.ID == "" {
		t.Fatal("submission during compaction was not accepted")
	}
	unblock.Do(func() { close(release) })
	<-compacted
	govern.IOFaultHookForTesting = nil
	if n := jrec.Snapshot().Counters["journal_compactions_total"]; n != 1 {
		t.Fatalf("journal_compactions_total = %d, want 1", n)
	}
	if e.srv.cfg.Journal.WALBytes() == 0 {
		t.Error("WAL empty after compaction; the appends made during it were not carried over")
	}
	e.crash(t)

	e2 := newJournalEnv(t, dir)
	for _, id := range []string{first.ID, second.ID} {
		var replayed scanJSON
		if code := e2.getJSON(t, "/v1/scans/"+id, &replayed); code != http.StatusOK || replayed.Status != stateDone {
			t.Errorf("scan %s after restart = %d %s, want 200 done", id, code, replayed.Status)
		}
	}
}

// A settled scan's terminal record carries its settle time, so replay
// from the WAL and replay from a snapshot both rehydrate the pre-crash
// Finished. Runs on the real clock: the append happens measurably after
// the settle, which a manual clock would hide.
func TestSettleTimeSurvivesWALAndSnapshotReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	e1 := newJournalEnv(t, dir)
	_, sc := e1.submitJSON(t, submission("settletime"))
	done := e1.wait(t, sc.ID)
	if done.Status != stateDone || done.Finished == nil {
		t.Fatalf("scan = %+v, want done with a finish time", done)
	}
	want := *done.Finished
	e1.crash(t)

	finished := func(e *env, from string) {
		t.Helper()
		var replayed scanJSON
		if code := e.getJSON(t, "/v1/scans/"+sc.ID, &replayed); code != http.StatusOK || replayed.Finished == nil {
			t.Fatalf("replay from %s: GET = %d, finished %v", from, code, replayed.Finished)
		}
		if !replayed.Finished.Equal(want) {
			t.Errorf("replay from %s: finished = %s, want the pre-crash %s",
				from, replayed.Finished.Format(time.RFC3339Nano), want.Format(time.RFC3339Nano))
		}
	}
	e2 := newJournalEnv(t, dir)
	finished(e2, "the WAL")
	e2.srv.CompactJournal()
	if n := e2.srv.cfg.Journal.WALBytes(); n != 0 {
		t.Fatalf("WAL bytes after compaction = %d, want 0", n)
	}
	e2.crash(t)

	e3 := newJournalEnv(t, dir)
	finished(e3, "the snapshot")
}

// A compaction that captures after Accept has registered a scan but
// before the scan is journaled must leave it out: the pool may then
// refuse the submission (429), and a snapshotted accepted record would
// make replay resubmit work the client was told was rejected. The test
// holds journalMu itself so the capture lands exactly in that window.
func TestCompactionSkipsRejectedSubmission(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	e := newEnv(t, 1, 1, withBlockingAnalyzer(release, started), func(cfg *Config) {
		cfg.Journal = j
	})
	var accepted []string
	for i := 0; i < 2; i++ {
		code, sc := e.submitJSON(t, submission(fmt.Sprintf("fill%d", i)))
		if code != http.StatusAccepted {
			t.Fatalf("fill %d = %d, want 202", i, code)
		}
		accepted = append(accepted, sc.ID)
		if i == 0 {
			<-started // the worker is busy; the next scan fills the queue
		}
	}

	e.srv.journalMu.Lock()
	status := make(chan int, 1)
	go func() {
		_, code, _ := e.srv.Accept(SubmitSpec{Name: "overflow", Target: &analyzer.Target{
			Files: []analyzer.SourceFile{{Path: "overflow.php", Content: vulnerablePHP}},
		}})
		status <- code
	}()
	var rejected string
	for deadline := time.Now().Add(10 * time.Second); rejected == ""; {
		if time.Now().After(deadline) {
			e.srv.journalMu.Unlock()
			t.Fatal("the overflow submission was never registered")
		}
		e.srv.mu.Lock()
		for id := range e.srv.scans {
			if id != accepted[0] && id != accepted[1] {
				rejected = id
			}
		}
		e.srv.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	mark, live := e.srv.captureLocked()
	e.srv.journalMu.Unlock()
	if code := <-status; code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission = %d, want 429", code)
	}
	if err := j.CompactAt(mark, live); err != nil {
		t.Fatalf("compacting: %v", err)
	}
	close(release)
	for _, id := range accepted {
		if done := e.wait(t, id); done.Status != stateDone {
			t.Fatalf("scan %s = %s, want done", id, done.Status)
		}
	}
	e.crash(t)

	e2 := newJournalEnv(t, dir)
	var replayed scanJSON
	if code := e2.getJSON(t, "/v1/scans/"+rejected, &replayed); code != http.StatusNotFound {
		t.Errorf("rejected scan %s after restart = %d %s, want 404", rejected, code, replayed.Status)
	}
	for _, id := range accepted {
		if code := e2.getJSON(t, "/v1/scans/"+id, &replayed); code != http.StatusOK || replayed.Status != stateDone {
			t.Errorf("accepted scan %s after restart = %d %s, want 200 done", id, code, replayed.Status)
		}
	}
}
