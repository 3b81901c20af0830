package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/govern"
	"repro/internal/obs"
)

// foldSummary renders folded scan states for comparison: one line per
// scan with its phase, spent attempts and final payload.
func foldSummary(recs []Record) string {
	var b strings.Builder
	for _, st := range Fold(recs) {
		final := "-"
		if st.Final != nil {
			final = string(st.Final.Payload)
		}
		fmt.Fprintf(&b, "%s %s %d %s\n", st.ScanID, st.Phase, st.Attempts, final)
	}
	return b.String()
}

// liveOf is the minimal live set reconstructing recs: accepted plus
// the final record per settled scan, accepted plus the spent budget
// otherwise.
func liveOf(recs []Record) []Record {
	var live []Record
	for _, st := range Fold(recs) {
		live = append(live, st.Accepted)
		switch {
		case st.Final != nil:
			live = append(live, *st.Final)
		case st.Attempts > 0:
			live = append(live, Record{Type: RecAttemptFailed, ScanID: st.ScanID, Attempt: st.Attempts})
		}
	}
	return live
}

// appendAll appends recs, failing the test on error.
func appendAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
}

// compactFixture is the state a compaction runs against: records
// journaled before the mark and records appended after it.
func compactFixture() (before, after []Record) {
	before = []Record{
		{Type: RecAccepted, ScanID: "done", Payload: []byte(`{"n":1}`)},
		{Type: RecStarted, ScanID: "done", Attempt: 1},
		{Type: RecCompleted, ScanID: "done", Payload: []byte(`{"state":"done"}`)},
		{Type: RecAccepted, ScanID: "retrying"},
		{Type: RecStarted, ScanID: "retrying", Attempt: 1},
		{Type: RecAttemptFailed, ScanID: "retrying", Attempt: 1, Error: "deadline"},
		{Type: RecAccepted, ScanID: "settles-late"},
	}
	after = []Record{
		{Type: RecCompleted, ScanID: "settles-late", Payload: []byte(`{"state":"late"}`)},
		{Type: RecAccepted, ScanID: "fresh", Payload: []byte(`{"n":2}`)},
		{Type: RecStarted, ScanID: "fresh", Attempt: 1},
	}
	return before, after
}

// A live set larger than the mark's sequence number must not lift the
// horizon above the mark: records appended after the mark number from
// mark+1, and a horizon above them would make replay skip them.
func TestCompactHorizonStaysAtMark(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	before := []Record{
		{Type: RecAccepted, ScanID: "s1"},
		{Type: RecCompleted, ScanID: "s1"},
	}
	appendAll(t, j, before)
	m := j.Mark()
	after := []Record{
		{Type: RecAccepted, ScanID: "s2"},
		{Type: RecStarted, ScanID: "s2", Attempt: 1},
	}
	appendAll(t, j, after)
	// Ten live records against a mark at sequence 2.
	live := append([]Record(nil), before...)
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("pad%d", i)
		live = append(live, Record{Type: RecAccepted, ScanID: id})
		before = append(before, Record{Type: RecAccepted, ScanID: id})
	}
	err := j.CompactAt(m, func(yield func(Record) bool) {
		for _, r := range live {
			if !yield(r) {
				return
			}
		}
	})
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	later := Record{Type: RecAccepted, ScanID: "s3"}
	appendAll(t, j, []Record{later})
	want := foldSummary(append(append(before, after...), later))

	// Replay from the live journal's files, without a clean Close.
	_, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := foldSummary(got); g != want {
		t.Errorf("replay after compaction lost post-mark appends:\ngot:\n%swant:\n%s", g, want)
	}
	j.Close()
}

// Compaction carries the WAL records appended after the mark into the
// fresh WAL and sizes the next trigger by the snapshot it wrote.
func TestCompactCarriesWALTail(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	rec := obs.NewRecorder()
	j, _ := openT(t, dir, Options{Recorder: rec})
	before, after := compactFixture()
	appendAll(t, j, before)
	m := j.Mark()
	appendAll(t, j, after)
	// Compact marks the current position, so it absorbs the tail too.
	if err := j.Compact(liveOf(append(append([]Record(nil), before...), after...))); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if j.WALBytes() != 0 {
		t.Errorf("WAL bytes after Compact = %d, want 0", j.WALBytes())
	}
	// A mark taken before that compaction's WAL swap is stale.
	if err := j.CompactAt(m, func(func(Record) bool) {}); err == nil {
		t.Error("CompactAt with a stale mark succeeded")
	}

	appendAll(t, j, before)
	m = j.Mark()
	appendAll(t, j, after)
	tailBytes := j.WALBytes() - m.walLen
	if err := j.CompactAt(m, func(yield func(Record) bool) {
		for _, r := range liveOf(append(append([]Record(nil), before...), after...)) {
			if !yield(r) {
				return
			}
		}
	}); err != nil {
		t.Fatalf("compact at mark: %v", err)
	}
	if got := j.WALBytes(); got != tailBytes {
		t.Errorf("WAL bytes after compaction = %d, want the %d-byte tail", got, tailBytes)
	}
	fi, err := os.Stat(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if j.SnapshotBytes() != fi.Size() {
		t.Errorf("SnapshotBytes = %d, snapshot file is %d bytes", j.SnapshotBytes(), fi.Size())
	}
	snap := rec.Snapshot()
	if snap.Counters["journal_compactions_total"] != 2 {
		t.Errorf("journal_compactions_total = %d, want 2", snap.Counters["journal_compactions_total"])
	}
	if snap.Counters["journal_snapshot_bytes_total"] < fi.Size() {
		t.Errorf("journal_snapshot_bytes_total = %d, below the last snapshot's %d bytes",
			snap.Counters["journal_snapshot_bytes_total"], fi.Size())
	}
	appended := int64(2 * (len(before) + len(after)))
	if n := snap.Histograms["journal_append_seconds"].Count; n != appended {
		t.Errorf("journal_append_seconds count = %d, want %d", n, appended)
	}
	if n := snap.Histograms["journal_fsync_seconds"].Count; n != snap.Counters["journal_fsyncs_total"] {
		t.Errorf("journal_fsync_seconds count = %d, journal_fsyncs_total = %d", n, snap.Counters["journal_fsyncs_total"])
	}
	if n := snap.Histograms["journal_compaction_seconds"].Count; n != 2 {
		t.Errorf("journal_compaction_seconds count = %d, want 2", n)
	}
	j.Close()

	// A reopened journal takes the replayed snapshot's size as its own.
	j2, recs := openT(t, dir, Options{Recorder: rec})
	defer j2.Close()
	if j2.SnapshotBytes() != fi.Size() {
		t.Errorf("reopened SnapshotBytes = %d, want %d", j2.SnapshotBytes(), fi.Size())
	}
	if j2.WALBytes() != tailBytes {
		t.Errorf("reopened WAL bytes = %d, want %d", j2.WALBytes(), tailBytes)
	}
	want := foldSummary(append(append(append(append([]Record(nil), before...), after...), before...), after...))
	if g := foldSummary(recs); g != want {
		t.Errorf("replay:\ngot:\n%swant:\n%s", g, want)
	}
	if n := rec.Snapshot().Counters["journal_appended_bytes_total"]; n <= 0 {
		t.Errorf("journal_appended_bytes_total = %d, want > 0", n)
	}
}

// A disk fault at each compaction step in turn — the temp snapshot,
// its rename, the directory fsync, the WAL swap, the swap's directory
// fsync — leaves a journal whose replay folds to the pre-compaction
// state plus every record appended after the mark, as a crash at that
// step would. Not parallel: installs the global fault hook.
func TestCompactCrashPoints(t *testing.T) {
	steps := []struct {
		op  string
		nth int
	}{
		{"snapshot", 1}, {"rename", 1}, {"syncdir", 1}, {"walswap", 1}, {"syncdir", 2},
		{"", 0}, // no fault: the compaction completes
	}
	defer func() { govern.IOFaultHookForTesting = nil }()
	for _, step := range steps {
		name := fmt.Sprintf("%s#%d", step.op, step.nth)
		if step.op == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, dir, Options{})
			before, after := compactFixture()
			appendAll(t, j, before)
			m := j.Mark()
			appendAll(t, j, after)
			want := foldSummary(append(append([]Record(nil), before...), after...))

			seen := map[string]int{}
			govern.IOFaultHookForTesting = func(op, path string) error {
				if !strings.HasPrefix(path, dir) {
					return nil
				}
				seen[op]++
				if op == step.op && seen[op] == step.nth {
					return errors.New("injected disk failure")
				}
				return nil
			}
			err := j.CompactAt(m, func(yield func(Record) bool) {
				for _, r := range liveOf(before) {
					if !yield(r) {
						return
					}
				}
			})
			govern.IOFaultHookForTesting = nil
			degraded, _ := j.Degraded()
			if step.op == "" {
				if err != nil || degraded {
					t.Fatalf("compaction without fault: err=%v degraded=%v", err, degraded)
				}
			} else {
				if err == nil || !strings.Contains(err.Error(), "injected disk failure") {
					t.Fatalf("compaction with %s fault = %v, want the injected failure", name, err)
				}
				if !degraded {
					t.Fatal("journal not degraded after a compaction fault")
				}
				if err := j.Append(Record{Type: RecAccepted, ScanID: "late"}); !errors.Is(err, ErrDegraded) {
					t.Fatalf("append after compaction fault = %v, want ErrDegraded", err)
				}
			}
			j.Close()

			j2, got := openT(t, dir, Options{})
			defer j2.Close()
			if g := foldSummary(got); g != want {
				t.Errorf("replay after %s fault:\ngot:\n%swant:\n%s", name, g, want)
			}
			// The reopened journal appends where replay left off.
			appendAll(t, j2, []Record{{Type: RecAccepted, ScanID: "next"}})
			_, again, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := foldSummary(again), want+"next accepted 0 -\n"; g != w {
				t.Errorf("replay after reopen append:\ngot:\n%swant:\n%s", g, w)
			}
		})
	}
}
