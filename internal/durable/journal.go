// Package durable is the crash-safety substrate of the scan daemon: a
// write-ahead journal that makes an accepted scan survive process
// death. The daemon appends one record per lifecycle transition
// (accepted, started, attempt_failed, completed, quarantined); on
// restart it replays the journal, rehydrates finished scans from their
// persisted results and resubmits everything still in flight.
//
// Format. The journal is a directory holding two append-only JSONL
// files: snapshot.jsonl (the compacted state as of the last
// compaction) and wal.jsonl (every record since). Each line is
//
//	<crc32-ieee hex8> <record JSON>\n
//
// where the checksum covers the JSON bytes. The checksum plus the
// trailing newline make torn writes detectable: replay stops at the
// first line that is incomplete, unparsable or checksum-damaged,
// truncates the WAL back to the last intact record, and carries on
// with the prefix — a crash mid-append loses at most the record being
// written, never the journal.
//
// Durability policy. Options.SyncEvery picks how many appends may pass
// between fsyncs: 1 (the default) syncs every record, so an accepted
// scan survives OS-level crash and power loss; N amortizes the sync
// over N appends (process-crash-safe; power loss may lose the last
// N-1 records); negative never syncs explicitly.
//
// Compaction. CompactAt rewrites the snapshot from the caller's live
// record set as of a Mark (a journal position: sequence number plus WAL
// length) and then replaces the WAL with the bytes appended after that
// mark. The snapshot is encoded, written and fsynced without holding
// the append lock, so appends proceed while it is written; only the
// rename and the WAL swap (temp file, fsync, rename, directory fsync,
// reopen) hold it. The snapshot's first line is a meta record carrying
// the mark's sequence number as its horizon, so a crash at any step is
// harmless: before the rename the old snapshot and the full WAL remain;
// after it replay skips WAL records at or below the horizon; after the
// swap the WAL holds exactly the records above it.
//
// Failure. The journal is an aid, never a gate: when the disk fails
// mid-flight the journal flips to degraded (Degraded reports it,
// journal_degraded_events_total counts it), stops touching the disk,
// and every later Append returns ErrDegraded immediately — the scan
// path keeps running in-memory. govern.IOFaultHookForTesting injects
// exactly these failures in tests.
package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/govern"
	"repro/internal/obs"
)

// RecordType is a scan lifecycle transition.
type RecordType string

const (
	// RecAccepted marks a scan accepted into the queue; its payload is
	// the submission (target files, tool, budgets) so replay can rebuild
	// and resubmit the job.
	RecAccepted RecordType = "accepted"
	// RecStarted marks one attempt beginning on a worker.
	RecStarted RecordType = "started"
	// RecAttemptFailed marks one attempt failing retryably; the job
	// goes back to the queue after backoff.
	RecAttemptFailed RecordType = "attempt_failed"
	// RecCompleted marks the scan finished; its payload is the
	// persisted result, from which replay rehydrates the registry.
	RecCompleted RecordType = "completed"
	// RecQuarantined marks the scan dead-lettered after exhausting its
	// attempts (or failing terminally).
	RecQuarantined RecordType = "quarantined"
	// RecFleetMember marks a worker joining the coordinator's fleet
	// (Worker carries the address). Replaying these rebuilds the
	// dispatch ring after a coordinator restart, so auto-registered
	// workers survive without re-announcing.
	RecFleetMember RecordType = "fleet_member"
	// RecDispatchStarted is a fleet worker's local record of one
	// dispatched attempt it accepted (ScanID is the coordinator's scan
	// id; the payload carries the submission). A worker restart replays
	// unfinished dispatches so the coordinator finds the work still
	// running instead of vanished.
	RecDispatchStarted RecordType = "dispatch_started"
	// RecDispatchSettled closes a RecDispatchStarted: the worker-side
	// scan reached a terminal state.
	RecDispatchSettled RecordType = "dispatch_settled"
	// recSnapshot is the meta record heading a snapshot file; it
	// carries the highest sequence number the snapshot absorbed.
	recSnapshot RecordType = "snapshot"
)

// Record is one journal line. Payload is opaque to the journal; the
// server stores its submission and result envelopes there.
type Record struct {
	Seq       uint64     `json:"seq"`
	Type      RecordType `json:"type"`
	Time      time.Time  `json:"time"`
	ScanID    string     `json:"scan,omitempty"`
	Attempt   int        `json:"attempt,omitempty"`
	Error     string     `json:"error,omitempty"`
	BackoffMS int64      `json:"backoff_ms,omitempty"`
	// Worker names the fleet worker that executed the transition, when
	// the daemon runs as a coordinator; empty in standalone mode. It
	// makes the journal a forensic record of where each scan actually
	// ran across ownership handoffs.
	Worker  string          `json:"worker,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// PayloadValue, when Payload is empty, is marshalled as the payload
	// when the record is written: the same bytes as marshalling it into
	// Payload first, in one pass and without the lock appends share.
	// Replayed records carry Payload only.
	PayloadValue any `json:"-"`
}

// ErrDegraded is returned by Append once the journal has flipped to
// degraded mode after a disk failure; the caller should keep working
// in-memory.
var ErrDegraded = errors.New("durable: journal degraded, running in-memory")

// Options tunes a Journal.
type Options struct {
	// SyncEvery is how many appends may pass between fsyncs: 0 or 1
	// syncs every append, N>1 every Nth, negative never.
	SyncEvery int
	// Recorder, which may be nil, receives the journal_* counters.
	Recorder *obs.Recorder
	// Logger, when non-nil, receives structured journal events (tail
	// truncation, degradation); nil discards them.
	Logger *slog.Logger
}

const (
	walName  = "wal.jsonl"
	snapName = "snapshot.jsonl"
)

// Journal is an open scan journal. All methods are safe for
// concurrent use.
type Journal struct {
	dir string
	opt Options
	rec *obs.Recorder
	log *slog.Logger

	// compactMu admits one compaction at a time (there is one snapshot
	// temp file and one WAL swap) and makes Close wait for it.
	compactMu sync.Mutex

	mu       sync.Mutex
	wal      *os.File
	seq      uint64
	unsynced int
	walBytes int64
	// snapBytes is the size of the snapshot last written or replayed.
	snapBytes int64
	// gen counts WAL swaps, so a mark taken before one is recognised
	// as stale.
	gen         uint64
	degraded    bool
	degradedErr error
}

// Mark is a journal position: the sequence number and WAL length at
// one instant. A compaction at a mark snapshots the state as of the
// mark and carries every WAL byte appended after it.
type Mark struct {
	seq    uint64
	walLen int64
	gen    uint64
}

// Open opens (creating if needed) the journal in dir and replays it:
// the returned records are every intact lifecycle record, snapshot
// first, in append order. The WAL is truncated back to its last
// intact record so subsequent appends continue from a clean tail.
func Open(dir string, opt Options) (*Journal, []Record, error) {
	if dir == "" {
		return nil, nil, errors.New("durable: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: creating journal dir: %w", err)
	}
	logger := opt.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	j := &Journal{dir: dir, opt: opt, rec: opt.Recorder, log: logger.With("component", "journal")}

	snapRecs, snapLen, err := readLog(filepath.Join(dir, snapName), j.rec)
	if err != nil {
		return nil, nil, err
	}
	j.snapBytes = snapLen
	// The snapshot's meta record tells us which WAL records it already
	// absorbed (a crash between snapshot rename and WAL reset leaves
	// them behind).
	var coveredSeq uint64
	records := make([]Record, 0, len(snapRecs))
	for _, r := range snapRecs {
		if r.Type == recSnapshot {
			coveredSeq = r.Seq
			continue
		}
		records = append(records, r)
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	// Resume numbering above the snapshot's horizon, not just above the
	// live records it carries: otherwise appends after a reopen would
	// reuse sequence numbers the meta record already covers, and the
	// next replay's Seq <= coveredSeq filter would silently drop them.
	if coveredSeq > j.seq {
		j.seq = coveredSeq
	}

	walPath := filepath.Join(dir, walName)
	walRecs, goodLen, err := readLog(walPath, j.rec)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range walRecs {
		if r.Seq <= coveredSeq {
			continue
		}
		records = append(records, r)
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	// Cut any damaged tail off before reopening for append.
	if fi, statErr := os.Stat(walPath); statErr == nil && fi.Size() > goodLen {
		if err := os.Truncate(walPath, goodLen); err != nil {
			return nil, nil, fmt.Errorf("durable: truncating damaged WAL tail: %w", err)
		}
		j.count("journal_tail_truncations_total")
		j.log.Warn("truncated damaged WAL tail", "bytes_dropped", fi.Size()-goodLen)
	}
	j.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening WAL: %w", err)
	}
	j.walBytes = goodLen
	j.count("journal_opens_total")
	if n := len(records); n > 0 {
		j.add("journal_replayed_records_total", int64(n))
	}
	return j, records, nil
}

// readLog parses one CRC-guarded JSONL file, tolerating a damaged
// tail: it returns every intact record plus the byte offset where the
// intact prefix ends. A missing file is an empty log.
func readLog(path string, rec *obs.Recorder) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durable: reading %s: %w", filepath.Base(path), err)
	}
	var records []Record
	var good int64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Incomplete final line: a torn write. Keep the prefix.
			break
		}
		line := data[off : off+nl]
		r, ok := parseLine(line)
		if !ok {
			// Checksum or format damage. Nothing after a damaged
			// record can be trusted to be ordered, so stop here.
			if rec != nil {
				rec.Counter("journal_corrupt_records_total").Inc()
			}
			break
		}
		records = append(records, r)
		off += nl + 1
		good = int64(off)
	}
	return records, good, nil
}

// parseLine decodes one "crc8hex json" line, verifying the checksum.
func parseLine(line []byte) (Record, bool) {
	var r Record
	if len(line) < 10 || line[8] != ' ' {
		return r, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return r, false
	}
	body := line[9:]
	if crc32.ChecksumIEEE(body) != sum {
		return r, false
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, false
	}
	return r, true
}

// encodeLine renders a record as its CRC-guarded journal line.
func encodeLine(r Record) ([]byte, error) {
	payload, err := marshalPayloadValue(r)
	if err != nil {
		return nil, err
	}
	return frameLine(r, payload)
}

// marshalPayloadValue marshals r.PayloadValue when it stands in for an
// empty Payload; otherwise it returns nil.
func marshalPayloadValue(r Record) ([]byte, error) {
	if r.PayloadValue == nil || len(r.Payload) > 0 {
		return nil, nil
	}
	return json.Marshal(r.PayloadValue)
}

// frameLine renders r as "crc8hex json\n". A non-nil payload is r's
// PayloadValue as marshalPayloadValue produced it — compact, valid and
// HTML-escaped by construction — and is spliced in as the last field:
// exactly the bytes json.Marshal emits for it as a RawMessage, which it
// would otherwise re-scan byte by byte to validate.
func frameLine(r Record, payload []byte) ([]byte, error) {
	head, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 9, 9+len(head)+len(payload)+len(`,"payload":`)+1)
	if payload == nil {
		line = append(line, head...)
	} else {
		line = append(line, head[:len(head)-1]...)
		line = append(line, `,"payload":`...)
		line = append(line, payload...)
		line = append(line, '}')
	}
	// The checksum prefix fills the 9 bytes reserved in place.
	fmt.Appendf(line[:0], "%08x ", crc32.ChecksumIEEE(line[9:]))
	return append(line, '\n'), nil
}

// Append journals one record, assigning its sequence number and
// timestamp, and fsyncs per the sync policy. After a disk failure the
// journal is degraded and Append returns ErrDegraded without touching
// the disk; it never blocks on a broken device.
func (j *Journal) Append(r Record) error {
	start := time.Now()
	// The payload, the bulk of a record, is marshalled before the lock.
	payload, err := marshalPayloadValue(r)
	if err != nil {
		return fmt.Errorf("durable: encoding record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		return ErrDegraded
	}
	j.seq++
	r.Seq = j.seq
	if r.Time.IsZero() {
		r.Time = time.Now().UTC()
	}
	line, err := frameLine(r, payload)
	if err != nil {
		return fmt.Errorf("durable: encoding record: %w", err)
	}
	if err := j.fault("append", j.wal.Name()); err != nil {
		return j.degradeLocked(err)
	}
	if _, err := j.wal.Write(line); err != nil {
		return j.degradeLocked(err)
	}
	j.walBytes += int64(len(line))
	j.count("journal_appends_total")
	j.add("journal_appended_bytes_total", int64(len(line)))
	j.unsynced++
	every := j.opt.SyncEvery
	if every == 0 {
		every = 1
	}
	if every > 0 && j.unsynced >= every {
		if err := j.syncLocked(); err != nil {
			return j.degradeLocked(err)
		}
	}
	j.observe("journal_append_seconds", start)
	return nil
}

// syncLocked fsyncs the WAL; caller holds j.mu.
func (j *Journal) syncLocked() error {
	if err := j.fault("fsync", j.wal.Name()); err != nil {
		return err
	}
	start := time.Now()
	if err := j.wal.Sync(); err != nil {
		return err
	}
	j.observe("journal_fsync_seconds", start)
	j.unsynced = 0
	j.count("journal_fsyncs_total")
	return nil
}

// Mark returns the current journal position for a later CompactAt.
// Take it while no record the caller's live set omits can be appended
// before it.
func (j *Journal) Mark() Mark {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Mark{seq: j.seq, walLen: j.walBytes, gen: j.gen}
}

// Compact compacts at the current position: live must reconstruct
// every record journaled so far.
func (j *Journal) Compact(live []Record) error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	return j.compactLocked(j.Mark(), func(yield func(Record) bool) {
		for _, r := range live {
			if !yield(r) {
				return
			}
		}
	})
}

// CompactAt replaces the snapshot with live, the minimal records that
// reconstruct the state as of m (typically one accepted plus one
// terminal record per retained scan; sequence numbers are reassigned),
// and the WAL with the records appended after m. live is consumed
// while the snapshot is written, without the append lock held, so it
// may marshal payloads as it goes. Compactions run one at a time; a
// mark taken before another compaction's WAL swap is rejected.
func (j *Journal) CompactAt(m Mark, live func(yield func(Record) bool)) error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	return j.compactLocked(m, live)
}

// compactLocked is CompactAt; caller holds j.compactMu.
func (j *Journal) compactLocked(m Mark, live func(yield func(Record) bool)) error {
	start := time.Now()
	j.mu.Lock()
	degraded, stale := j.degraded, m.gen != j.gen
	j.mu.Unlock()
	if degraded {
		return ErrDegraded
	}
	if stale {
		// Its WAL offset points into a WAL that no longer exists.
		return errors.New("durable: compaction mark predates the last compaction")
	}

	// The meta record pins the horizon at the mark: every WAL record with
	// Seq <= it is absorbed by this snapshot, and every record appended
	// after the mark numbers above it, so replay keeps them. Live records
	// get fresh sequence numbers; replay filters only the WAL, so they
	// may exceed the horizon without hiding anything.
	tmp := filepath.Join(j.dir, snapName+".tmp")
	size, err := j.writeSnapshot(tmp, m.seq, live)

	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		return j.degradeLocked(err)
	}
	if j.degraded {
		os.Remove(tmp)
		return ErrDegraded
	}
	if err := j.fault("rename", tmp); err != nil {
		return j.degradeLocked(err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		return j.degradeLocked(err)
	}
	// Make the rename durable before touching the WAL: if the swap
	// persisted while the rename did not, power loss would leave only
	// the tail beside the stale snapshot.
	if err := j.syncDirLocked(); err != nil {
		return j.degradeLocked(err)
	}
	j.snapBytes = size
	j.add("journal_snapshot_bytes_total", size)
	if err := j.swapWALLocked(m.walLen); err != nil {
		return j.degradeLocked(err)
	}
	j.count("journal_compactions_total")
	j.observe("journal_compaction_seconds", start)
	return nil
}

// writeSnapshot writes and fsyncs one snapshot file: the meta record
// at horizon, then live, numbered from 1. It returns the bytes written.
// It holds no journal lock.
func (j *Journal) writeSnapshot(path string, horizon uint64, live func(yield func(Record) bool)) (int64, error) {
	if err := j.fault("snapshot", path); err != nil {
		return 0, err
	}
	now := time.Now().UTC()
	var size int64
	err := writeSynced(path, func(w io.Writer) error {
		put := func(r Record) error {
			line, err := encodeLine(r)
			if err != nil {
				return err
			}
			size += int64(len(line))
			_, err = w.Write(line)
			return err
		}
		err := put(Record{Seq: horizon, Type: recSnapshot, Time: now})
		var seq uint64
		if err == nil {
			live(func(r Record) bool {
				seq++
				r.Seq = seq
				if r.Time.IsZero() {
					r.Time = now
				}
				err = put(r)
				return err == nil
			})
		}
		return err
	})
	return size, err
}

// writeSynced creates path, writes it through fill and fsyncs it.
func writeSynced(path string, fill func(w io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// swapWALLocked replaces the WAL with its bytes from offset from on:
// temp file, fsync, rename, directory fsync, reopen for append. Caller
// holds j.mu. A crash before the rename leaves the full WAL, whose
// records the new snapshot's horizon filters; after it, the tail.
func (j *Journal) swapWALLocked(from int64) error {
	path := filepath.Join(j.dir, walName)
	if err := j.fault("walswap", path); err != nil {
		return err
	}
	tail := make([]byte, j.walBytes-from)
	if len(tail) > 0 {
		old, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = old.ReadAt(tail, from)
		old.Close()
		if err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	if err := writeSynced(tmp, func(w io.Writer) error {
		_, err := w.Write(tail)
		return err
	}); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := j.syncDirLocked(); err != nil {
		return err
	}
	wal, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.wal.Close()
	j.wal = wal
	j.walBytes = int64(len(tail))
	j.unsynced = 0
	j.gen++
	return nil
}

// syncDirLocked fsyncs the journal directory, making a rename (a
// directory-metadata operation) durable; caller holds j.mu.
func (j *Journal) syncDirLocked() error {
	if err := j.fault("syncdir", j.dir); err != nil {
		return err
	}
	d, err := os.Open(j.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// fault consults the test-only disk fault hook.
func (j *Journal) fault(op, path string) error {
	if hook := govern.IOFaultHookForTesting; hook != nil {
		return hook(op, path)
	}
	return nil
}

// degradeLocked flips the journal to in-memory mode on its first disk
// failure; caller holds j.mu. The triggering error is returned so the
// caller can log it.
func (j *Journal) degradeLocked(err error) error {
	j.count("journal_append_errors_total")
	if !j.degraded {
		j.degraded = true
		j.degradedErr = err
		j.count("journal_degraded_events_total")
		j.wal.Close()
		j.log.Error("journal degraded to in-memory mode", "error", err.Error())
	}
	return fmt.Errorf("durable: journal degraded: %w", err)
}

// Degraded reports whether a disk failure has flipped the journal to
// in-memory mode (and with which error).
func (j *Journal) Degraded() (bool, error) {
	if j == nil {
		return false, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded, j.degradedErr
}

// WALBytes returns the current WAL size, the signal callers use to
// decide when to Compact.
func (j *Journal) WALBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.walBytes
}

// SnapshotBytes returns the size of the snapshot last written or
// replayed. Compacting once the WAL has grown past it keeps the bytes
// compaction writes within about the bytes appended.
func (j *Journal) SnapshotBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapBytes
}

// Close waits for a running compaction, then fsyncs and closes the
// WAL. The journal must not be used after.
func (j *Journal) Close() error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		return nil
	}
	if j.unsynced > 0 && j.opt.SyncEvery >= 0 {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	return j.wal.Close()
}

func (j *Journal) count(name string) { j.add(name, 1) }

func (j *Journal) add(name string, n int64) {
	if j.rec != nil {
		j.rec.Counter(name).Add(n)
	}
}

// observe records the seconds since start in the named histogram.
func (j *Journal) observe(name string, start time.Time) {
	if j.rec != nil {
		j.rec.Observe(name, time.Since(start).Seconds())
	}
}

// JobState is one scan's folded journal state: the latest
// lifecycle-determining record plus the bookkeeping replay needs.
type JobState struct {
	// ScanID identifies the scan across records.
	ScanID string
	// Phase is the scan's current lifecycle position: RecCompleted and
	// RecQuarantined are settled; anything else means the scan is still
	// owed an execution and must be resubmitted.
	Phase RecordType
	// Attempts is how many attempts have already failed (the count of
	// attempt_failed records since the last accepted), so a resubmitted
	// job resumes its retry budget instead of resetting it.
	Attempts int
	// Accepted is the submission record (payload: the target).
	Accepted Record
	// Final is the completed or quarantined record when settled
	// (payload: the persisted result, if any).
	Final *Record
}

// Settled reports whether the scan needs no further execution.
func (s *JobState) Settled() bool {
	return s.Phase == RecCompleted || s.Phase == RecQuarantined
}

// Fold collapses a replayed record stream into per-scan states, in
// first-accepted order. A fresh accepted record after a terminal one
// (the manual retry path) re-opens the scan with a reset attempt
// budget. Records for scans with no accepted record (their acceptance
// fell in a lost tail) are dropped: there is nothing to resubmit.
func Fold(records []Record) []*JobState {
	byID := make(map[string]*JobState)
	var order []*JobState
	for _, r := range records {
		switch r.Type {
		case RecAccepted:
			st, ok := byID[r.ScanID]
			if !ok {
				st = &JobState{ScanID: r.ScanID}
				byID[r.ScanID] = st
				order = append(order, st)
			}
			st.Phase = RecAccepted
			st.Attempts = 0
			st.Accepted = r
			st.Final = nil
		case RecStarted, RecAttemptFailed, RecCompleted, RecQuarantined:
			st, ok := byID[r.ScanID]
			if !ok {
				continue
			}
			st.Phase = r.Type
			if r.Type == RecAttemptFailed {
				st.Attempts = r.Attempt
			}
			if r.Type == RecCompleted || r.Type == RecQuarantined {
				rr := r
				st.Final = &rr
			}
		}
	}
	return order
}
