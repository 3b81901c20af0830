package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
)

var updateTrace = flag.Bool("update", false, "rewrite the trace golden file")

// syncBuffer is a mutex-guarded bytes.Buffer: slog handlers write from
// worker goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// traceOrigin is the manual clocks' epoch: every time in the golden
// file derives from it plus scripted engine advances.
var traceOrigin = time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC)

// scriptedAnalyzer advances its manual clock by a fixed amount per
// attempt and fails a scripted number of leading attempts — the whole
// scan lifecycle becomes a pure function of the script, so traces are
// golden-testable.
type scriptedAnalyzer struct {
	clock    *obs.ManualClock
	advance  time.Duration
	failures atomic.Int32
}

func (a *scriptedAnalyzer) Name() string { return "scripted" }
func (a *scriptedAnalyzer) AnalyzeContext(_ context.Context, tg *analyzer.Target, _ *analyzer.ScanOptions) (*analyzer.Result, error) {
	a.clock.Advance(a.advance)
	if a.failures.Add(-1) >= 0 {
		return nil, fmt.Errorf("scripted transient failure")
	}
	return &analyzer.Result{Tool: "scripted", Target: tg.Name, Findings: []analyzer.Finding{}}, nil
}

// scriptedBuild dispatches on the submission profile: the profile
// names the script the engine runs under.
func scriptedBuild(clock *obs.ManualClock) func(string, string, *obs.Recorder) (analyzer.Analyzer, error) {
	return func(_, profile string, _ *obs.Recorder) (analyzer.Analyzer, error) {
		a := &scriptedAnalyzer{clock: clock}
		switch profile {
		case "steady":
			a.advance = 50 * time.Millisecond
		case "flaky":
			a.advance = 30 * time.Millisecond
			a.failures.Store(1)
		case "replay":
			a.advance = 40 * time.Millisecond
		case "phoenix":
			a.advance = 25 * time.Millisecond
		default:
			a.advance = 10 * time.Millisecond
		}
		return a, nil
	}
}

// newTraceEnv is newEnv with every nondeterminism pinned: a manual
// clock behind the recorder, sequential scan ids, a jitter-free retry
// schedule and the scripted engine.
func newTraceEnv(t *testing.T, clock *obs.ManualClock, prefix string, mutate ...func(*Config)) *env {
	t.Helper()
	rec := obs.NewRecorderWithClock(clock)
	pool := jobs.New(jobs.Config{Workers: 1, QueueSize: 8, Recorder: rec})
	var n atomic.Int64
	cfg := Config{
		Pool:      pool,
		Cache:     scancache.New(1<<20, rec),
		Recorder:  rec,
		BuildTool: scriptedBuild(clock),
		Retry: jobs.RetryPolicy{
			MaxAttempts: 3, Base: 20 * time.Millisecond, Cap: 100 * time.Millisecond,
			Jitter: func() float64 { return 0 },
		},
		NewID: func() string { return fmt.Sprintf("%s-%04d", prefix, n.Add(1)) },
	}
	for _, m := range mutate {
		m(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
	})
	return &env{ts: ts, srv: srv, pool: pool, rec: rec}
}

func traceSubmission(name, profile string) string {
	b, _ := json.Marshal(map[string]any{
		"name":    name,
		"profile": profile,
		"files":   map[string]string{name + ".php": "<?php // " + name},
	})
	return string(b)
}

// waitScanEvent blocks until the flight recorder holds an event of the
// given type for the scan — unlike polling GET /v1/scans/{id}, this
// waits for the timeline itself, so a subsequent trace fetch is
// deterministic.
func waitScanEvent(t *testing.T, rec *obs.Recorder, id, typ string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, e := range rec.Events().ForScan(id) {
			if e.Type == typ {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("scan %s never recorded a %q event; timeline: %+v", id, typ, rec.Events().ForScan(id))
}

// getTraceRaw fetches one scan's trace document as raw JSON.
func getTraceRaw(t *testing.T, e *env, id string) json.RawMessage {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/v1/scans/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace %s = %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// TestTraceGolden pins the trace endpoint's wire format for the four
// lifecycle shapes the flight recorder must explain: a normal scan, a
// retried scan, a journal-resubmitted scan (crash mid-attempt) and a
// journal-rehydrated scan (crash after settle — its timeline spans two
// process lifetimes). Regenerate with:
//
//	go test ./internal/server -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	doc := map[string]json.RawMessage{}

	// Normal and retried scans share a daemon: "steady" settles on the
	// first attempt, "flaky" fails once and settles on the second.
	clockA := obs.NewManualClock(traceOrigin)
	eA := newTraceEnv(t, clockA, "norm")
	status, sc := eA.submitJSON(t, traceSubmission("steady-plugin", "steady"))
	if status != http.StatusAccepted {
		t.Fatalf("submit steady = %d, want 202", status)
	}
	waitScanEvent(t, eA.rec, sc.ID, evSettled)
	resp, err := http.Get(eA.ts.URL + "/v1/scans/" + sc.ID + "?format=sarif")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render sarif = %d, want 200", resp.StatusCode)
	}
	doc["normal"] = getTraceRaw(t, eA, sc.ID)

	status, flaky := eA.submitJSON(t, traceSubmission("flaky-plugin", "flaky"))
	if status != http.StatusAccepted {
		t.Fatalf("submit flaky = %d, want 202", status)
	}
	waitScanEvent(t, eA.rec, flaky.ID, evSettled)
	doc["retried"] = getTraceRaw(t, eA, flaky.ID)

	// A journal a crashed daemon left behind: accepted an hour before
	// this boot, first attempt failed, never settled. Replay resubmits
	// it; the trace stitches the historical acceptance to the live
	// completion.
	dirB := t.TempDir()
	jB, _, err := durable.Open(dirB, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const replayID = "crashed-0001"
	crashTime := traceOrigin.Add(-time.Hour)
	payload, _ := json.Marshal(submissionPayload{
		Name: "crashed-plugin", Tool: "phpsafe", Profile: "replay",
		Key: "trace-replay-key", Created: crashTime,
		Files: []filePayload{{Path: "crashed-plugin.php", Content: []byte("<?php // crashed-plugin")}},
	})
	for _, r := range []durable.Record{
		{Type: durable.RecAccepted, ScanID: replayID, Payload: payload, Time: crashTime},
		{Type: durable.RecStarted, ScanID: replayID, Attempt: 1, Time: crashTime},
		{Type: durable.RecAttemptFailed, ScanID: replayID, Attempt: 1, Error: "simulated crash", Time: crashTime},
	} {
		if err := jB.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jB.Close(); err != nil {
		t.Fatal(err)
	}
	jB2, recsB, err := durable.Open(dirB, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jB2.Close() })
	clockB := obs.NewManualClock(traceOrigin)
	eB := newTraceEnv(t, clockB, "rsub", func(cfg *Config) { cfg.Journal = jB2 })
	if resub, _, _ := eB.srv.Replay(recsB); resub != 1 {
		t.Fatalf("replay resubmitted %d scans, want 1", resub)
	}
	waitScanEvent(t, eB.rec, replayID, evSettled)
	doc["resubmitted"] = getTraceRaw(t, eB, replayID)

	// A scan that settled before a crash: the second boot rehydrates it
	// with its historical acceptance and settle times backfilled.
	dirC := t.TempDir()
	jC, _, err := durable.Open(dirC, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clockC1 := obs.NewManualClock(traceOrigin)
	eC1 := newTraceEnv(t, clockC1, "phx", func(cfg *Config) { cfg.Journal = jC })
	status, phoenix := eC1.submitJSON(t, traceSubmission("phoenix-plugin", "phoenix"))
	if status != http.StatusAccepted {
		t.Fatalf("submit phoenix = %d, want 202", status)
	}
	waitScanEvent(t, eC1.rec, phoenix.ID, evSettled)
	eC1.crash(t)

	jC2, recsC, err := durable.Open(dirC, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jC2.Close() })
	clockC2 := obs.NewManualClock(traceOrigin.Add(time.Hour))
	eC2 := newTraceEnv(t, clockC2, "phx2", func(cfg *Config) { cfg.Journal = jC2 })
	if _, rehyd, _ := eC2.srv.Replay(recsC); rehyd != 1 {
		t.Fatalf("replay rehydrated %d scans, want 1", rehyd)
	}
	doc["rehydrated"] = getTraceRaw(t, eC2, phoenix.ID)

	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "trace.json.golden")
	if *updateTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("trace document differs from golden (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderedEventBeforeBody fetches a finished scan as SARIF and then
// its trace, back to back: every render must already be on the
// timeline when the client holds the response, so the trace always
// counts one rendered event per fetch so far.
func TestRenderedEventBeforeBody(t *testing.T) {
	e := newTraceEnv(t, obs.NewManualClock(traceOrigin), "rend")
	status, sc := e.submitJSON(t, traceSubmission("render-plugin", "render"))
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", status)
	}
	waitScanEvent(t, e.rec, sc.ID, evSettled)
	for i := 1; i <= 50; i++ {
		resp, err := http.Get(e.ts.URL + "/v1/scans/" + sc.ID + "?format=sarif")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("render sarif = %d, want 200", resp.StatusCode)
		}
		var doc struct {
			Events []struct {
				Type string `json:"type"`
			} `json:"events"`
		}
		if err := json.Unmarshal(getTraceRaw(t, e, sc.ID), &doc); err != nil {
			t.Fatal(err)
		}
		rendered := 0
		for _, ev := range doc.Events {
			if ev.Type == evRendered {
				rendered++
			}
		}
		if rendered != i {
			t.Fatalf("after %d sarif fetches the trace holds %d rendered events", i, rendered)
		}
	}
}

// TestTraceTimelineOrder asserts the invariant CI smoke-checks over
// the wire: a settled scan's timeline starts accepted → queued →
// attempt_started and ends with settled.
func TestTraceTimelineOrder(t *testing.T) {
	clock := obs.NewManualClock(traceOrigin)
	e := newTraceEnv(t, clock, "ord")
	_, sc := e.submitJSON(t, traceSubmission("ordered-plugin", "steady"))
	waitScanEvent(t, e.rec, sc.ID, evSettled)

	var tr traceJSON
	if err := json.Unmarshal(getTraceRaw(t, e, sc.ID), &tr); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, ev := range tr.Events {
		types = append(types, ev.Type)
	}
	if len(types) < 4 || types[0] != evAccepted || types[1] != evQueued ||
		types[2] != evAttemptStarted || types[len(types)-1] != evSettled {
		t.Fatalf("timeline order = %v, want accepted,queued,attempt_started,...,settled", types)
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Seq <= tr.Events[i-1].Seq {
			t.Fatalf("timeline seqs not increasing: %v", types)
		}
	}
	if tr.Span == nil || tr.Span.DurationNS != (50*time.Millisecond).Nanoseconds() {
		t.Fatalf("span = %+v, want a 50ms scan span", tr.Span)
	}
}

// TestDebugEventsTail covers the ring-tail endpoint: cursoring with
// since/next_since and input validation.
func TestDebugEventsTail(t *testing.T) {
	clock := obs.NewManualClock(traceOrigin)
	e := newTraceEnv(t, clock, "tail")
	_, sc := e.submitJSON(t, traceSubmission("tail-plugin", "steady"))
	waitScanEvent(t, e.rec, sc.ID, evSettled)

	var page struct {
		Events    []obs.Event `json:"events"`
		NextSince uint64      `json:"next_since"`
		Dropped   int64       `json:"dropped"`
	}
	if code := e.getJSON(t, "/debug/events?limit=2", &page); code != http.StatusOK {
		t.Fatalf("GET /debug/events = %d", code)
	}
	if len(page.Events) != 2 || page.NextSince != page.Events[1].Seq {
		t.Fatalf("first page = %+v", page)
	}
	// The cursor resumes exactly after the first page.
	var rest struct {
		Events []obs.Event `json:"events"`
	}
	if code := e.getJSON(t, fmt.Sprintf("/debug/events?since=%d", page.NextSince), &rest); code != http.StatusOK {
		t.Fatal("second page failed")
	}
	if len(rest.Events) == 0 || rest.Events[0].Seq != page.NextSince+1 {
		t.Fatalf("second page starts at seq %d, want %d", rest.Events[0].Seq, page.NextSince+1)
	}

	if code := e.getJSON(t, "/debug/events?since=nope", nil); code != http.StatusBadRequest {
		t.Errorf("bad since = %d, want 400", code)
	}
	if code := e.getJSON(t, "/debug/events?limit=-1", nil); code != http.StatusBadRequest {
		t.Errorf("bad limit = %d, want 400", code)
	}
	if code := e.getJSON(t, "/v1/scans/nosuch/trace", nil); code != http.StatusNotFound {
		t.Errorf("trace of unknown scan = %d, want 404", code)
	}
}

// TestSlowScanLogsTimeline pins the slow-scan escape hatch: a scan
// whose end-to-end time crosses the threshold dumps its timeline at
// warn level and bumps scans_slow_total.
func TestSlowScanLogsTimeline(t *testing.T) {
	clock := obs.NewManualClock(traceOrigin)
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	e := newTraceEnv(t, clock, "slow", func(cfg *Config) {
		cfg.Logger = logger
		cfg.SlowScanThreshold = 40 * time.Millisecond
	})
	_, sc := e.submitJSON(t, traceSubmission("slow-plugin", "steady")) // 50ms > 40ms
	waitScanEvent(t, e.rec, sc.ID, evSettled)

	if got := e.rec.Snapshot().Counters["scans_slow_total"]; got != 1 {
		t.Errorf("scans_slow_total = %d, want 1", got)
	}
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if rec["msg"] == "slow scan" {
			found = true
			if rec["scan_id"] != sc.ID || rec["level"] != "WARN" {
				t.Errorf("slow scan line = %v", rec)
			}
		}
	}
	if !found {
		t.Errorf("no slow-scan line in log output:\n%s", logBuf.String())
	}
}
