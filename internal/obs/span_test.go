package obs

import (
	"sync"
	"testing"
	"time"
)

// testOrigin is the fixed origin every deterministic-clock test uses.
var testOrigin = time.Date(2015, 6, 22, 9, 0, 0, 0, time.UTC)

// TestSpanTreeDeterministic builds a two-level span tree on a manual
// clock and checks exact parentage and durations.
func TestSpanTreeDeterministic(t *testing.T) {
	clock := NewManualClock(testOrigin)
	r := NewRecorderWithClock(clock)

	scan := r.StartSpan("scan:plugin-a", nil)
	clock.Advance(10 * time.Millisecond)
	model := scan.StartChild("model")
	clock.Advance(40 * time.Millisecond)
	model.End()
	taint := scan.StartChild("taint")
	clock.Advance(250 * time.Millisecond)
	taint.End()
	scan.End()

	roots := r.SpanRoots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if got := roots[0].Duration(); got != 300*time.Millisecond {
		t.Fatalf("scan duration = %v, want 300ms", got)
	}
	snap := r.Snapshot()
	root := snap.Spans[0]
	if root.Name != "scan:plugin-a" || !root.Start.Equal(testOrigin) {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	if got := root.Children[0]; got.Name != "model" || got.DurationNS != int64(40*time.Millisecond) {
		t.Fatalf("model child = %+v", got)
	}
	if got := root.Children[1]; got.Name != "taint" || got.DurationNS != int64(250*time.Millisecond) {
		t.Fatalf("taint child = %+v", got)
	}
	if !root.Children[1].Start.Equal(testOrigin.Add(50 * time.Millisecond)) {
		t.Fatalf("taint start = %v", root.Children[1].Start)
	}
}

// TestSpanEndAndObserve checks the span→histogram bridge used by stage
// timings.
func TestSpanEndAndObserve(t *testing.T) {
	clock := NewManualClock(testOrigin)
	r := NewRecorderWithClock(clock)
	sp := r.StartSpan("stage", nil)
	clock.Advance(2 * time.Second)
	sp.EndAndObserve("stage_seconds")
	h := r.Histogram("stage_seconds")
	if h.Count() != 1 || h.Sum() != 2 {
		t.Fatalf("histogram count=%d sum=%v, want 1 and 2", h.Count(), h.Sum())
	}
	// Ending again must not re-observe or move the end time.
	clock.Advance(time.Second)
	sp.End()
	if got := sp.Duration(); got != 2*time.Second {
		t.Fatalf("duration after double End = %v, want 2s", got)
	}
}

// TestSpanOpenDuration reports elapsed-so-far for unfinished spans.
func TestSpanOpenDuration(t *testing.T) {
	clock := NewManualClock(testOrigin)
	r := NewRecorderWithClock(clock)
	sp := r.StartSpan("open", nil)
	clock.Advance(7 * time.Millisecond)
	if got := sp.Duration(); got != 7*time.Millisecond {
		t.Fatalf("open duration = %v, want 7ms", got)
	}
}

// TestStartNamedSpan checks the prefix form: same name as the concat
// call on a live recorder, nil (no concatenation) on a nil one.
func TestStartNamedSpan(t *testing.T) {
	r := NewRecorderWithClock(NewManualClock(testOrigin))
	sp := r.StartNamedSpan("scan:", "my-plugin", nil)
	if sp.Name() != "scan:my-plugin" {
		t.Fatalf("name = %q, want scan:my-plugin", sp.Name())
	}
	sp.End()
	var disabled *Recorder
	if disabled.StartNamedSpan("scan:", "my-plugin", nil) != nil {
		t.Fatal("nil recorder must return a nil span")
	}
}

// TestSpanCap verifies the span cap drops (and counts) the overflow
// from the tree while every span, kept or not, still feeds its
// histogram.
func TestSpanCap(t *testing.T) {
	r := NewRecorderWithClock(NewManualClock(testOrigin))
	r.maxSpans = 3
	for i := 0; i < 5; i++ {
		r.StartSpan("s", nil).EndAndObserve("s_seconds")
	}
	if got := len(r.SpanRoots()); got != 3 {
		t.Fatalf("kept roots = %d, want 3", got)
	}
	if got := r.Counter("obs_spans_dropped_total").Value(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := r.Histogram("s_seconds").Count(); got != 5 {
		t.Fatalf("observed = %d, want 5 (spans past the cap must still count)", got)
	}
}

// TestConcurrentSpans attaches children to a shared parent from many
// goroutines; run with -race.
func TestConcurrentSpans(t *testing.T) {
	r := NewRecorder()
	root := r.StartSpan("root", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				root.StartChild("worker").End()
			}
		}()
	}
	wg.Wait()
	root.End()
	snap := r.Snapshot()
	if got := len(snap.Spans[0].Children); got != 400 {
		t.Fatalf("children = %d, want 400", got)
	}
}
