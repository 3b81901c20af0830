package obs

import (
	"sync"
	"time"
)

// DefaultMaxSpans bounds the span tree so unattended corpus runs cannot
// grow memory without limit; spans beyond the cap are still timed and
// observed but not kept, and are counted in the obs_spans_dropped_total
// counter.
const DefaultMaxSpans = 65536

// Recorder ties a metrics registry, a span tree and a clock together.
// It is the single handle instrumented code threads through the
// pipeline. A nil *Recorder is the disabled state: every method —
// including those of the instruments and spans it hands out — is a
// no-op, so callers never branch on enablement.
type Recorder struct {
	clock   Clock
	metrics *Metrics
	events  *EventLog

	mu        sync.Mutex
	roots     []*Span
	spanCount int
	maxSpans  int
}

// NewRecorder returns an enabled recorder on the system clock.
func NewRecorder() *Recorder {
	return NewRecorderWithClock(SystemClock())
}

// NewRecorderWithClock returns an enabled recorder on the given clock;
// tests pass a ManualClock for deterministic span timings.
func NewRecorderWithClock(c Clock) *Recorder {
	if c == nil {
		c = SystemClock()
	}
	return &Recorder{
		clock:    c,
		metrics:  NewMetrics(),
		events:   NewEventLog(DefaultMaxEvents, c),
		maxSpans: DefaultMaxSpans,
	}
}

// Now reads the recorder's clock; a nil recorder falls back to the
// system clock, so callers can time lifecycle fields without branching
// on enablement.
func (r *Recorder) Now() time.Time {
	if r == nil {
		return time.Now()
	}
	return r.clock.Now()
}

// Events returns the recorder's flight-recorder event log (nil when
// the recorder is nil, which is itself a valid no-op log).
func (r *Recorder) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Metrics returns the recorder's registry (nil when the recorder is
// nil, which is itself a valid no-op registry).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.metrics
}

// Counter is shorthand for Metrics().Counter.
func (r *Recorder) Counter(name string) *Counter { return r.Metrics().Counter(name) }

// Gauge is shorthand for Metrics().Gauge.
func (r *Recorder) Gauge(name string) *Gauge { return r.Metrics().Gauge(name) }

// Histogram is shorthand for Metrics().Histogram.
func (r *Recorder) Histogram(name string, bounds ...float64) *Histogram {
	return r.Metrics().Histogram(name, bounds...)
}

// Observe records one sample into the named histogram.
func (r *Recorder) Observe(name string, v float64) { r.Metrics().Histogram(name).Observe(v) }

// StartSpan opens a span under parent (nil parent makes a root span).
// The returned span must be closed with End or EndAndObserve. Past the
// span cap the span is detached: it still times and observes, so
// stage histograms keep counting, but the tree does not retain it.
func (r *Recorder) StartSpan(name string, parent *Span) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Span{rec: r, name: name, parent: parent, start: r.clock.Now()}
	if r.spanCount >= r.maxSpans {
		// The registry has its own lock, so this is safe under mu.
		r.Counter("obs_spans_dropped_total").Inc()
		return s
	}
	r.spanCount++
	if parent != nil {
		parent.children = append(parent.children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	return s
}

// StartNamedSpan is StartSpan with the span name split into a static
// prefix and a dynamic part, concatenated only when the recorder is
// live. Hot paths use it so the disabled state allocates nothing — a
// plain StartSpan(prefix+name, ...) call would pay the concatenation
// even on a nil recorder.
func (r *Recorder) StartNamedSpan(prefix, name string, parent *Span) *Span {
	if r == nil {
		return nil
	}
	return r.StartSpan(prefix+name, parent)
}

// SpanRoots returns the root spans recorded so far, in start order.
func (r *Recorder) SpanRoots() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.roots...)
}
