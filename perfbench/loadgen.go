package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/analyzer"
)

// pollInterval is how often a client polls an accepted scan. It bounds
// the latency a result can sit unread, so it is small against every
// workload's median.
const pollInterval = 2 * time.Millisecond

// outcome is one request's fate as the client saw it.
type outcome struct {
	req    *request
	due    time.Time // when the open loop scheduled it
	sent   time.Time // when the client started the submit
	subAck time.Time // when the submit response arrived
	done   time.Time // when the settled result body was in hand
	id     string
	state  string
	cached bool
	polls  int
	body   []byte // settled scan envelope
	trace  []byte // GET /v1/scans/{id}/trace, traced runs only
	err    error

	// Filled in by the oracle from body.
	worker string
	result *analyzer.Result
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// envelope is the part of a scan envelope the client reads while
// polling.
type envelope struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

func terminal(state string) bool {
	switch state {
	case "done", "failed", "cancelled", "quarantined":
		return true
	}
	return false
}

// newClient returns an HTTP client that opens at most nproc
// connections: load comes from one process, as the workloads specify.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// openLoop sends reqs at a fixed rate regardless of completions (an
// open loop: independent users submitting plugins), waits for every
// result and returns the outcomes in request order.
func openLoop(ctx context.Context, c *http.Client, base string, reqs []*request, rate float64, fetchTrace bool) []*outcome {
	outs := make([]*outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	for i, r := range reqs {
		o := &outcome{req: r, due: start.Add(time.Duration(i) * interval)}
		outs[i] = o
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.err = o.run(ctx, c, base, fetchTrace)
			if o.done.IsZero() {
				o.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return outs
}

func (o *outcome) run(ctx context.Context, c *http.Client, base string, fetchTrace bool) error {
	o.sent = time.Now()
	status, body, err := do(ctx, c, http.MethodPost, base+"/v1/scans", o.req.body)
	o.subAck = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var env envelope
	switch status {
	case http.StatusOK, http.StatusAccepted:
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("submit response: %w", err)
		}
	case http.StatusTooManyRequests:
		return fmt.Errorf("submit refused: 429")
	default:
		return fmt.Errorf("submit: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	o.id, o.state, o.cached = env.ID, env.Status, env.Cached
	for !terminal(o.state) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollInterval):
		}
		status, body, err = do(ctx, c, http.MethodGet, base+"/v1/scans/"+o.id, nil)
		o.polls++
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("poll: HTTP %d: %s", status, bytes.TrimSpace(body))
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("poll response: %w", err)
		}
		o.state = env.Status
	}
	o.done = time.Now()
	o.body = body
	if o.state != "done" {
		return fmt.Errorf("scan %s settled %s", o.id, o.state)
	}
	if fetchTrace {
		status, tr, err := do(ctx, c, http.MethodGet, base+"/v1/scans/"+o.id+"/trace", nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("trace of %s: HTTP %d: %v", o.id, status, err)
		}
		o.trace = tr
	}
	return nil
}

func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
