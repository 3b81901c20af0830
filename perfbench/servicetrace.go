package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/incremental"
	"repro/internal/taint"
	"repro/internal/wordpress"
)

// planReplays caps how many submissions the bench re-plans in process
// to time incremental.BuildPlan.
const planReplays = 20

// frontEndTargets caps how many distinct submitted targets the bench
// re-runs through the front end and the report renderers.
const frontEndTargets = 70

// timeline is the part of GET /v1/scans/{id}/trace the bench reads.
type timeline struct {
	Events []struct {
		Type string    `json:"type"`
		Time time.Time `json:"time"`
	} `json:"events"`
}

// at returns the time of the last event of the given type.
func (t *timeline) at(typ string) (time.Time, bool) {
	var at time.Time
	for _, e := range t.Events {
		if e.Type == typ {
			at = e.Time
		}
	}
	return at, !at.IsZero()
}

// traced serves the nominal stream again on a fresh deployment, this
// time fetching every scan's trace, and reports the per-layer metrics:
// daemon /metrics deltas, per-scan timelines, and bench-side calls into
// each layer on the same inputs. untraced is the nominal phase of the
// same run without trace fetches.
func (sv service) traced(ctx context.Context, r *run, c *http.Client, s *snapshots, untraced *phase, warm, reqs []*request) error {
	dep, err := sv.start(r, "b")
	if err != nil {
		return err
	}
	defer dep.stop()
	if err := dep.warmUp(ctx, c, warm); err != nil {
		return err
	}
	ph, err := dep.serve(ctx, c, reqs, sv.rate, true)
	if err != nil {
		return err
	}
	r.attempted += len(ph.outs)
	r.failed += newChecker(r, s).outcomes(ph.outs, true)

	l := newLayers(r)
	lat := ph.latencies()
	l.set("trace_overhead_share", lat.median()/untraced.latencies().median()-1)

	front, f0 := ph.m1[dep.front], ph.m0[dep.front]
	eng, e0 := ph.m1[dep.engine], ph.m0[dep.engine]

	// Per-scan timelines on the client's and the daemon's clocks (one
	// host, so they compare).
	var lagS, submit, queueWait, afterSubmit, settle, dispatch, poll samples
	polls := 0
	for _, o := range ph.outs {
		if o.err != nil {
			continue
		}
		lagS.add(o.sent.Sub(o.due))
		submit.add(o.subAck.Sub(o.sent))
		polls += o.polls
		var tl timeline
		if err := json.Unmarshal(o.trace, &tl); err != nil {
			return fmt.Errorf("decoding trace of %s: %w", o.id, err)
		}
		accepted, _ := tl.at("accepted")
		settled, ok := tl.at("settled")
		if !ok {
			// A cache hit is answered inside submit and never settles
			// through the queue.
			queueWait.add(0)
			afterSubmit.add(0)
			poll.add(o.done.Sub(o.subAck))
			continue
		}
		settle.add(settled.Sub(accepted))
		poll.add(o.done.Sub(settled))
		// The residual counts only the queue wait after the submit
		// returned: a submit stalled behind a journal compaction keeps
		// its scan queued for the same time, which server.submit
		// already holds. Cache hits never queue and count 0.
		var wait time.Duration
		if q, ok := tl.at("queued"); ok {
			if st, ok := tl.at("attempt_started"); ok {
				queueWait.add(st.Sub(q))
				if q.Before(o.subAck) {
					q = o.subAck
				}
				wait = max(0, st.Sub(q))
			}
		}
		afterSubmit.add(wait)
		if d, ok := tl.at("dispatched"); ok {
			dispatch.add(settled.Sub(d))
		}
	}
	n := float64(len(lagS))
	_, lagTail := lagS.tailQuantile()
	l.set("loadgen.lag_p99_ms", lagTail)
	l.set("loadgen.offered_rps", offeredRate(ph.outs))
	l.set("loadgen.sent", float64(len(ph.outs)))
	_, subTail := submit.tailQuantile()
	l.set("server.submit_ms_p50", submit.median())
	l.set("server.submit_ms_p99", subTail)
	_, settleTail := settle.tailQuantile()
	l.set("server.settle_ms_p50", settle.median())
	l.set("server.settle_ms_p99", settleTail)
	l.set("server.polls_per_scan", float64(polls)/n)
	l.set("server.scans_retained", float64(front.Counters["scans_accepted_total"]-front.Counters["scans_evicted_total"]))
	attempts, attemptSum := front.histDelta(f0, "scan_attempt_seconds")
	l.set("server.attempt_ms", 1000*attemptSum/float64(max(attempts, 1)))
	_, qTail := queueWait.tailQuantile()
	l.set("jobs.queue_wait_ms_p50", queueWait.median())
	l.set("jobs.queue_wait_ms_p99", qTail)
	runs, runSum := front.histDelta(f0, "jobs_run_seconds")
	l.set("jobs.run_ms", 1000*runSum/float64(max(runs, 1)))
	l.set("jobs.retries", float64(front.delta(f0, "jobs_retries_total")))
	l.set("jobs.rejected", float64(front.delta(f0, "jobs_rejected_total")))
	r.samples["traced_scans"] = len(lagS)
	r.samples["queue_wait"] = len(queueWait)

	// Engine and incremental layers, on the daemon that analyses.
	analysed, _ := eng.histDelta(e0, "jobs_run_seconds")
	perScan := 1000 / float64(max(analysed, 1))
	_, model := eng.histDelta(e0, "stage_model_seconds")
	_, prop := eng.histDelta(e0, "stage_taint_seconds")
	l.set("taint.model_ms", model*perScan)
	l.set("taint.propagate_ms", prop*perScan)
	counters := func(m, prev *metricsSnap, names map[string]string) {
		for name, counter := range names {
			l.set(name, float64(m.delta(prev, counter)))
		}
	}
	counters(eng, e0, map[string]string{
		"taint.propagation_iterations": "taint_propagation_iterations_total",
		"taint.functions_analyzed":     "taint_functions_analyzed_total",
		"taint.sink_checks":            "taint_sink_checks_total",
		"taint.summary_reuses":         "taint_summary_reuses_total",
		"taint.files_failed":           "taint_files_failed_total",
		"incremental.files_analyzed":   "inc_files_analyzed_total",
	})
	counters(front, f0, map[string]string{
		"scancache.evictions": "scancache_evictions_total",
		"durable.compactions": "journal_compactions_total",
	})
	reused, analysedFiles := eng.delta(e0, "inc_files_reused_total"), eng.delta(e0, "inc_files_analyzed_total")
	l.set("incremental.reuse_ratio", ratio(reused, reused+analysedFiles))
	astHits, astMiss := eng.delta(e0, "inc_ast_hits_total"), eng.delta(e0, "inc_ast_misses_total")
	l.set("incremental.ast_hit_ratio", ratio(astHits, astHits+astMiss))
	hits, misses := front.delta(f0, "scancache_hits_total"), front.delta(f0, "scancache_misses_total")
	l.set("scancache.hit_ratio", ratio(hits, hits+misses))
	l.set("scancache.bytes", front.Gauges["scancache_bytes"])
	scans := float64(len(ph.outs))
	l.set("durable.appends_per_scan", float64(front.delta(f0, "journal_appends_total"))/scans)
	l.set("durable.fsyncs_per_scan", float64(front.delta(f0, "journal_fsyncs_total"))/scans)
	for _, stage := range []string{"stage_lex_seconds", "stage_parse_seconds"} {
		if eng.has(stage) {
			r.notes["daemon_"+stage] = "present"
		} else {
			r.notes["daemon_"+stage] = "absent (front-end figures come from the bench's own phplex/phpparse calls on the same inputs)"
		}
	}
	if sv.fleet {
		counters(front, f0, map[string]string{
			"fleet.hedges":   "fleet_hedges_total",
			"fleet.handoffs": "fleet_handoffs_total",
		})
		_, dTail := dispatch.tailQuantile()
		l.set("fleet.dispatch_ms_p50", dispatch.median())
		l.set("fleet.dispatch_ms_p99", dTail)
		wa, waSum := eng.histDelta(e0, "scan_attempt_seconds")
		l.set("fleet.hop_ms", l.vals["server.attempt_ms"]-1000*waSum/float64(max(wa, 1)))
		r.samples["dispatch"] = len(dispatch)
	}

	// Bench-side calls on the same inputs: the front end, the renderers,
	// the cache key and lookup, and the incremental planner.
	var targets []*analyzer.Target
	var results []*analyzer.Result
	seen := map[string]bool{}
	truncations := 0
	for _, o := range ph.outs {
		if o.result == nil {
			continue
		}
		if o.result.Truncated {
			truncations++
		}
		if !seen[o.req.content] && len(targets) < frontEndTargets {
			seen[o.req.content] = true
			targets = append(targets, o.req.target)
			results = append(results, o.result)
		}
	}
	l.set("govern.truncations", float64(truncations))
	l.frontEnd(ctx, targets)
	l.render(results)
	keyMS, lookupMS := cacheKeys(targets, results, "perfbench")
	l.set("scancache.key_ms", keyMS)
	l.set("scancache.lookup_ms", lookupMS)
	planMS, err := replayPlans(ctx, warm, ph.outs)
	if err != nil {
		return err
	}
	l.set("incremental.plan_ms", planMS)

	// The journal: stop the daemons so their journals are quiescent,
	// then re-append the front journal's records into a fresh journal
	// with the same sync setting.
	dep.stop()
	if err := reappend(r, l, filepath.Join(dep.front.dir, "journal"), scans); err != nil {
		return err
	}

	// Residual: the mean end-to-end latency against the mean parts the
	// layers account for. Time inside an attempt that no stage histogram
	// covers (the planner's parse, journal writes, result encoding) is
	// what remains.
	nonHit := 1 - float64(hits)/scans
	parts := map[string]float64{
		"loadgen.lag":       lagS.mean(),
		"server.submit":     submit.mean(),
		"jobs.queue_wait":   afterSubmit.mean(),
		"taint.model":       l.vals["taint.model_ms"] * nonHit,
		"taint.propagate":   l.vals["taint.propagate_ms"] * nonHit,
		"incremental.plan":  planMS * nonHit,
		"client.poll_delay": poll.mean(),
	}
	if sv.fleet {
		parts["fleet.hop"] = l.vals["fleet.hop_ms"]
	}
	l.residual(lat.mean(), parts)
	l.finish()
	return nil
}

// replayPlans times incremental.BuildPlan in process on the traced
// phase's analysed submissions (the first planReplays of them), against
// a store warmed like the daemon's, and returns the mean in ms.
func replayPlans(ctx context.Context, warm []*request, outs []*outcome) (float64, error) {
	store, err := incremental.NewStore("", nil)
	if err != nil {
		return 0, err
	}
	eng := taint.New(wordpress.Compiled(), taint.DefaultOptions())
	fp := eng.OptionsFingerprint()
	an := incremental.New(eng, store, fp, nil)
	for _, w := range warm {
		if _, _, err := an.AnalyzeWithReportContext(ctx, w.target, nil); err != nil {
			return 0, err
		}
	}
	var plans samples
	for _, o := range outs {
		if len(plans) == planReplays {
			break
		}
		if o.err != nil || o.cached {
			continue
		}
		t0 := time.Now()
		incremental.BuildPlan(store, eng, fp, o.req.target)
		plans.add(time.Since(t0))
		if _, _, err := an.AnalyzeWithReportContext(ctx, o.req.target, nil); err != nil {
			return 0, err
		}
	}
	return plans.mean(), nil
}

// reappend replays a journal's records into a fresh journal, timing each
// append and one compaction.
func reappend(r *run, l *layers, dir string, scans float64) error {
	src, records, err := durable.Open(dir, durable.Options{SyncEvery: -1})
	if err != nil {
		return fmt.Errorf("reading the daemon journal: %w", err)
	}
	src.Close()
	dst, _, err := durable.Open(filepath.Join(r.workdir, "reappend"), durable.Options{SyncEvery: 1})
	if err != nil {
		return err
	}
	defer dst.Close()
	var lat samples
	for _, rec := range records {
		t0 := time.Now()
		if err := dst.Append(rec); err != nil {
			return fmt.Errorf("re-appending: %w", err)
		}
		lat.add(time.Since(t0))
	}
	walBytes := dst.WALBytes()
	t0 := time.Now()
	if err := dst.Compact(records); err != nil {
		return fmt.Errorf("compacting: %w", err)
	}
	_, tail := lat.tailQuantile()
	l.set("durable.append_ms_p50", lat.median())
	l.set("durable.append_ms_p99", tail)
	l.set("durable.compaction_ms", ms(time.Since(t0)))
	l.set("durable.wal_bytes_per_scan", float64(walBytes)/scans)
	r.samples["durable_appends"] = len(lat)
	return nil
}
