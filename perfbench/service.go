package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/analyzer"
)

// service describes one daemon workload: its topology, its request
// stream, and the open-loop rates it is measured at.
type service struct {
	fleet     bool
	revisions bool
	// rate is the nominal open-loop rate (requests/s) every end-to-end
	// latency figure is measured at.
	rate float64
	// ladder lists the fixed rates max_rate_rps is searched over, in
	// increasing order.
	ladder []float64
	// limitMS is the tail-latency limit a ladder rung must meet.
	limitMS float64
}

// Share of a run's seconds spent at the nominal rate; the rest is the
// ladder. At 10 requests/s and 30 s it is 210 requests: three whole
// epochs of the 70 plugins.
const nominalShare = 0.7

// latency_p99_ms on the service workloads is the highest quantile up
// to serviceTailCeiling that leaves serviceTailBeyond samples beyond it.
// Above 0.9 the tail is the handful of scans stalled behind a journal
// compaction, whose count per run moves with host timing, so a higher
// quantile jumps between the compaction stalls and the largest plugins
// from run to run; twenty samples rather than ten keep the figure from
// resting on a few scans. At 30 s that is 0.9 of 210 requests at
// 10 requests/s and 0.8 of 105 at 5.
const (
	serviceTailCeiling = 0.9
	serviceTailBeyond  = 20
)

var (
	freshService     = service{rate: 10, ladder: []float64{26, 30, 34, 38, 42, 46, 50, 54}, limitMS: 250}
	revisionsService = service{revisions: true, rate: 10, ladder: []float64{32, 38, 44, 50, 56, 62, 68, 74}, limitMS: 250}
	fleetService     = service{fleet: true, rate: 5, ladder: []float64{20, 24, 28, 32, 36, 40, 44, 48}, limitMS: 250}
)

func serviceFresh(ctx context.Context, r *run) error     { return runService(ctx, r, freshService) }
func serviceRevisions(ctx context.Context, r *run) error { return runService(ctx, r, revisionsService) }
func fleetFresh(ctx context.Context, r *run) error       { return runService(ctx, r, fleetService) }

// deployment is the started daemon topology: front receives requests;
// engine runs the analyses (the same process unless fleet).
type deployment struct {
	front, engine *daemon
	procs         []*daemon
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

// start brings up the workload's daemons with -journal on fresh
// directories and the default -journal-sync 1.
func (sv service) start(r *run, tag string) (*deployment, error) {
	dir := filepath.Join(r.workdir, tag)
	if !sv.fleet {
		d, err := startDaemon(r.daemon, dir, 0, "-role", "standalone", "-journal", filepath.Join(dir, "journal"))
		if err != nil {
			return nil, err
		}
		return &deployment{front: d, engine: d, procs: []*daemon{d}}, nil
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	wurl := fmt.Sprintf("http://127.0.0.1:%d", port)
	wdir := filepath.Join(dir, "worker")
	w, err := startDaemon(r.daemon, wdir, port, "-role", "worker", "-advertise", wurl,
		"-journal", filepath.Join(wdir, "journal"))
	if err != nil {
		return nil, err
	}
	cdir := filepath.Join(dir, "coordinator")
	c, err := startDaemon(r.daemon, cdir, 0, "-role", "coordinator", "-fleet-workers", wurl,
		"-journal", filepath.Join(cdir, "journal"))
	if err != nil {
		w.stop()
		return nil, err
	}
	return &deployment{front: c, engine: w, procs: []*daemon{w, c}}, nil
}

// streams builds the warm-up and measured requests for n submissions.
func (sv service) streams(r *run, s *snapshots, n int) (warm, reqs []*request, err error) {
	if sv.revisions {
		return revisionStream(s, r.seed, n)
	}
	reqs, err = freshStream(s, r.seed, n)
	return nil, reqs, err
}

// phase is the part of a run served at one schedule.
type phase struct {
	outs     []*outcome
	cpu      time.Duration // analysing processes' CPU over the phase
	m0, m1   map[*daemon]*metricsSnap
	rssMB    float64
	wallSpan time.Duration // first due to last result in hand
}

// serve runs reqs open-loop at rate and samples the daemons around it.
func (dep *deployment) serve(ctx context.Context, c *http.Client, reqs []*request, rate float64, trace bool) (*phase, error) {
	p := &phase{m0: map[*daemon]*metricsSnap{}, m1: map[*daemon]*metricsSnap{}}
	cpu0 := map[*daemon]time.Duration{}
	for _, d := range dep.procs {
		m, err := d.metrics(ctx, c)
		if err != nil {
			return nil, err
		}
		p.m0[d] = m
		if cpu0[d], err = cpuTime(d.pid()); err != nil {
			return nil, err
		}
	}
	p.outs = openLoop(ctx, c, dep.front.base, reqs, rate, trace)
	for _, d := range dep.procs {
		cpu, err := cpuTime(d.pid())
		if err != nil {
			return nil, err
		}
		p.cpu += cpu - cpu0[d]
		rss, err := peakRSS(d.pid())
		if err != nil {
			return nil, err
		}
		p.rssMB += rss
		if p.m1[d], err = d.metrics(ctx, c); err != nil {
			return nil, err
		}
	}
	last := p.outs[0].done
	for _, o := range p.outs {
		if o.done.After(last) {
			last = o.done
		}
	}
	p.wallSpan = last.Sub(p.outs[0].due)
	return p, nil
}

func (p *phase) latencies() samples {
	var s samples
	for _, o := range p.outs {
		if o.err == nil {
			s.add(o.latency())
		}
	}
	return s
}

// warmUp submits the warm-up requests two at a time and waits for every
// result.
func (dep *deployment) warmUp(ctx context.Context, c *http.Client, warm []*request) error {
	sem := make(chan struct{}, 2)
	outs := make([]*outcome, len(warm))
	for i, w := range warm {
		sem <- struct{}{}
		outs[i] = &outcome{req: w, due: time.Now()}
		go func(o *outcome) {
			defer func() { <-sem }()
			o.err = o.run(ctx, c, dep.front.base, false)
		}(outs[i])
	}
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{}
	}
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up %s: %w", o.req.plugin, o.err)
		}
	}
	return nil
}

// setUp generates the inputs and starts the daemons three times,
// keeping the last, and returns the median set-up time in seconds plus
// the warm-up time (service-revisions only).
func (sv service) setUp(ctx context.Context, r *run, c *http.Client, n int, tag string) (*snapshots, []*request, []*request, *deployment, float64, error) {
	var times []float64
	var s *snapshots
	var warm, reqs []*request
	var dep *deployment
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		if s, err = generate(r.seed); err != nil {
			return nil, nil, nil, nil, 0, err
		}
		if warm, reqs, err = sv.streams(r, s, n); err != nil {
			return nil, nil, nil, nil, 0, err
		}
		if dep != nil {
			dep.stop()
		}
		if dep, err = sv.start(r, fmt.Sprintf("%s-%d", tag, i)); err != nil {
			return nil, nil, nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if err := dep.warmUp(ctx, c, warm); err != nil {
		dep.stop()
		return nil, nil, nil, nil, 0, err
	}
	return s, warm, reqs, dep, median(times) + time.Since(t0).Seconds(), nil
}

func runService(ctx context.Context, r *run, sv service) error {
	c := newClient()
	defer c.CloseIdleConnections()
	nominal := int(math.Round(sv.rate * r.seconds * nominalShare))
	rung := r.seconds * (1 - nominalShare) / float64(len(sv.ladder))
	total := nominal
	if !r.traced {
		for _, rate := range sv.ladder {
			total += int(math.Ceil(rate * rung))
		}
	}
	s, warm, reqs, dep, setup, err := sv.setUp(ctx, r, c, total, "a")
	if err != nil {
		return err
	}
	defer func() { dep.stop() }()
	r.set("setup_s", "s", setup)
	r.samples["setup_s"] = 3

	ph, err := dep.serve(ctx, c, reqs[:nominal], sv.rate, false)
	if err != nil {
		return err
	}
	checker := newChecker(r, s)
	r.attempted += len(ph.outs)
	r.failed += checker.outcomes(ph.outs, true)
	lat := ph.latencies()
	q, tail := lat.tailQuantileOf(serviceTailCeiling, serviceTailBeyond)
	lines := 0
	for _, o := range ph.outs {
		if o.err == nil {
			lines += o.req.lines
		}
	}
	submitted := 0
	for _, rq := range reqs[:nominal] {
		submitted += rq.lines
	}
	r.set("lines_per_s", "lines/s", float64(lines)/ph.wallSpan.Seconds())
	r.set("latency_p50_ms", "ms", lat.median())
	r.set("latency_p99_ms", "ms", tail)
	r.set("cpu_ms_per_kloc", "ms", ms(ph.cpu)/(float64(submitted)/1000))
	r.set("peak_rss_mb", "MiB", ph.rssMB)
	r.samples["latency"] = len(lat)
	r.notes["latency_p99_ms_quantile"] = q
	r.notes["nominal_rate_rps"] = sv.rate
	r.validity["offered_vs_nominal_rate"] = offeredRate(ph.outs) / sv.rate
	sv.validate(r, dep, ph, reqs[:nominal])

	if r.traced {
		dep.stop()
		return sv.traced(ctx, r, c, s, ph, warm, reqs)
	}

	// The ladder: fixed rungs above the nominal rate, each a fresh slice
	// of the same stream, until one misses the latency limit or refuses
	// a request.
	next := nominal
	var passRate, passScore, failRate, failScore float64
	var rungs []map[string]any
	for _, rate := range sv.ladder {
		n := int(math.Ceil(rate * rung))
		lp, err := dep.serve(ctx, c, reqs[next:next+n], rate, false)
		if err != nil {
			return err
		}
		next += n
		r.attempted += len(lp.outs)
		r.failed += checker.outcomes(lp.outs, false)
		lt := lp.latencies()
		_, t := lt.tailQuantile()
		// A backlog that grows through the rung raises the latency of its
		// later requests, so the tail latency is the rung's score. The
		// requests still unanswered when the last one fell due are
		// recorded alongside.
		lastDue := lp.outs[len(lp.outs)-1].due
		waiting := 0
		for _, o := range lp.outs[:len(lp.outs)-1] {
			if o.done.After(lastDue) {
				waiting++
			}
		}
		errs := len(lp.outs) - len(lt)
		ok := errs == 0 && t <= sv.limitMS
		rungs = append(rungs, map[string]any{"rate": rate, "n": n, "tail_ms": t, "unanswered_at_end": waiting, "errors": errs, "pass": ok})
		if !ok {
			failRate, failScore = rate, t
			if errs > 0 {
				failScore = math.Max(t, 2*sv.limitMS)
			}
			break
		}
		passRate, passScore = rate, t
	}
	r.notes["ladder"] = rungs
	r.notes["ladder_limit_ms"] = sv.limitMS
	r.set("max_rate_rps", "1/s", crossing(sv.rate, tail, passRate, passScore, failRate, failScore, sv.limitMS))
	r.set("success_share", "share", 1-float64(r.failed)/float64(r.attempted))
	return nil
}

// crossing estimates the rate at which a rung's score (its tail
// latency) meets the limit: the
// highest passing rung, moved toward the first failing one by linear
// interpolation of their scores. With no failing rung it is the top
// rung; with no passing rung the nominal rate and its tail latency
// serve as the lower point.
func crossing(nominal, nominalTail, passRate, passScore, failRate, failScore, limit float64) float64 {
	if passRate == 0 {
		passRate, passScore = nominal, nominalTail
	}
	if failRate == 0 || failScore <= passScore {
		return passRate
	}
	f := (limit - passScore) / (failScore - passScore)
	return passRate + (failRate-passRate)*math.Max(0, math.Min(1, f))
}

func offeredRate(outs []*outcome) float64 {
	if len(outs) < 2 {
		return 0
	}
	return float64(len(outs)-1) / outs[len(outs)-1].due.Sub(outs[0].due).Seconds()
}

// validate checks that the workload exercised what it claims to.
func (sv service) validate(r *run, dep *deployment, ph *phase, reqs []*request) {
	front, eng := ph.m1[dep.front], ph.m1[dep.engine]
	f0, e0 := ph.m0[dep.front], ph.m0[dep.engine]
	hits := front.delta(f0, "scancache_hits_total")
	reused := eng.delta(e0, "inc_files_reused_total")
	analyzed := eng.delta(e0, "inc_files_analyzed_total")
	astHits := eng.delta(e0, "inc_ast_hits_total")
	served := front.delta(f0, "scans_served_from_cache_total")
	r.validity["cache_hit_share"] = ratio(served, int64(len(ph.outs)))
	r.validity["file_reuse_share"] = ratio(reused, reused+analyzed)
	r.validity["ast_hits"] = astHits
	if sv.revisions {
		mix := map[string]float64{}
		for _, rq := range reqs {
			mix[rq.kind] += 1 / float64(len(reqs))
		}
		r.validity["request_mix"] = mix
		r.validity["request_mix_recorded"] = revisionMix
		if served == 0 || reused == 0 {
			r.fail("service-revisions must reuse work: cache hits %d, reused files %d", served, reused)
		}
		for k, want := range revisionMix {
			if math.Abs(mix[k]-want) > 0.02 {
				r.fail("service-revisions mix: %s share %.3f, recorded %.3f", k, mix[k], want)
			}
		}
	} else if hits != 0 || reused != 0 || astHits != 0 {
		r.fail("%s must share no work: cache hits %d, reused files %d, AST hits %d", r.workload, hits, reused, astHits)
	}
	if sv.fleet {
		n, _ := front.histDelta(f0, "fleet_dispatch_seconds")
		undispatched := 0
		for _, o := range ph.outs {
			if o.err == nil && o.worker == "" {
				undispatched++
			}
		}
		r.validity["dispatch_share"] = ratio(n, int64(len(ph.outs)))
		if undispatched > 0 || n < int64(len(ph.outs)) {
			r.fail("fleet-fresh: %d of %d scans not dispatched (%d dispatches)", undispatched, len(ph.outs), n)
		}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checker applies the oracle to settled scans: every phpSAFE result
// must equal the label model's prediction for its plugin and snapshot,
// and equal content must yield byte-identical result JSON.
type checker struct {
	r         *run
	s         *snapshots
	byContent map[string]string
}

func newChecker(r *run, s *snapshots) *checker {
	return &checker{r: r, s: s, byContent: map[string]string{}}
}

// settled is the part of a scan envelope the oracle reads.
type settled struct {
	Worker string          `json:"worker"`
	Result json.RawMessage `json:"result"`
}

// outcomes judges outs and returns how many failed. A ladder rung
// (nominal false) probes for overload, so a refused or unsettled
// request there fails the rung rather than the run; its settled
// results still face the oracle.
func (ck *checker) outcomes(outs []*outcome, nominal bool) (failed int) {
	for _, o := range outs {
		if o.err != nil && !nominal {
			continue
		}
		if err := ck.one(o); err != nil {
			ck.r.fail("%s request for %s %s: %v", o.req.kind, o.req.plugin, o.req.version, err)
			failed++
		}
	}
	return failed
}

func (ck *checker) one(o *outcome) error {
	if o.err != nil {
		return o.err
	}
	var env settled
	if err := json.Unmarshal(o.body, &env); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	o.worker = env.Worker
	var res analyzer.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	o.result = &res
	if err := ck.s.labels(o.req.version).checkPhpSAFE(o.req.plugin, &res); err != nil {
		return err
	}
	if prev, ok := ck.byContent[o.req.content]; ok && prev != string(env.Result) {
		return fmt.Errorf("result JSON differs from an earlier scan of the same content")
	}
	ck.byContent[o.req.content] = string(env.Result)
	return nil
}
