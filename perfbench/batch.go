package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/taint"
	"repro/internal/wordpress"
)

// sweep is one pass of the three engines over both snapshots: the
// paper's Table III job.
type sweep struct {
	wall    time.Duration
	cpu     time.Duration
	calls   samples                                          // one plugin by one engine
	engine  map[string]time.Duration                         // wall per engine
	results map[string]map[corpus.Version][]*analyzer.Result // by tool, snapshot
	errs    int
}

func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSweep analyses every plugin of both snapshots with each tool in
// process, through each engine's AnalyzeContext with default options
// (so the default file-worker pool).
func runSweep(ctx context.Context, tools []analyzer.Analyzer, s *snapshots) *sweep {
	sw := &sweep{engine: map[string]time.Duration{}, results: map[string]map[corpus.Version][]*analyzer.Result{}}
	cpu0 := rusageCPU()
	start := time.Now()
	for _, tool := range tools {
		t0 := time.Now()
		sw.results[tool.Name()] = map[corpus.Version][]*analyzer.Result{}
		for _, c := range []*corpus.Corpus{s.c12, s.c14} {
			out := make([]*analyzer.Result, len(c.Targets))
			for i, t := range c.Targets {
				c0 := time.Now()
				res, err := tool.AnalyzeContext(ctx, t, nil)
				sw.calls.add(time.Since(c0))
				if err != nil {
					sw.errs++
					res = &analyzer.Result{Tool: tool.Name(), Target: t.Name}
				}
				out[i] = res
			}
			sw.results[tool.Name()][c.Version] = out
		}
		sw.engine[tool.Name()] = time.Since(t0)
	}
	sw.wall = time.Since(start)
	sw.cpu = rusageCPU() - cpu0
	return sw
}

// check judges a sweep with the oracle and records each result's JSON
// digest; a later sweep must reproduce every digest byte for byte.
func (sw *sweep) check(r *run, s *snapshots, digests map[string][32]byte) (failed int) {
	for tool, byVersion := range sw.results {
		for _, c := range []*corpus.Corpus{s.c12, s.c14} {
			l := s.labels(c.Version)
			results := byVersion[c.Version]
			if err := l.checkTableI(tool, c, results); err != nil {
				r.fail("%v", err)
				failed++
			}
			for i, res := range results {
				if tool == "phpSAFE" {
					if err := l.checkPhpSAFE(c.Targets[i].Name, res); err != nil {
						r.fail("%v", err)
						failed++
					}
				}
				data, err := json.Marshal(res)
				if err != nil {
					r.fail("encoding %s result: %v", tool, err)
					failed++
					continue
				}
				key := fmt.Sprintf("%s/%s/%s", tool, c.Version, c.Targets[i].Name)
				sum := sha256.Sum256(data)
				if prev, ok := digests[key]; ok && prev != sum {
					r.fail("%s: result JSON differs between sweeps of the same input", key)
					failed++
				}
				digests[key] = sum
			}
		}
	}
	return failed + sw.errs
}

func corpusBatch(ctx context.Context, r *run) error {
	// Set-up, repeated three times for a steady median: generate both
	// snapshots and their labels, and build the engines.
	var setups []float64
	var s *snapshots
	var tools []analyzer.Analyzer
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		if s, err = generate(r.seed); err != nil {
			return err
		}
		tools = eval.DefaultTools()
		setups = append(setups, time.Since(t0).Seconds())
	}
	digests := map[string][32]byte{}
	t0 := time.Now()
	warm := runSweep(ctx, tools, s)
	warmS := time.Since(t0).Seconds()
	r.failed += warm.check(r, s, digests)
	r.attempted += len(warm.calls)
	r.set("setup_s", "s", median(setups)+warmS)
	r.samples["setup_s"] = len(setups)

	kloc := float64(s.lines()) / 1000
	var walls, cpus []float64
	var calls samples
	var traced []*layerSweep
	deadline := r.deadline(time.Now())
	for i := 0; i == 0 || time.Now().Before(deadline) || (r.traced && len(traced) == 0); i++ {
		if r.traced && i%2 == 1 {
			ls := runLayerSweep(ctx, s)
			traced = append(traced, ls)
			r.failed += ls.sweep.check(r, s, digests)
			r.attempted += len(ls.sweep.calls)
			continue
		}
		sw := runSweep(ctx, tools, s)
		r.failed += sw.check(r, s, digests)
		r.attempted += len(sw.calls)
		walls = append(walls, sw.wall.Seconds())
		cpus = append(cpus, sw.cpu.Seconds()*1000/(3*kloc))
		calls = append(calls, sw.calls...)
	}
	wall := median(walls)
	q, tail := calls.tailQuantile()
	r.set("lines_per_s", "lines/s", 3*float64(s.lines())/wall)
	r.set("latency_p50_ms", "ms", calls.median())
	r.set("latency_p99_ms", "ms", tail)
	r.set("max_rate_rps", "1/s", float64(3*len(s.c12.Targets)+3*len(s.c14.Targets))/wall)
	r.set("cpu_ms_per_kloc", "ms", median(cpus))
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MiB", rss)
	r.set("success_share", "share", 1-float64(r.failed)/float64(r.attempted))
	r.samples["sweeps"] = len(walls)
	r.samples["latency"] = len(calls)
	r.notes["latency_p99_ms_quantile"] = q
	r.notes["max_rate_rps"] = "plugin analyses per second of a sweep (in-process, no ladder)"
	r.validity["plugins_x_engines"] = fmt.Sprintf("%d x %d", len(s.c12.Targets)+len(s.c14.Targets), len(tools))
	if n := len(s.c12.Targets) + len(s.c14.Targets); n != 70 || len(tools) != 3 {
		r.fail("corpus-batch must be 70 plugins x 3 engines, got %d x %d", n, len(tools))
	}
	if r.traced {
		return batchLayers(ctx, r, s, traced, wall)
	}
	return nil
}

// layerSweep is a sweep with phpSAFE recording into its own recorder,
// so its stage histograms are not mixed with the other engines'.
type layerSweep struct {
	sweep *sweep
	rec   *obs.Recorder
	gc    uint32
	pause time.Duration
	alloc uint64
}

func runLayerSweep(ctx context.Context, s *snapshots) *layerSweep {
	rec := obs.NewRecorder()
	tools := eval.DefaultTools()
	tools[0] = taint.New(wordpress.Compiled(), taint.DefaultOptions()).WithRecorder(rec)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sw := runSweep(ctx, tools, s)
	runtime.ReadMemStats(&m1)
	return &layerSweep{
		sweep: sw, rec: rec, gc: m1.NumGC - m0.NumGC,
		pause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs), alloc: m1.TotalAlloc - m0.TotalAlloc,
	}
}
