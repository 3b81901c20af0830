package main

import (
	"context"
	"encoding/json"
	"runtime"
	"sort"
	"time"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phplex"
	"repro/internal/phpparse"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/scancache"
)

// layerMetric names one per-layer metric and its unit. BENCHMARK.json's
// per_layer list is this table (a self-test keeps them equal).
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"phplex.tokens", "count"}, {"phplex.busy_ms", "ms"}, {"phplex.ns_per_token", "ns"}, {"phplex.allocs_per_file", "count"},
	{"phpparse.nodes", "count"}, {"phpparse.busy_ms", "ms"}, {"phpparse.ns_per_node", "ns"}, {"phpparse.allocs_per_file", "count"}, {"phpparse.errors", "count"},
	{"pipeline.wall_ms", "ms"}, {"pipeline.parallel_efficiency", "share"},
	{"govern.steps", "count"}, {"govern.truncations", "count"},
	{"taint.model_ms", "ms"}, {"taint.propagate_ms", "ms"}, {"taint.propagation_iterations", "count"},
	{"taint.functions_analyzed", "count"}, {"taint.sink_checks", "count"}, {"taint.summary_reuses", "count"}, {"taint.files_failed", "count"},
	{"rips.analyze_ms", "ms"}, {"pixy.analyze_ms", "ms"},
	{"report.json_ms", "ms"}, {"report.sarif_ms", "ms"}, {"report.html_ms", "ms"}, {"report.bytes", "bytes"},
	{"incremental.plan_ms", "ms"}, {"incremental.reuse_ratio", "share"}, {"incremental.ast_hit_ratio", "share"}, {"incremental.files_analyzed", "count"},
	{"scancache.hit_ratio", "share"}, {"scancache.key_ms", "ms"}, {"scancache.lookup_ms", "ms"}, {"scancache.bytes", "bytes"}, {"scancache.evictions", "count"},
	{"durable.append_ms_p50", "ms"}, {"durable.append_ms_p99", "ms"}, {"durable.appends_per_scan", "count"}, {"durable.fsyncs_per_scan", "count"},
	{"durable.wal_bytes_per_scan", "bytes"}, {"durable.compactions", "count"}, {"durable.compaction_ms", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"}, {"jobs.queue_wait_ms_p99", "ms"}, {"jobs.run_ms", "ms"}, {"jobs.retries", "count"}, {"jobs.rejected", "count"},
	{"server.submit_ms_p50", "ms"}, {"server.submit_ms_p99", "ms"}, {"server.settle_ms_p50", "ms"}, {"server.settle_ms_p99", "ms"},
	{"server.attempt_ms", "ms"}, {"server.polls_per_scan", "count"}, {"server.scans_retained", "count"},
	{"fleet.dispatch_ms_p50", "ms"}, {"fleet.dispatch_ms_p99", "ms"}, {"fleet.hop_ms", "ms"}, {"fleet.hedges", "count"}, {"fleet.handoffs", "count"},
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.offered_rps", "1/s"}, {"loadgen.sent", "count"},
	{"process.gc_cycles", "count"}, {"process.gc_pause_ms", "ms"}, {"process.heap_bytes_per_line", "bytes"},
	{"trace_overhead_share", "share"}, {"residual_share", "share"},
}

// endToEnd is BENCHMARK.json's end_to_end list.
var endToEnd = []layerMetric{
	{"setup_s", "s"}, {"lines_per_s", "lines/s"}, {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
	{"max_rate_rps", "1/s"}, {"cpu_ms_per_kloc", "ms"}, {"peak_rss_mb", "MiB"}, {"success_share", "share"},
}

// residualBound is the stated residual: on every workload the layer
// parts must account for the end-to-end time to within this share.
const residualBound = 0.25

// layers collects per-layer figures; finish fills the metrics a
// workload does not exercise with zero and names them in the
// provenance as not run.
type layers struct {
	r    *run
	vals map[string]float64
}

func newLayers(r *run) *layers { return &layers{r: r, vals: map[string]float64{}} }

func (l *layers) set(name string, v float64) { l.vals[name] = v }

// residual records how much of the end-to-end time (ms) the named parts
// leave unexplained.
func (l *layers) residual(e2eMS float64, parts map[string]float64) {
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	share := 0.0
	if e2eMS > 0 {
		share = (e2eMS - sum) / e2eMS
	}
	l.set("residual_share", share)
	l.r.notes["residual"] = map[string]any{
		"end_to_end_ms": e2eMS, "parts_ms": parts, "bound": residualBound,
		"within_bound": share <= residualBound && share >= -residualBound,
	}
}

func (l *layers) finish() {
	var notRun []string
	for _, m := range layerMetrics {
		v, ok := l.vals[m.name]
		if !ok {
			notRun = append(notRun, m.name)
		}
		l.r.metrics[m.name] = metric{v, m.unit}
	}
	// Only per-layer metrics are reported on a traced run.
	for _, m := range endToEnd {
		delete(l.r.metrics, m.name)
	}
	sort.Strings(notRun)
	l.r.notes["not_run_reported_as_zero"] = notRun
}

// frontEnd runs the front-end layers over targets from the bench's side:
// a lexer pass, a governed parser pass and the parallel pipeline, each
// on the same inputs the workload analysed.
func (l *layers) frontEnd(ctx context.Context, targets []*analyzer.Target) {
	var files []analyzer.SourceFile
	for _, t := range targets {
		files = append(files, t.Files...)
	}
	if len(files) == 0 {
		return
	}
	var m0, m1 runtime.MemStats

	runtime.ReadMemStats(&m0)
	tokens := 0
	t0 := time.Now()
	for _, f := range files {
		toks := phplex.TokenizeCode(f.Content)
		tokens += len(toks)
		phplex.PutTokens(toks)
	}
	lexBusy := time.Since(t0)
	runtime.ReadMemStats(&m1)
	l.set("phplex.tokens", float64(tokens))
	l.set("phplex.busy_ms", ms(lexBusy))
	l.set("phplex.ns_per_token", float64(lexBusy.Nanoseconds())/float64(tokens))
	l.set("phplex.allocs_per_file", float64(m1.Mallocs-m0.Mallocs)/float64(len(files)))

	rec := obs.NewRecorder()
	gov := govern.New(ctx, nil, nil)
	runtime.ReadMemStats(&m0)
	for _, f := range files {
		phpparse.ParseGoverned(f.Path, f.Content, rec, nil, gov)
	}
	runtime.ReadMemStats(&m1)
	snap := rec.Snapshot()
	nodes := float64(snap.Counters["parse_ast_nodes_total"])
	parseSelf := (snap.Histograms["stage_parse_seconds"].Sum - snap.Histograms["stage_lex_seconds"].Sum) * 1000
	l.set("phpparse.nodes", nodes)
	l.set("phpparse.busy_ms", parseSelf)
	l.set("phpparse.ns_per_node", parseSelf*1e6/nodes)
	l.set("phpparse.allocs_per_file", float64(m1.Mallocs-m0.Mallocs)/float64(len(files)))
	l.set("phpparse.errors", float64(snap.Counters["parse_errors_total"]))
	l.set("govern.steps", float64(gov.Steps()))

	workers := (*analyzer.ScanOptions)(nil).EffectiveFileWorkers()
	prec := obs.NewRecorder()
	var wall time.Duration
	for _, t := range targets {
		t0 := time.Now()
		pipeline.ParseFiles(t.Files, nil, prec, nil, nil, workers)
		wall += time.Since(t0)
	}
	busy := prec.Snapshot().Histograms["stage_parse_seconds"].Sum * 1000
	l.set("pipeline.wall_ms", ms(wall))
	l.set("pipeline.parallel_efficiency", busy/(ms(wall)*float64(workers)))
	l.r.notes["front_end_inputs"] = map[string]int{"targets": len(targets), "files": len(files), "workers": workers}
}

// render times the three report formats over results.
func (l *layers) render(results []*analyzer.Result) {
	var js, sarif, html time.Duration
	bytes := 0
	for _, res := range results {
		t0 := time.Now()
		a, _ := json.Marshal(res)
		t1 := time.Now()
		b, _ := report.SARIF(res)
		t2 := time.Now()
		c := report.HTML(res)
		t3 := time.Now()
		js, sarif, html = js+t1.Sub(t0), sarif+t2.Sub(t1), html+t3.Sub(t2)
		bytes += len(a) + len(b) + len(c)
	}
	l.set("report.json_ms", ms(js))
	l.set("report.sarif_ms", ms(sarif))
	l.set("report.html_ms", ms(html))
	l.set("report.bytes", float64(bytes))
}

// cacheKeys times scancache.Key and Cache.Get over the targets and
// their results; it returns the mean per operation in ms.
func cacheKeys(targets []*analyzer.Target, results []*analyzer.Result, fingerprint string) (keyMS, lookupMS float64) {
	c := scancache.New(256<<20, nil)
	keys := make([]string, len(targets))
	t0 := time.Now()
	for i, t := range targets {
		keys[i] = scancache.Key(t, fingerprint)
	}
	keyMS = ms(time.Since(t0)) / float64(len(targets))
	for i, k := range keys {
		c.Put(k, results[i])
	}
	t0 = time.Now()
	for _, k := range keys {
		c.Get(k)
	}
	lookupMS = ms(time.Since(t0)) / float64(len(keys))
	return keyMS, lookupMS
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batchLayers reports the per-layer metrics of corpus-batch: phpSAFE's
// stages and counters from the traced sweeps' recorders, the front end
// re-run by the bench on the same corpus, and GC figures of the
// analysing process (this one).
func batchLayers(ctx context.Context, r *run, s *snapshots, traced []*layerSweep, untracedWall float64) error {
	l := newLayers(r)
	n := float64(len(traced))
	var wall, model, prop, rips, pixy, gcPause float64
	var gcs float64
	var alloc float64
	for _, ls := range traced {
		snap := ls.rec.Snapshot()
		wall += ls.sweep.wall.Seconds() * 1000 / n
		model += snap.Histograms["stage_model_seconds"].Sum * 1000 / n
		prop += snap.Histograms["stage_taint_seconds"].Sum * 1000 / n
		rips += ms(ls.sweep.engine["RIPS"]) / n
		pixy += ms(ls.sweep.engine["Pixy"]) / n
		gcs += float64(ls.gc) / n
		gcPause += ms(ls.pause) / n
		alloc += float64(ls.alloc) / n
	}
	last := traced[len(traced)-1]
	snap := last.rec.Snapshot()
	l.set("taint.propagate_ms", prop)
	l.set("taint.propagation_iterations", float64(snap.Counters["taint_propagation_iterations_total"]))
	l.set("taint.functions_analyzed", float64(snap.Counters["taint_functions_analyzed_total"]))
	l.set("taint.sink_checks", float64(snap.Counters["taint_sink_checks_total"]))
	l.set("taint.summary_reuses", float64(snap.Counters["taint_summary_reuses_total"]))
	l.set("taint.files_failed", float64(snap.Counters["taint_files_failed_total"]))
	l.set("rips.analyze_ms", rips)
	l.set("pixy.analyze_ms", pixy)
	l.set("process.gc_cycles", gcs)
	l.set("process.gc_pause_ms", gcPause)
	l.set("process.heap_bytes_per_line", alloc/(3*float64(s.lines())))

	var targets []*analyzer.Target
	var phpsafe []*analyzer.Result
	truncations := 0
	for _, byVersion := range last.sweep.results {
		for _, results := range byVersion {
			for _, res := range results {
				if res.Truncated {
					truncations++
				}
			}
		}
	}
	targets = append(append(targets, s.c12.Targets...), s.c14.Targets...)
	phpsafe = append(append(phpsafe, last.sweep.results["phpSAFE"][corpus.V2012]...), last.sweep.results["phpSAFE"][corpus.V2014]...)
	l.set("govern.truncations", float64(truncations))
	l.frontEnd(ctx, targets)
	l.render(phpsafe)
	// phpSAFE's model stage parses its files through the pipeline; the
	// bench's own pipeline run on the same files is taken out, leaving
	// model building alone.
	model -= l.vals["pipeline.wall_ms"]
	l.set("taint.model_ms", model)

	l.set("trace_overhead_share", wall/(untracedWall*1000)-1)
	l.residual(wall, map[string]float64{
		"pipeline.wall_ms": l.vals["pipeline.wall_ms"], "taint.model_ms": model,
		"taint.propagate_ms": prop, "rips.analyze_ms": rips, "pixy.analyze_ms": pixy,
	})
	r.samples["traced_sweeps"] = len(traced)
	l.finish()
	return nil
}
