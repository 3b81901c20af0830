package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/taint"
	"repro/internal/wordpress"
)

func streamDigest(t *testing.T, seed int64) [32]byte {
	t.Helper()
	s, err := generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshStream(s, seed, 90)
	if err != nil {
		t.Fatal(err)
	}
	warm, revs, err := revisionStream(s, seed, 90)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, group := range [][]*request{fresh, warm, revs} {
		for _, r := range group {
			h.Write([]byte(r.kind + "\x00" + string(r.version) + "\x00"))
			h.Write(r.body)
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := streamDigest(t, 7), streamDigest(t, 7)
	if a != b {
		t.Fatal("seed 7 produced different inputs on two generations")
	}
	if c := streamDigest(t, 8); c == a {
		t.Fatal("seeds 7 and 8 produced identical inputs")
	}
}

func phpSAFE(rec *obs.Recorder) analyzer.Analyzer {
	return taint.New(wordpress.Compiled(), taint.DefaultOptions()).WithRecorder(rec)
}

func analyzeAll(t *testing.T, tool analyzer.Analyzer, c *corpus.Corpus) []*analyzer.Result {
	t.Helper()
	out := make([]*analyzer.Result, len(c.Targets))
	for i, target := range c.Targets {
		res, err := tool.AnalyzeContext(context.Background(), target, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// TestOracleRejectsOneFindingInjectedOrRemoved checks both oracle
// levels: the per-plugin label model and the Table I totals.
func TestOracleRejectsOneFindingInjectedOrRemoved(t *testing.T) {
	s, err := generate(11)
	if err != nil {
		t.Fatal(err)
	}
	results := analyzeAll(t, phpSAFE(nil), s.c12)
	if err := s.l12.checkTableI("phpSAFE", s.c12, results); err != nil {
		t.Fatalf("unmodified sweep rejected: %v", err)
	}
	victim := -1
	for i, res := range results {
		if err := s.l12.checkPhpSAFE(s.c12.Targets[i].Name, res); err != nil {
			t.Fatalf("unmodified result rejected: %v", err)
		}
		if victim < 0 && len(res.Findings) > 1 {
			victim = i
		}
	}
	name := s.c12.Targets[victim].Name
	orig := results[victim]

	removed := *orig
	removed.Findings = orig.Findings[1:]
	injected := *orig
	extra := orig.Findings[0]
	extra.Line += 1000
	injected.Findings = append(append([]analyzer.Finding(nil), orig.Findings...), extra)
	duplicated := *orig
	duplicated.Findings = append(append([]analyzer.Finding(nil), orig.Findings...), orig.Findings[0])

	for label, res := range map[string]*analyzer.Result{"removed": &removed, "injected": &injected, "duplicated": &duplicated} {
		if err := s.l12.checkPhpSAFE(name, res); err == nil {
			t.Errorf("label model accepted a result with one finding %s", label)
		}
		swept := append([]*analyzer.Result(nil), results...)
		swept[victim] = res
		if err := s.l12.checkTableI("phpSAFE", s.c12, swept); err == nil {
			t.Errorf("Table I check accepted a sweep with one finding %s", label)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestMetricNames checks BENCHMARK.json against the metrics the bench
// reports: every name valid and used once, every metric with a unit,
// and the lists equal to what the code emits.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q invalid or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %q has invalid unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %q: better %q", name, better)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the bench reports %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(layerMetrics))
	}
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, bench reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, bench reports %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	for _, w := range bf.Workloads {
		check(w.Name, "count", "lower")
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

// TestDeterministicCountersRepeat runs the counted layers twice on the
// same inputs: tokens, AST nodes, propagation iterations and findings
// must repeat exactly.
func TestDeterministicCountersRepeat(t *testing.T) {
	s, err := generate(3)
	if err != nil {
		t.Fatal(err)
	}
	count := func() map[string]float64 {
		r := &run{metrics: map[string]metric{}, notes: map[string]any{}}
		l := newLayers(r)
		l.frontEnd(context.Background(), s.c14.Targets)
		rec := obs.NewRecorder()
		findings := 0
		for _, res := range analyzeAll(t, phpSAFE(rec), s.c14) {
			findings += len(res.Findings)
		}
		snap := rec.Snapshot()
		return map[string]float64{
			"tokens":     l.vals["phplex.tokens"],
			"nodes":      l.vals["phpparse.nodes"],
			"steps":      l.vals["govern.steps"],
			"iterations": float64(snap.Counters["taint_propagation_iterations_total"]),
			"findings":   float64(findings),
		}
	}
	a, b := count(), count()
	for k, v := range a {
		if v == 0 || b[k] != v {
			t.Errorf("%s: %v then %v", k, v, b[k])
		}
	}
}

// TestJournalCountersRepeat serves the same fresh requests to two
// journaled daemons: appends and fsyncs per scan must repeat exactly.
func TestJournalCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts phpsafed")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phpsafed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/phpsafed").CombinedOutput(); err != nil {
		t.Fatalf("building phpsafed: %v\n%s", err, out)
	}
	s, err := generate(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := freshStream(s, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{daemon: bin, workdir: dir}
	c := &http.Client{Timeout: 30 * time.Second}
	ctx := context.Background()
	perScan := func(tag string) [2]float64 {
		dep, err := freshService.start(r, tag)
		if err != nil {
			t.Fatal(err)
		}
		defer dep.stop()
		ph, err := dep.serve(ctx, c, reqs, 20, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ph.outs {
			if o.err != nil {
				t.Fatal(o.err)
			}
		}
		m1, m0 := ph.m1[dep.front], ph.m0[dep.front]
		n := float64(len(reqs))
		return [2]float64{float64(m1.delta(m0, "journal_appends_total")) / n, float64(m1.delta(m0, "journal_fsyncs_total")) / n}
	}
	a, b := perScan("one"), perScan("two")
	if a != b || a[0] == 0 || a[1] == 0 {
		t.Fatalf("appends/fsyncs per scan %v then %v", a, b)
	}
}
