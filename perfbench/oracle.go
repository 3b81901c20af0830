package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/corpus"
)

// The oracle judges every analyzer result against the corpus
// generator's own labels (GroundTruth and Trap records), never against
// another analyzer run.

// site is one labelled sink location.
type site struct {
	File  string
	Line  int
	Class analyzer.VulnClass
}

func (s site) String() string { return fmt.Sprintf("%s:%d:%s", s.File, s.Line, s.Class) }

// tally is a tool's TP/FP count on one snapshot, counted the way
// EXPERIMENTS.md Table I counts: TP is the number of distinct seeded
// vulnerabilities reported, FP the number of reported findings that hit
// a seeded trap.
type tally struct{ TP, FP int }

// tableI holds EXPERIMENTS.md Table I per tool and snapshot. The
// generator calibrates its label counts, so they hold for every seed.
var tableI = map[string]map[corpus.Version]tally{
	"phpSAFE": {corpus.V2012: {376, 65}, corpus.V2014: {537, 62}},
	"RIPS":    {corpus.V2012: {143, 79}, corpus.V2014: {302, 55}},
	"Pixy":    {corpus.V2012: {51, 183}, corpus.V2014: {24, 205}},
}

// phpSAFETrapKinds are the trap templates the paper attributes to
// phpSAFE's false positives: validation guards and custom regex
// cleaners it does not model (§V.A).
var phpSAFETrapKinds = map[string]bool{
	"numeric-guard": true, "numeric-guard-sqli": true, "preg-whitelist": true,
}

// labels indexes one snapshot's labels by plugin.
type labels struct {
	version corpus.Version
	truths  map[string]map[site][]corpus.GroundTruth
	traps   map[string]map[site]int
	// expectPhpSAFE is, per plugin, the exact multiset of sites phpSAFE
	// must report under the paper's account of the tool: every seeded
	// vulnerability except register_globals ones (§V.A) and those in
	// files whose include closure exceeds its budget (the generator's
	// huge-*.php files, §V.E), plus one finding per guard or regex
	// trap.
	expectPhpSAFE map[string]map[site]int
}

func newLabels(c *corpus.Corpus) *labels {
	l := &labels{
		version:       c.Version,
		truths:        map[string]map[site][]corpus.GroundTruth{},
		traps:         map[string]map[site]int{},
		expectPhpSAFE: map[string]map[site]int{},
	}
	for _, t := range c.Targets {
		l.truths[t.Name] = map[site][]corpus.GroundTruth{}
		l.traps[t.Name] = map[site]int{}
		l.expectPhpSAFE[t.Name] = map[site]int{}
	}
	for _, g := range c.Truths {
		s := site{g.File, g.Line, g.Class}
		l.truths[g.Plugin][s] = append(l.truths[g.Plugin][s], g)
		if !g.RegisterGlobals && !strings.HasPrefix(g.File, "huge-") {
			l.expectPhpSAFE[g.Plugin][s]++
		}
	}
	for _, tr := range c.Traps {
		s := site{tr.File, tr.Line, tr.Class}
		l.traps[tr.Plugin][s]++
		if phpSAFETrapKinds[tr.Kind] {
			l.expectPhpSAFE[tr.Plugin][s]++
		}
	}
	return l
}

// classify tallies one result of a plugin: the distinct truth IDs it
// reports, the findings that hit traps, and the findings matching
// neither or repeating a reported vulnerability (each of those is an
// oracle disagreement).
func (l *labels) classify(plugin string, res *analyzer.Result, detected map[string]bool) (fp int, unmatched []string) {
	perSite := map[site]int{}
	for _, f := range res.Findings {
		s := site{f.File, f.Line, f.Class}
		if gs := l.truths[plugin][s]; len(gs) > 0 {
			if perSite[s]++; perSite[s] > len(gs) {
				unmatched = append(unmatched, s.String()+" (repeated)")
			}
			for _, g := range gs {
				detected[g.ID] = true
			}
			continue
		}
		if l.traps[plugin][s] > 0 {
			fp++
			continue
		}
		unmatched = append(unmatched, s.String())
	}
	return fp, unmatched
}

// checkPhpSAFE compares a phpSAFE result of a plugin with the exact
// site multiset the labels predict; nil when they agree.
func (l *labels) checkPhpSAFE(plugin string, res *analyzer.Result) error {
	want, ok := l.expectPhpSAFE[plugin]
	if !ok {
		return fmt.Errorf("oracle: unknown plugin %q in %s", plugin, l.version)
	}
	got := map[site]int{}
	for _, f := range res.Findings {
		got[site{f.File, f.Line, f.Class}]++
	}
	var diffs []string
	for s, n := range want {
		if got[s] != n {
			diffs = append(diffs, fmt.Sprintf("%s want %d got %d", s, n, got[s]))
		}
	}
	for s, n := range got {
		if _, ok := want[s]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s want 0 got %d", s, n))
		}
	}
	if res.Truncated {
		diffs = append(diffs, "result truncated by "+strings.Join(res.TruncatedBy, ","))
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("... %d more", len(diffs)-3))
	}
	return fmt.Errorf("oracle: %s %s: %s", plugin, l.version, strings.Join(diffs, "; "))
}

// checkTableI verifies a full-snapshot sweep of one tool: no finding
// outside the labels and TP/FP equal to Table I.
func (l *labels) checkTableI(tool string, c *corpus.Corpus, results []*analyzer.Result) error {
	detected := map[string]bool{}
	fp := 0
	for i, res := range results {
		n, unmatched := l.classify(c.Targets[i].Name, res, detected)
		fp += n
		if len(unmatched) > 0 {
			return fmt.Errorf("oracle: %s %s %s: %d findings match no label (first %s)",
				tool, c.Version, c.Targets[i].Name, len(unmatched), unmatched[0])
		}
	}
	got := tally{len(detected), fp}
	if want := tableI[tool][c.Version]; got != want {
		return fmt.Errorf("oracle: %s %s: TP/FP %d/%d, Table I says %d/%d",
			tool, c.Version, got.TP, got.FP, want.TP, want.FP)
	}
	return nil
}
