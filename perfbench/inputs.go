package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/incremental"
)

// snapshots is one seeded generation of both corpus snapshots with
// their oracle labels.
type snapshots struct {
	c12, c14 *corpus.Corpus
	l12, l14 *labels
}

func generate(seed int64) (*snapshots, error) {
	spec := corpus.DefaultSpec()
	spec.Seed = seed
	c12, c14, err := corpus.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	return &snapshots{c12: c12, c14: c14, l12: newLabels(c12), l14: newLabels(c14)}, nil
}

func (s *snapshots) labels(v corpus.Version) *labels {
	if v == corpus.V2012 {
		return s.l12
	}
	return s.l14
}

func (s *snapshots) lines() int { return s.c12.Lines() + s.c14.Lines() }

// Request kinds of the service workloads.
const (
	kindFresh   = "fresh"   // a corpus plugin made unique by an inert comment in every file
	kindWarm    = "warm"    // a 2012 plugin scanned while warming service-revisions
	kindHit     = "hit"     // an identical resubmission of a plugin's latest version
	kindTouch   = "touch"   // the latest version with one file touched
	kindUpgrade = "upgrade" // the plugin's 2014 version replacing its 2012 one
)

// request is one pre-encoded submission with what the oracle needs to
// judge its result.
type request struct {
	kind    string
	plugin  string
	version corpus.Version
	target  *analyzer.Target
	body    []byte
	lines   int
	// content digests the submitted files: results for equal content
	// must be byte-identical.
	content string
}

func newRequest(kind string, v corpus.Version, t *analyzer.Target) (*request, error) {
	files := make(map[string]string, len(t.Files))
	h := sha256.New()
	for _, f := range t.Files {
		files[f.Path] = f.Content
		fmt.Fprintf(h, "%s\x00%d\x00%s", f.Path, len(f.Content), f.Content)
	}
	body, err := json.Marshal(map[string]any{"name": t.Name, "files": files})
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	return &request{
		kind: kind, plugin: t.Name, version: v, target: t, body: body,
		lines: t.Lines(), content: hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// uniquify appends an inert line comment to every file, as
// incremental.Touch does to one: sink lines and labels stay valid while
// the content, and so every cache key, becomes new.
func uniquify(t *analyzer.Target, tag string) *analyzer.Target {
	out := &analyzer.Target{Name: t.Name, Files: make([]analyzer.SourceFile, len(t.Files))}
	for i, f := range t.Files {
		f.Content += "\n// " + tag + "\n"
		out.Files[i] = f
	}
	return out
}

// freshStream returns n unique requests: the 70 plugins of both
// snapshots in seeded shuffled epochs, so every plugin is drawn equally
// often whatever the seed.
func freshStream(s *snapshots, seed int64, n int) ([]*request, error) {
	type pick struct {
		v corpus.Version
		t *analyzer.Target
	}
	var all []pick
	for _, c := range []*corpus.Corpus{s.c12, s.c14} {
		for _, t := range c.Targets {
			all = append(all, pick{c.Version, t})
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]*request, 0, n)
	for len(out) < n {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, p := range all {
			if len(out) == n {
				break
			}
			r, err := newRequest(kindFresh, p.v, uniquify(p.t, fmt.Sprintf("perfbench seed %d request %d", seed, len(out))))
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// revisionMix is the recorded share of each request kind in the
// service-revisions stream. Hits stay well under half so the median
// falls on requests that reach the engine, and the upgrade share lets a
// run's nominal phase (210 requests at 30 s) upgrade every plugin once.
var revisionMix = map[string]float64{kindHit: 1.0 / 3, kindTouch: 0.5, kindUpgrade: 1.0 / 6}

// mixBlock is the stream length over which revisionMix holds exactly.
const mixBlock = 30

// revisionStream returns the warm-up requests (every plugin's 2012
// version) and n requests mixing hits, one-file touches and 2012→2014
// upgrades. Each block of mixBlock requests holds the kinds in exact
// revisionMix proportions, in seeded order; an upgrade with no 2012
// plugin left becomes a touch. Each kind draws its plugins in seeded
// shuffled epochs, so every plugin is hit, touched and upgraded equally
// often whatever the seed.
func revisionStream(s *snapshots, seed int64, n int) (warm, stream []*request, err error) {
	rng := rand.New(rand.NewSource(seed ^ 0x4e71))
	latest := map[string]*request{}
	var names []string
	for _, t := range s.c12.Targets {
		r, err := newRequest(kindWarm, corpus.V2012, t)
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, r)
		latest[t.Name] = r
		names = append(names, t.Name)
	}
	sort.Strings(names)
	var block []string
	for _, k := range []string{kindHit, kindTouch, kindUpgrade} {
		for i := 0; i < int(mixBlock*revisionMix[k]+0.5); i++ {
			block = append(block, k)
		}
	}
	kinds := make([]string, 0, n+mixBlock)
	for len(kinds) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	kinds = kinds[:n]

	epochs := map[string][]string{}
	next := func(kind string) string {
		if len(epochs[kind]) == 0 {
			epochs[kind] = append([]string(nil), names...)
			rng.Shuffle(len(names), func(i, j int) { epochs[kind][i], epochs[kind][j] = epochs[kind][j], epochs[kind][i] })
		}
		name := epochs[kind][0]
		epochs[kind] = epochs[kind][1:]
		return name
	}
	upgrades := 0
	for seq, kind := range kinds {
		if kind == kindUpgrade && upgrades == len(names) {
			kind = kindTouch
		}
		var r *request
		switch kind {
		case kindHit:
			prev := latest[next(kindHit)]
			r = &request{}
			*r = *prev
			r.kind = kindHit
		case kindTouch:
			prev := latest[next(kindTouch)]
			t := incremental.Touch(prev.target, rng.Intn(len(prev.target.Files)), seq)
			if r, err = newRequest(kindTouch, prev.version, t); err != nil {
				return nil, nil, err
			}
		case kindUpgrade:
			upgrades++
			if r, err = newRequest(kindUpgrade, corpus.V2014, s.c14.Target(next(kindUpgrade))); err != nil {
				return nil, nil, err
			}
		}
		latest[r.plugin] = r
		stream = append(stream, r)
	}
	return warm, stream, nil
}
