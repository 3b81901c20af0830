package rulepack_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/rulepack"
	"repro/internal/taint"
	"repro/internal/wordpress"
)

// TestBuiltinPackEquivalence is the differential acceptance test for the
// generated builtin packs: scanning the full corpus through a
// pack-resolved configuration must yield byte-identical JSON findings
// and SARIF logs to the compiled-in Go profiles the packs were
// generated from.
func TestBuiltinPackEquivalence(t *testing.T) {
	t.Parallel()
	c2012, c2014 := corpus.MustGenerate()
	cases := []struct {
		name  string
		goCfg *config.Compiled
	}{
		{"generic", config.Compile(config.Generic())},
		{"wordpress", wordpress.Compiled()},
		{"drupal", config.Compile(config.Merge("drupal", config.Generic(), config.Drupal()))},
	}
	reg := rulepack.NewRegistry()
	for _, tc := range cases {
		packCfg, err := reg.Compile(tc.name)
		if err != nil {
			t.Fatalf("compile pack %s: %v", tc.name, err)
		}
		goEng := taint.New(tc.goCfg, taint.DefaultOptions())
		packEng := taint.New(packCfg, taint.DefaultOptions())
		for _, c := range []*corpus.Corpus{c2012, c2014} {
			for _, target := range c.Targets {
				resGo, err := goEng.AnalyzeContext(context.Background(), target, nil)
				if err != nil {
					t.Fatalf("%s/%s/%s: go profile: %v", tc.name, c.Version, target.Name, err)
				}
				resPack, err := packEng.AnalyzeContext(context.Background(), target, nil)
				if err != nil {
					t.Fatalf("%s/%s/%s: pack: %v", tc.name, c.Version, target.Name, err)
				}
				jsonGo, err := json.MarshalIndent(resGo, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				jsonPack, err := json.MarshalIndent(resPack, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(jsonGo, jsonPack) {
					t.Fatalf("%s/%s/%s: JSON results differ between pack and Go profile",
						tc.name, c.Version, target.Name)
				}
				sarifGo, err := report.SARIF(resGo)
				if err != nil {
					t.Fatal(err)
				}
				sarifPack, err := report.SARIF(resPack)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sarifGo, sarifPack) {
					t.Fatalf("%s/%s/%s: SARIF differs between pack and Go profile",
						tc.name, c.Version, target.Name)
				}
			}
		}
	}
}

// TestFingerprintsDistinctAcrossPackSets asserts the cache-separation
// property: engines built from different pack sets must never share an
// options fingerprint, or scancache/incremental state would leak
// findings across rule sets.
func TestFingerprintsDistinctAcrossPackSets(t *testing.T) {
	t.Parallel()
	reg := rulepack.NewRegistry()
	specs := [][]string{
		{"generic"},
		{"wordpress"},
		{"wordpress", "security-extended"},
		{"generic", "security-extended"},
		{"joomla"},
	}
	seen := make(map[string][]string)
	for _, names := range specs {
		cfg, err := reg.Compile(names...)
		if err != nil {
			t.Fatal(err)
		}
		fp := taint.New(cfg, taint.DefaultOptions()).OptionsFingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("pack sets %v and %v share fingerprint %q", prev, names, fp)
		}
		seen[fp] = names
	}
}
