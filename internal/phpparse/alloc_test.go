package phpparse

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/phpast"
)

// benchSourcePath is the lexer's representative plugin file, shared so
// the lex and parse allocation gates measure the same input.
const benchSourcePath = "../phplex/testdata/bench.php"

func benchSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(benchSourcePath)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestParseAllocsGate fails when parsing the representative file
// allocates more than 10% over the checked-in baseline. Refresh the
// baseline with UPDATE_ALLOCS_BASELINE=1 go test ./internal/phpparse
// -run ParseAllocsGate after an intentional change.
func TestParseAllocsGate(t *testing.T) {
	const baselinePath = "testdata/parse_allocs_baseline.txt"
	src := benchSource(t)
	Parse("bench.php", src) // warm the token-buffer pool
	got := testing.AllocsPerRun(50, func() { Parse("bench.php", src) })
	if os.Getenv("UPDATE_ALLOCS_BASELINE") != "" {
		if err := os.WriteFile(baselinePath, []byte(strconv.FormatFloat(got, 'f', -1, 64)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline updated: %v allocs/op", got)
		return
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("missing allocs baseline (run with UPDATE_ALLOCS_BASELINE=1 to create): %v", err)
	}
	baseline, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatalf("bad baseline %q: %v", raw, err)
	}
	// One alloc of slack covers a token buffer the pool dropped at GC.
	if limit := baseline*1.10 + 1; got > limit {
		t.Fatalf("parser allocations regressed: %v allocs/op, baseline %v (limit %.2f)", got, baseline, limit)
	}
	t.Logf("parse allocs/op = %v (baseline %v)", got, baseline)
}

// TestInspectAllocsConstant requires a full walk of the representative
// file's AST to allocate a small constant, not once per node.
func TestInspectAllocsConstant(t *testing.T) {
	f := Parse("bench.php", benchSource(t))
	nodes := phpast.CountNodes(f)
	allocs := testing.AllocsPerRun(50, func() {
		phpast.InspectStmts(f.Stmts, func(phpast.Node) bool { return true })
	})
	if allocs > 2 {
		t.Fatalf("InspectStmts over %d nodes made %v allocs/op, want at most 2", nodes, allocs)
	}
	t.Logf("InspectStmts over %d nodes: %v allocs/op", nodes, allocs)
}
