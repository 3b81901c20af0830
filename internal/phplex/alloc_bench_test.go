package phplex

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchSourcePath is a representative plugin file: markup, functions,
// a class with methods, superglobal reads, interpolated SQL and echo
// sinks — the token mix the corpus actually exercises. It is synthetic
// with a stable size; the parser's allocation gate and the AST walk
// test read it too.
const benchSourcePath = "testdata/bench.php"

// benchSource returns the contents of benchSourcePath.
func benchSource(tb testing.TB) string {
	tb.Helper()
	src, err := os.ReadFile(benchSourcePath)
	if err != nil {
		tb.Fatal(err)
	}
	return string(src)
}

// BenchmarkLexAllocs is the allocation gate for the lexer hot path:
// tokenize a representative file, hand the stream back to the pool,
// repeat. CI compares its allocs/op against the checked-in baseline in
// testdata/lex_allocs_baseline.txt and fails on a >10% regression
// (TestLexAllocsGate enforces the same bound without needing -bench).
func BenchmarkLexAllocs(b *testing.B) {
	src := benchSource(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		PutTokens(TokenizeCode(src))
	}
}

// lexAllocsPerOp measures steady-state allocations per TokenizeCode +
// PutTokens cycle, after a warm-up pass that populates the buffer pool.
func lexAllocsPerOp(t *testing.T) float64 {
	src := benchSource(t)
	PutTokens(TokenizeCode(src))
	return testing.AllocsPerRun(200, func() {
		PutTokens(TokenizeCode(src))
	})
}

// TestLexAllocsGate fails when the lexer's allocs/op regresses more
// than 10% over the checked-in baseline. Refresh the baseline with
// UPDATE_ALLOCS_BASELINE=1 go test ./internal/phplex -run LexAllocsGate
// after an intentional change.
func TestLexAllocsGate(t *testing.T) {
	const baselinePath = "testdata/lex_allocs_baseline.txt"
	got := lexAllocsPerOp(t)
	if os.Getenv("UPDATE_ALLOCS_BASELINE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
	// Allow 10% headroom plus one alloc of slack so a tiny integer
	// baseline doesn't make the gate flake on scheduler noise.
	limit := baseline*1.10 + 1
	if got > limit {
		t.Fatalf("lexer allocations regressed: %v allocs/op, baseline %v (limit %.2f)", got, baseline, limit)
	}
	t.Logf("lex allocs/op = %v (baseline %v)", got, baseline)
}
