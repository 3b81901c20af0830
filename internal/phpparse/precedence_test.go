package phpparse

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/phpast"
)

// goldenBinaryOps lists the 21 binary operator spellings the expression
// grammar knows, loosest to tightest.
var goldenBinaryOps = []string{
	"||", "&&", "|", "^", "&",
	"==", "!=", "===", "!==",
	"<", "<=", ">", ">=",
	"<<", ">>",
	"+", "-", ".",
	"*", "/", "%",
}

// parenDump renders an expression fully parenthesised, so the golden
// file shows the tree shape rather than a minimal reprint.
func parenDump(e phpast.Expr) string {
	switch x := e.(type) {
	case nil:
		return "<nil>"
	case *phpast.Var:
		return "$" + x.Name
	case *phpast.Binary:
		return "(" + parenDump(x.L) + " " + x.Op + " " + parenDump(x.R) + ")"
	case *phpast.Unary:
		return "(" + x.Op + parenDump(x.X) + ")"
	case *phpast.Assign:
		return "(" + parenDump(x.LHS) + " " + x.Op + " " + parenDump(x.RHS) + ")"
	case *phpast.Ternary:
		return "(" + parenDump(x.Cond) + " ? " + parenDump(x.Then) + " : " + parenDump(x.Else) + ")"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

// precedenceCases builds every expression the golden file covers: each
// ordered pair of binary operators, then each operator next to the
// constructs that bound the binary levels (assignment, ternary, the
// word operators and prefix unary).
func precedenceCases() []string {
	var cases []string
	for _, op1 := range goldenBinaryOps {
		for _, op2 := range goldenBinaryOps {
			cases = append(cases, "$a "+op1+" $b "+op2+" $c")
		}
	}
	for _, op := range goldenBinaryOps {
		cases = append(cases,
			"$a = $b "+op+" $c",
			"$a "+op+" $b ? $c : $d",
			"$a ? $b : $c "+op+" $d",
			"$a "+op+" $b and $c",
			"$a or $b "+op+" $c",
			"!$a "+op+" $b",
			"-$a "+op+" -$b",
		)
	}
	return cases
}

// TestPrecedenceGolden pins the tree shape of every operator pairing in
// testdata/precedence.golden. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/phpparse -run PrecedenceGolden
// after an intentional grammar change.
func TestPrecedenceGolden(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	for _, src := range precedenceCases() {
		f := parse("prec.php", "<?php "+src+";")
		line := src + " => "
		if len(f.Stmts) != 1 {
			line += fmt.Sprintf("<%d statements>", len(f.Stmts))
		} else if es, ok := f.Stmts[0].(*phpast.ExprStmt); ok {
			line += parenDump(es.X)
		} else {
			line += fmt.Sprintf("<%T>", f.Stmts[0])
		}
		if len(f.Errors) > 0 {
			line += fmt.Sprintf(" errors=%q", f.Errors)
		}
		b.WriteString(line + "\n")
	}
	checkGolden(t, filepath.Join("testdata", "precedence.golden"), b.String())
}

// checkGolden compares got with the named golden file, rewriting it
// when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
