package phplex

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOperatorsLexAlone checks that every operators entry, lexed on its
// own, is exactly one token of its kind.
func TestOperatorsLexAlone(t *testing.T) {
	t.Parallel()
	for _, op := range operators {
		toks := TokenizeCode("<?php " + op.text)
		if len(toks) != 3 || toks[1].Kind != op.kind || toks[1].Text != op.text {
			t.Errorf("%q lexed to %v, want one %v", op.text, toks, op.kind)
		}
	}
}

// munchCases are operator runs where a longer operator shares a prefix
// with shorter ones, plus bytes no operator starts with.
var munchCases = []string{
	"!==", "!===", "!=", "!!",
	"<<=", "<<<", "<<", "<<<=", "<<==",
	"<>", "<>=", "<=>", "<=", "<<>",
	"...", "....", "..", ".=", "..=", ".==", "...=",
	"->", "-->", "-=", "->>", "--=",
	"=>", "==>", "===", "====", "=<",
	">>=", ">>>", ">>==", ">=",
	"&&=", "&=&", "||=", "|==",
	"::", ":::", "?:", "??", "?->",
	"++=", "+++", "**", "*==", "%%=", "^^=", "~~", "@@",
	"<?", "<?=", "<?php", "$a<?$b", "$a<<<$b",
	"\\\\", "\x01", "\x7f", "$a\x00$b",
}

// TestOperatorTokenGolden pins how operator text splits into tokens in
// PHP mode: every operators entry alone and every maximal-munch case.
// Regenerate testdata/operator_tokens.golden with
// UPDATE_GOLDEN=1 go test ./internal/phplex -run OperatorTokenGolden
// after an intentional lexer change.
func TestOperatorTokenGolden(t *testing.T) {
	t.Parallel()
	inputs := make([]string, 0, len(operators)+len(munchCases))
	for _, op := range operators {
		inputs = append(inputs, op.text)
	}
	inputs = append(inputs, munchCases...)
	var b strings.Builder
	for _, in := range inputs {
		fmt.Fprintf(&b, "%q:", in)
		// Skip the open tag and the whitespace after it.
		for _, tok := range Tokenize("<?php " + in)[2:] {
			fmt.Fprintf(&b, " %v%q", tok.Kind, tok.Text)
		}
		b.WriteString("\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "operator_tokens.golden")
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
		t.Fatalf("operator tokenization differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
