// Package phplex tokenizes PHP 5 source code.
//
// It is the Go substitute for the PHP interpreter's token_get_all function,
// which phpSAFE (DSN 2015, §III.B) uses to build its abstract syntax tree:
// the lexer emits the same token taxonomy (see package phptoken), including
// inline HTML segments, line numbers, interpolated string parts and
// heredocs, so the downstream model-construction stage can be implemented
// exactly as the paper describes.
package phplex

import (
	"strings"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phptoken"
)

// mode is the lexer's top-level state.
type mode int

const (
	// modeHTML emits inline HTML until a PHP open tag.
	modeHTML mode = iota + 1
	// modePHP lexes ordinary PHP code.
	modePHP
	// modeDQString lexes the inside of an interpolated double-quoted string.
	modeDQString
	// modeBacktick lexes the inside of a backtick (shell) string.
	modeBacktick
	// modeHeredoc lexes the inside of a heredoc body.
	modeHeredoc
)

// Lexer converts PHP source text into a stream of tokens.
// The zero value is not usable; construct with New.
type Lexer struct {
	src  string
	pos  int
	line int

	mode mode
	// curlyDepth tracks brace nesting while lexing a {$...} interpolation
	// so the lexer knows when to resume string mode. The stack handles
	// strings nested inside interpolations.
	returnModes []mode
	curlyDepths []int
	// heredocLabel is the terminator label of the heredoc being lexed.
	heredocLabel string
}

// New returns a Lexer over src. Lexing starts in HTML mode, as PHP does.
func New(src string) *Lexer {
	return &Lexer{src: src, pos: 0, line: 1, mode: modeHTML}
}

// Tokenize lexes src completely and returns all tokens, including trivia
// (whitespace and comments), terminated by an EOF token. It never fails:
// unrecognized bytes are emitted as Invalid tokens, mirroring
// token_get_all's tolerance of malformed input.
func Tokenize(src string) []phptoken.Token {
	l := New(src)
	// A rough pre-size: PHP averages about one token per 4 bytes.
	toks := make([]phptoken.Token, 0, len(src)/4+8)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == phptoken.EOF {
			return toks
		}
	}
}

// TokenizeCode lexes src and returns only syntactically meaningful tokens
// (trivia removed), matching phpSAFE's cleaned AST input (paper §III.B).
// The stream is filtered in a single pass straight into a pooled buffer;
// callers that are done with the stream may return it with PutTokens.
func TokenizeCode(src string) []phptoken.Token {
	code, _ := tokenizeCode(src)
	return code
}

// tokenizeCode is the single-pass core shared by the TokenizeCode
// variants: it lexes and drops trivia in one loop (no intermediate
// all-tokens slice) and reports the total token count, trivia included,
// for the lex_tokens_total counter.
func tokenizeCode(src string) (code []phptoken.Token, total int) {
	l := New(src)
	// A rough pre-size: PHP averages about one code token per 6 bytes
	// once whitespace and comments are dropped.
	code = getTokenBuf(len(src)/6 + 8)
	for {
		t := l.Next()
		total++
		if !t.IsTrivia() {
			code = append(code, t)
		}
		if t.Kind == phptoken.EOF {
			return code, total
		}
	}
}

// TokenizeCodeObserved is TokenizeCode with lexing cost recorded into a
// recorder: tokens lexed (including trivia), source lines, and lex time
// under parent as a "lex" span observed into the stage_lex_seconds
// histogram. A nil recorder makes it identical to TokenizeCode.
func TokenizeCodeObserved(src string, rec *obs.Recorder, parent *obs.Span) []phptoken.Token {
	if rec == nil {
		return TokenizeCode(src)
	}
	sp := rec.StartSpan("lex", parent)
	code, total := tokenizeCode(src)
	sp.EndAndObserve("stage_lex_seconds")
	rec.Counter("lex_tokens_total").Add(int64(total))
	rec.Counter("lex_lines_total").Add(int64(strings.Count(src, "\n") + 1))
	return code
}

// TokenizeCodeGoverned is TokenizeCodeObserved with a governance
// checkpoint per token: when the governor halts (cancellation, scan
// deadline, step budget, file slice) lexing stops and the stream is
// terminated with an early EOF, so the parser sees a truncated but
// well-formed input. A nil governor makes it identical to
// TokenizeCodeObserved.
func TokenizeCodeGoverned(src string, rec *obs.Recorder, parent *obs.Span, gov *govern.Governor) []phptoken.Token {
	if gov == nil {
		return TokenizeCodeObserved(src, rec, parent)
	}
	sp := rec.StartSpan("lex", parent)
	l := New(src)
	code := getTokenBuf(len(src)/6 + 8)
	total := 0
	for {
		gov.Step()
		if gov.Halted() {
			code = append(code, phptoken.Token{Kind: phptoken.EOF, Line: l.line, Offset: l.pos})
			total++
			break
		}
		t := l.Next()
		total++
		if !t.IsTrivia() {
			code = append(code, t)
		}
		if t.Kind == phptoken.EOF {
			break
		}
	}
	sp.EndAndObserve("stage_lex_seconds")
	if rec != nil {
		rec.Counter("lex_tokens_total").Add(int64(total))
		rec.Counter("lex_lines_total").Add(int64(strings.Count(src, "\n") + 1))
	}
	return code
}

// Next returns the next token. After the end of input it returns EOF
// forever.
func (l *Lexer) Next() phptoken.Token {
	if l.pos >= len(l.src) {
		return l.token(phptoken.EOF, l.pos)
	}
	switch l.mode {
	case modeHTML:
		return l.lexHTML()
	case modeDQString:
		return l.lexInterpolated('"', phptoken.Quote)
	case modeBacktick:
		return l.lexInterpolated('`', phptoken.Backtick)
	case modeHeredoc:
		return l.lexHeredocBody()
	default:
		return l.lexPHP()
	}
}

// token builds a token whose text spans [start, l.pos).
func (l *Lexer) token(k phptoken.Kind, start int) phptoken.Token {
	text := l.src[start:l.pos]
	return phptoken.Token{
		Kind:   k,
		Text:   text,
		Line:   l.line - strings.Count(text, "\n"),
		Offset: start,
	}
}

// advance moves the cursor n bytes forward, keeping the line count current.
func (l *Lexer) advance(n int) {
	end := l.pos + n
	if end > len(l.src) {
		end = len(l.src)
	}
	for i := l.pos; i < end; i++ {
		if l.src[i] == '\n' {
			l.line++
		}
	}
	l.pos = end
}

// peek returns the byte at offset n from the cursor, or 0 past the end.
func (l *Lexer) peek(n int) byte {
	if l.pos+n >= len(l.src) {
		return 0
	}
	return l.src[l.pos+n]
}

// hasPrefix reports whether the remaining input starts with s,
// case-sensitively.
func (l *Lexer) hasPrefix(s string) bool {
	return strings.HasPrefix(l.src[l.pos:], s)
}

// hasPrefixFold reports whether the remaining input starts with s ignoring
// ASCII case.
func (l *Lexer) hasPrefixFold(s string) bool {
	if l.pos+len(s) > len(l.src) {
		return false
	}
	return strings.EqualFold(l.src[l.pos:l.pos+len(s)], s)
}

// lexHTML scans inline HTML until an open tag or end of input.
func (l *Lexer) lexHTML() phptoken.Token {
	start := l.pos
	if l.hasPrefixFold("<?php") {
		l.advance(5)
		// token_get_all includes one following whitespace char in the tag.
		l.mode = modePHP
		return l.token(phptoken.OpenTag, start)
	}
	if l.hasPrefix("<?=") {
		l.advance(3)
		l.mode = modePHP
		return l.token(phptoken.OpenTagEcho, start)
	}
	if l.hasPrefix("<?") {
		l.advance(2)
		l.mode = modePHP
		return l.token(phptoken.OpenTag, start)
	}
	for l.pos < len(l.src) {
		if l.peek(0) == '<' && l.peek(1) == '?' {
			break
		}
		l.advance(1)
	}
	return l.token(phptoken.InlineHTML, start)
}

// lexPHP scans one token of ordinary PHP code.
func (l *Lexer) lexPHP() phptoken.Token {
	start := l.pos
	c := l.peek(0)

	switch {
	case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		for {
			c := l.peek(0)
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				break
			}
			l.advance(1)
			if l.pos >= len(l.src) {
				break
			}
		}
		return l.token(phptoken.Whitespace, start)

	case c == '?' && l.peek(1) == '>':
		l.advance(2)
		l.mode = modeHTML
		return l.token(phptoken.CloseTag, start)

	case c == '/' && l.peek(1) == '/', c == '#':
		return l.lexLineComment(start)

	case c == '/' && l.peek(1) == '*':
		return l.lexBlockComment(start)

	case c == '$':
		return l.lexVariable(start)

	case isIdentStart(c):
		return l.lexIdent(start)

	case c >= '0' && c <= '9', c == '.' && isDigit(l.peek(1)):
		return l.lexNumber(start)

	case c == '\'':
		return l.lexSingleQuoted(start)

	case c == '"':
		return l.lexDoubleQuoted(start)

	case c == '`':
		l.advance(1)
		l.pushMode(modeBacktick)
		return l.token(phptoken.Backtick, start)

	case c == '<' && l.hasPrefix("<<<"):
		return l.lexHeredocStart(start)

	case c == '(':
		if k, n, ok := l.castAhead(); ok {
			l.advance(n)
			return l.token(k, start)
		}
		l.advance(1)
		return l.token(phptoken.LParen, start)

	case c == '}':
		l.advance(1)
		// A closing brace may terminate a {$...} interpolation.
		if n := len(l.curlyDepths); n > 0 {
			l.curlyDepths[n-1]--
			if l.curlyDepths[n-1] == 0 {
				l.popMode()
			}
		}
		return l.token(phptoken.RBrace, start)

	case c == '{':
		l.advance(1)
		if n := len(l.curlyDepths); n > 0 {
			l.curlyDepths[n-1]++
		}
		return l.token(phptoken.LBrace, start)

	default:
		return l.lexOperator(start)
	}
}

// lexLineComment scans a // or # comment. The comment ends at the newline
// or, as in PHP, immediately before a close tag.
func (l *Lexer) lexLineComment(start int) phptoken.Token {
	for l.pos < len(l.src) {
		if l.peek(0) == '\n' {
			break
		}
		if l.peek(0) == '?' && l.peek(1) == '>' {
			break
		}
		l.advance(1)
	}
	return l.token(phptoken.Comment, start)
}

// lexBlockComment scans a /* */ or /** */ comment.
func (l *Lexer) lexBlockComment(start int) phptoken.Token {
	kind := phptoken.Comment
	if l.peek(2) == '*' && l.peek(3) != '/' {
		kind = phptoken.DocComment
	}
	l.advance(2)
	for l.pos < len(l.src) {
		if l.peek(0) == '*' && l.peek(1) == '/' {
			l.advance(2)
			return l.token(kind, start)
		}
		l.advance(1)
	}
	return l.token(kind, start) // unterminated comment runs to EOF
}

// lexVariable scans $name, or a bare $ for variable-variables ($$x).
func (l *Lexer) lexVariable(start int) phptoken.Token {
	l.advance(1)
	if !isIdentStart(l.peek(0)) {
		return l.token(phptoken.Dollar, start)
	}
	for isIdentPart(l.peek(0)) {
		l.advance(1)
	}
	return l.token(phptoken.Variable, start)
}

// lexIdent scans an identifier and classifies keywords.
func (l *Lexer) lexIdent(start int) phptoken.Token {
	for isIdentPart(l.peek(0)) {
		l.advance(1)
	}
	text := l.src[start:l.pos]
	if k, ok := phptoken.LookupKeyword(text); ok {
		return l.token(k, start)
	}
	return l.token(phptoken.Ident, start)
}

// lexNumber scans integer and floating point literals, including hex and
// octal integers and exponent notation.
func (l *Lexer) lexNumber(start int) phptoken.Token {
	if l.peek(0) == '0' && (l.peek(1) == 'x' || l.peek(1) == 'X') {
		l.advance(2)
		for isHexDigit(l.peek(0)) {
			l.advance(1)
		}
		return l.token(phptoken.IntLit, start)
	}
	float := false
	for isDigit(l.peek(0)) {
		l.advance(1)
	}
	if l.peek(0) == '.' && isDigit(l.peek(1)) {
		float = true
		l.advance(1)
		for isDigit(l.peek(0)) {
			l.advance(1)
		}
	}
	if c := l.peek(0); c == 'e' || c == 'E' {
		next := l.peek(1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peek(2))) {
			float = true
			l.advance(2)
			for isDigit(l.peek(0)) {
				l.advance(1)
			}
		}
	}
	if float {
		return l.token(phptoken.FloatLit, start)
	}
	return l.token(phptoken.IntLit, start)
}

// lexSingleQuoted scans a complete single-quoted string literal.
func (l *Lexer) lexSingleQuoted(start int) phptoken.Token {
	l.advance(1)
	for l.pos < len(l.src) {
		switch l.peek(0) {
		case '\\':
			l.advance(2)
		case '\'':
			l.advance(1)
			return l.token(phptoken.StringLit, start)
		default:
			l.advance(1)
		}
	}
	return l.token(phptoken.StringLit, start) // unterminated
}

// lexDoubleQuoted scans a double-quoted string. Non-interpolated strings
// are emitted as one StringLit; interpolated ones emit the opening Quote
// and switch to string mode, as token_get_all does.
func (l *Lexer) lexDoubleQuoted(start int) phptoken.Token {
	if end, plain := l.scanPlainDQ(); plain {
		l.advance(end - l.pos)
		return l.token(phptoken.StringLit, start)
	}
	l.advance(1)
	l.pushMode(modeDQString)
	return l.token(phptoken.Quote, start)
}

// scanPlainDQ looks ahead over a double-quoted string. If the string
// contains no interpolation it returns the position just past the closing
// quote and true.
func (l *Lexer) scanPlainDQ() (end int, plain bool) {
	i := l.pos + 1
	for i < len(l.src) {
		switch l.src[i] {
		case '\\':
			i += 2
		case '"':
			return i + 1, true
		case '$':
			if i+1 < len(l.src) && (isIdentStart(l.src[i+1]) || l.src[i+1] == '{') {
				return 0, false
			}
			i++
		case '{':
			if i+1 < len(l.src) && l.src[i+1] == '$' {
				return 0, false
			}
			i++
		default:
			i++
		}
	}
	return i, true // unterminated: treat as plain
}

// lexInterpolated scans the next token inside a double-quoted or backtick
// string: a text fragment, an interpolated variable, or the delimiter.
func (l *Lexer) lexInterpolated(delim byte, delimKind phptoken.Kind) phptoken.Token {
	start := l.pos
	c := l.peek(0)

	if c == delim {
		l.advance(1)
		l.popMode()
		return l.token(delimKind, start)
	}
	if tok, ok := l.lexInterpolationStart(start); ok {
		return tok
	}
	// Text fragment until the next interpolation point or delimiter.
	for l.pos < len(l.src) {
		c := l.peek(0)
		if c == delim {
			break
		}
		if c == '\\' {
			l.advance(2)
			continue
		}
		if c == '$' && (isIdentStart(l.peek(1)) || l.peek(1) == '{') {
			break
		}
		if c == '{' && l.peek(1) == '$' {
			break
		}
		l.advance(1)
	}
	return l.token(phptoken.EncapsedText, start)
}

// lexInterpolationStart handles the three interpolation forms at the
// cursor: $name (with optional ->prop or [idx]), {$expr}, and ${name}.
// It reports false when the cursor is not at an interpolation point.
func (l *Lexer) lexInterpolationStart(start int) (phptoken.Token, bool) {
	c := l.peek(0)
	if c == '{' && l.peek(1) == '$' {
		l.advance(1)
		l.pushCurly()
		return l.token(phptoken.CurlyOpen, start), true
	}
	if c == '$' && l.peek(1) == '{' {
		l.advance(2)
		l.pushCurly()
		return l.token(phptoken.DollarCurlyOpen, start), true
	}
	if c == '$' && isIdentStart(l.peek(1)) {
		// Simple interpolation: lex the variable now; -> and [ ] accesses
		// are picked up by subsequent calls in simple-syntax mode. PHP's
		// simple syntax only allows one level, which the fragment scanner
		// naturally produces because "->" and "[" are consumed here.
		l.advance(1)
		for isIdentPart(l.peek(0)) {
			l.advance(1)
		}
		tok := l.token(phptoken.Variable, start)
		return tok, true
	}
	// ->prop directly after an interpolated variable.
	if c == '-' && l.peek(1) == '>' && isIdentStart(l.peek(2)) && l.prevWasInterpVar() {
		l.advance(2)
		return l.token(phptoken.Arrow, start), true
	}
	// The property name directly after an interpolated "->".
	if isIdentStart(c) && l.pos >= 2 && l.src[l.pos-1] == '>' && l.src[l.pos-2] == '-' {
		for isIdentPart(l.peek(0)) {
			l.advance(1)
		}
		return l.token(phptoken.Ident, start), true
	}
	if c == '[' && l.prevWasInterpVar() {
		l.advance(1)
		return l.token(phptoken.LBracket, start), true
	}
	if c == ']' && l.prevWasInterpBracket() {
		l.advance(1)
		return l.token(phptoken.RBracket, start), true
	}
	if l.prevWasInterpBracket() {
		// Index token inside simple-syntax brackets: int, ident or $var.
		if c == '$' {
			return l.lexVariable(start), true
		}
		if isDigit(c) {
			for isDigit(l.peek(0)) {
				l.advance(1)
			}
			return l.token(phptoken.IntLit, start), true
		}
		if isIdentStart(c) {
			for isIdentPart(l.peek(0)) {
				l.advance(1)
			}
			return l.token(phptoken.Ident, start), true
		}
	}
	return phptoken.Token{}, false
}

// prevWasInterpVar reports whether the bytes immediately before the cursor
// end a simple-syntax interpolated variable or property access, enabling
// the ->prop and [idx] continuations.
func (l *Lexer) prevWasInterpVar() bool {
	i := l.pos - 1
	for i >= 0 && isIdentPart(l.src[i]) {
		i--
	}
	if i < 0 || i == l.pos-1 {
		return false
	}
	if l.src[i] == '$' {
		return true
	}
	// ...->prop
	return i >= 1 && l.src[i] == '>' && l.src[i-1] == '-'
}

// prevWasInterpBracket reports whether the cursor is inside a simple-syntax
// [idx] access: scanning back over the index token must reach "[" preceded
// by a variable.
func (l *Lexer) prevWasInterpBracket() bool {
	i := l.pos - 1
	for i >= 0 && (isIdentPart(l.src[i]) || l.src[i] == '$') {
		i--
	}
	if i < 0 || l.src[i] != '[' {
		return false
	}
	j := i - 1
	for j >= 0 && isIdentPart(l.src[j]) {
		j--
	}
	return j >= 0 && j < i-1 && l.src[j] == '$'
}

// lexHeredocStart scans <<<LABEL, <<<"LABEL" or <<<'LABEL' (nowdoc).
func (l *Lexer) lexHeredocStart(start int) phptoken.Token {
	l.advance(3)
	for l.peek(0) == ' ' || l.peek(0) == '\t' {
		l.advance(1)
	}
	quote := byte(0)
	if c := l.peek(0); c == '"' || c == '\'' {
		quote = c
		l.advance(1)
	}
	labelStart := l.pos
	for isIdentPart(l.peek(0)) {
		l.advance(1)
	}
	l.heredocLabel = l.src[labelStart:l.pos]
	if quote != 0 && l.peek(0) == quote {
		l.advance(1)
	}
	if l.peek(0) == '\r' {
		l.advance(1)
	}
	if l.peek(0) == '\n' {
		l.advance(1)
	}
	if quote == '\'' {
		// Nowdoc: no interpolation; consume the whole body here by
		// switching to heredoc mode with interpolation disabled. For
		// simplicity nowdoc bodies are emitted as one EncapsedText by
		// lexHeredocBody because '$' never starts interpolation there.
		l.heredocLabel = "'" + l.heredocLabel
	}
	l.pushMode(modeHeredoc)
	return l.token(phptoken.StartHeredoc, start)
}

// lexHeredocBody scans heredoc content, emitting text fragments and
// interpolations until the terminator label.
func (l *Lexer) lexHeredocBody() phptoken.Token {
	start := l.pos
	label := l.heredocLabel
	nowdoc := strings.HasPrefix(label, "'")
	if nowdoc {
		label = label[1:]
	}

	if l.atHeredocEnd(label) {
		l.advance(len(label))
		l.popMode()
		l.heredocLabel = ""
		return l.token(phptoken.EndHeredoc, start)
	}
	if !nowdoc {
		if tok, ok := l.lexInterpolationStart(start); ok {
			return tok
		}
	}
	for l.pos < len(l.src) {
		c := l.peek(0)
		if c == '\\' && !nowdoc {
			l.advance(2)
			continue
		}
		if !nowdoc {
			if c == '$' && (isIdentStart(l.peek(1)) || l.peek(1) == '{') {
				break
			}
			if c == '{' && l.peek(1) == '$' {
				break
			}
		}
		if c == '\n' {
			l.advance(1)
			if l.atHeredocEnd(label) {
				break
			}
			continue
		}
		l.advance(1)
	}
	return l.token(phptoken.EncapsedText, start)
}

// atHeredocEnd reports whether the cursor sits at the start of a line whose
// content is the heredoc terminator label. A heredoc opened without a
// label has no terminator and runs to the end of input; matching the
// empty label would emit an empty EndHeredoc token.
func (l *Lexer) atHeredocEnd(label string) bool {
	if label == "" || (l.pos != 0 && l.src[l.pos-1] != '\n') {
		return false
	}
	if !strings.HasPrefix(l.src[l.pos:], label) {
		return false
	}
	after := l.pos + len(label)
	if after >= len(l.src) {
		return true
	}
	c := l.src[after]
	return c == ';' || c == '\n' || c == '\r'
}

// castAhead looks for a cast operator "(type)" at the cursor and returns
// its kind and byte length.
func (l *Lexer) castAhead() (phptoken.Kind, int, bool) {
	i := l.pos + 1
	for i < len(l.src) && (l.src[i] == ' ' || l.src[i] == '\t') {
		i++
	}
	wordStart := i
	for i < len(l.src) && isIdentPart(l.src[i]) {
		i++
	}
	word := LowerASCII(l.src[wordStart:i])
	for i < len(l.src) && (l.src[i] == ' ' || l.src[i] == '\t') {
		i++
	}
	if i >= len(l.src) || l.src[i] != ')' {
		return 0, 0, false
	}
	var k phptoken.Kind
	switch word {
	case "int", "integer":
		k = phptoken.IntCast
	case "float", "double", "real":
		k = phptoken.FloatCast
	case "string", "binary":
		k = phptoken.StringCast
	case "array":
		k = phptoken.ArrayCast
	case "object":
		k = phptoken.ObjectCast
	case "bool", "boolean":
		k = phptoken.BoolCast
	case "unset":
		k = phptoken.UnsetCast
	default:
		return 0, 0, false
	}
	return k, i + 1 - l.pos, true
}

// operator is one punctuation or operator spelling and its token kind.
type operator struct {
	text string
	kind phptoken.Kind
}

// operators lists multi-character operators longest-first so that the
// first entry whose text prefixes the input is the longest match.
var operators = []operator{
	{"===", phptoken.IsIdentical},
	{"!==", phptoken.IsNotIdentical},
	{"<<=", phptoken.ShlAssign},
	{">>=", phptoken.ShrAssign},
	{"...", phptoken.Ellipsis},
	{"==", phptoken.IsEqual},
	{"!=", phptoken.IsNotEqual},
	{"<>", phptoken.IsNotEqual},
	{"<=", phptoken.Le},
	{">=", phptoken.Ge},
	{"&&", phptoken.BoolAnd},
	{"||", phptoken.BoolOr},
	{"++", phptoken.Inc},
	{"--", phptoken.Dec},
	{"+=", phptoken.PlusAssign},
	{"-=", phptoken.MinusAssign},
	{"*=", phptoken.StarAssign},
	{"/=", phptoken.SlashAssign},
	{".=", phptoken.DotAssign},
	{"%=", phptoken.PercentAssign},
	{"&=", phptoken.AmpAssign},
	{"|=", phptoken.PipeAssign},
	{"^=", phptoken.CaretAssign},
	{"<<", phptoken.Shl},
	{">>", phptoken.Shr},
	{"->", phptoken.Arrow},
	{"::", phptoken.DoubleColon},
	{"=>", phptoken.DoubleArrow},
	{"=", phptoken.Assign},
	{"+", phptoken.Plus},
	{"-", phptoken.Minus},
	{"*", phptoken.Star},
	{"/", phptoken.Slash},
	{"%", phptoken.Percent},
	{".", phptoken.Dot},
	{"!", phptoken.Bang},
	{"?", phptoken.Question},
	{":", phptoken.Colon},
	{";", phptoken.Semicolon},
	{",", phptoken.Comma},
	{")", phptoken.RParen},
	{"[", phptoken.LBracket},
	{"]", phptoken.RBracket},
	{"<", phptoken.Lt},
	{">", phptoken.Gt},
	{"&", phptoken.Amp},
	{"|", phptoken.Pipe},
	{"^", phptoken.Caret},
	{"~", phptoken.Tilde},
	{"@", phptoken.At},
	{"\\", phptoken.Backslash},
}

// operatorsByByte buckets operators by their first byte, keeping the
// longest-first order within each bucket. lexOperator only tries the
// handful of entries that can match at the cursor.
var operatorsByByte = func() (table [128][]operator) {
	for _, op := range operators {
		table[op.text[0]] = append(table[op.text[0]], op)
	}
	return table
}()

// lexOperator scans punctuation and operators with longest-match-first.
// A byte no operator starts with becomes a one-byte Invalid token.
func (l *Lexer) lexOperator(start int) phptoken.Token {
	if c := l.src[start]; c < 128 {
		for _, op := range operatorsByByte[c] {
			if l.hasPrefix(op.text) {
				l.advance(len(op.text))
				return l.token(op.kind, start)
			}
		}
	}
	l.advance(1)
	return l.token(phptoken.Invalid, start)
}

// pushMode enters a string-like mode, remembering where to return.
func (l *Lexer) pushMode(m mode) {
	l.returnModes = append(l.returnModes, l.mode)
	l.mode = m
}

// popMode returns to the mode active before the last pushMode/pushCurly.
func (l *Lexer) popMode() {
	if n := len(l.returnModes); n > 0 {
		l.mode = l.returnModes[n-1]
		l.returnModes = l.returnModes[:n-1]
	} else {
		l.mode = modePHP
	}
	if n := len(l.curlyDepths); n > 0 && l.curlyDepths[n-1] == 0 {
		l.curlyDepths = l.curlyDepths[:n-1]
	}
}

// pushCurly enters PHP mode for a {$...} or ${...} interpolation; the
// matching } returns to the surrounding string mode.
func (l *Lexer) pushCurly() {
	l.returnModes = append(l.returnModes, l.mode)
	l.curlyDepths = append(l.curlyDepths, 1)
	l.mode = modePHP
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool { return isDigit(c) || (c|0x20 >= 'a' && c|0x20 <= 'f') }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
