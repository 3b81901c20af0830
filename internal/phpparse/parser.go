// Package phpparse parses PHP 5 source code into the AST of package phpast.
//
// The parser is the second half of phpSAFE's model-construction stage
// (DSN 2015, §III.B): it consumes the cleaned token stream produced by
// package phplex and produces one phpast.File per source file. It is
// tolerant by design — plugins in the wild contain constructs outside the
// analyzed subset, and the paper's tools must "finish the analysis and
// produce a result" (robustness, §IV.A) — so unparseable regions degrade
// to Bad nodes and a recorded error instead of failing the file.
package phpparse

import (
	"fmt"
	"strings"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phptoken"
)

// Parse parses PHP source text and returns the file's AST. The returned
// file always has a usable (possibly partial) statement list; recoverable
// problems are listed in File.Errors.
func Parse(name, src string) *phpast.File {
	return ParseObserved(name, src, nil, nil)
}

// ParseObserved is Parse with model-construction cost recorded into a
// recorder: a "parse:<name>" span under parent (with a nested "lex"
// span from the lexer), parse time in the stage_parse_seconds
// histogram, and the parse_ast_nodes_total / parse_errors_total /
// parse_files_total counters. A nil recorder makes it identical to
// Parse — the counting walk only runs when observation is on, so the
// unobserved hot path stays unchanged.
func ParseObserved(name, src string, rec *obs.Recorder, parent *obs.Span) *phpast.File {
	return ParseGoverned(name, src, rec, parent, nil)
}

// ParseGoverned is ParseObserved under a resource governor: lexing and
// statement parsing carry cancellation checkpoints (a halted governor
// terminates the token stream and the statement list early, yielding a
// truncated but well-formed AST), and expression/statement nesting is
// bounded by the governor's parse-depth budget — deeper constructs
// degrade to Bad nodes with a recorded error, exactly like other
// malformed input. A nil governor still applies the default depth
// budget, so the parser is stack-safe on hostile input everywhere.
func ParseGoverned(name, src string, rec *obs.Recorder, parent *obs.Span, gov *govern.Governor) *phpast.File {
	return ParseInterned(name, src, rec, parent, gov, nil)
}

// ParseInterned is ParseGoverned with an identifier intern table: the
// case-folded names the parser materializes (function, class, method
// and call-site names) are deduplicated through in, so each distinct
// spelling is allocated once per scan instead of once per reference.
// The interner is not synchronized — the parallel pipeline hands each
// worker its own shard and merges them at the barrier. A nil interner
// still folds case (with the same ASCII fast path), it just doesn't
// deduplicate.
func ParseInterned(name, src string, rec *obs.Recorder, parent *obs.Span, gov *govern.Governor, in *phplex.Interner) *phpast.File {
	sp := rec.StartNamedSpan("parse:", name, parent)
	p := &parser{
		toks: phplex.TokenizeCodeGoverned(src, rec, sp, gov),
		file: &phpast.File{
			Name:  name,
			Lines: strings.Count(src, "\n") + 1,
		},
		gov:      gov,
		maxDepth: gov.MaxParseDepth(),
		in:       in,
	}
	p.file.Stmts = p.parseStmtList(func(t phptoken.Token) bool { return false })
	// The AST holds no references into the token stream (names are
	// substrings of src or interned copies), so the buffer can go back
	// to the pool as soon as parsing is done.
	phplex.PutTokens(p.toks)
	p.toks = nil
	sp.EndAndObserve("stage_parse_seconds")
	if rec != nil {
		rec.Counter("parse_files_total").Inc()
		rec.Counter("parse_ast_nodes_total").Add(int64(phpast.CountNodes(p.file)))
		rec.Counter("parse_errors_total").Add(int64(len(p.file.Errors)))
	}
	return p.file
}

// parser holds the token cursor and the file being built.
type parser struct {
	toks []phptoken.Token
	pos  int
	file *phpast.File

	// gov is the scan's resource governor (nil when ungoverned).
	gov *govern.Governor
	// depth tracks recursive-descent nesting against maxDepth; crossing
	// the budget degrades the construct to a Bad node instead of risking
	// stack exhaustion on hostile input.
	depth        int
	maxDepth     int
	depthErrored bool

	// in deduplicates case-folded identifiers (nil means fold without
	// interning).
	in *phplex.Interner
}

// lower case-folds an identifier through the intern table. It replaces
// strings.ToLower on the hot path: already-lowercase names (the common
// case) cost zero allocations, and distinct spellings are materialized
// once per scan when an interner is attached.
func (p *parser) lower(s string) string {
	return p.in.Lower(s)
}

// enterNesting guards one level of parser recursion. It reports false —
// recording the budget error once — when the depth budget is spent.
func (p *parser) enterNesting() bool {
	if p.depth >= p.maxDepth {
		if !p.depthErrored {
			p.depthErrored = true
			p.errorf("line %d: nesting exceeds parser depth budget (%d); degrading to bad node",
				p.cur().Line, p.maxDepth)
			p.gov.NoteParseDepth()
		}
		return false
	}
	p.depth++
	return true
}

// leaveNesting releases one level taken by enterNesting.
func (p *parser) leaveNesting() { p.depth-- }

// badExprOverDepth consumes one token (to guarantee forward progress in
// every caller's loop) and returns a placeholder expression.
func (p *parser) badExprOverDepth() phpast.Expr {
	line := p.cur().Line
	if !p.at(phptoken.EOF) {
		p.pos++
	}
	return &phpast.BadExpr{Reason: "nesting depth budget exceeded", Position: phpast.NewPosition(line)}
}

// cur returns the current token; past the end it returns the final EOF.
func (p *parser) cur() phptoken.Token {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos]
}

// peek returns the token n positions ahead.
func (p *parser) peek(n int) phptoken.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

// next consumes and returns the current token.
func (p *parser) next() phptoken.Token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

// kind returns the current token's kind without copying the token.
func (p *parser) kind() phptoken.Kind {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1].Kind
	}
	return p.toks[p.pos].Kind
}

// at reports whether the current token has kind k.
func (p *parser) at(k phptoken.Kind) bool { return p.kind() == k }

// accept consumes the current token when it has kind k.
func (p *parser) accept(k phptoken.Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a token of kind k or records an error without consuming.
func (p *parser) expect(k phptoken.Kind, ctx string) bool {
	if p.accept(k) {
		return true
	}
	p.errorf("line %d: expected %v in %s, found %v", p.cur().Line, k, ctx, p.cur().Kind)
	return false
}

// errorf records a recoverable parse error.
func (p *parser) errorf(format string, args ...any) {
	p.file.Errors = append(p.file.Errors, fmt.Sprintf(format, args...))
}

// pos builds the embedded position from the current token.
func (p *parser) position() int { return p.cur().Line }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// parseStmtList parses statements until EOF or until stop returns true for
// the current token. It guarantees forward progress even on malformed
// input.
func (p *parser) parseStmtList(stop func(phptoken.Token) bool) []phpast.Stmt {
	var list []phpast.Stmt
	for {
		p.gov.Step()
		if p.gov.Halted() {
			// Cancellation or an exhausted budget: hand back what parsed
			// so far; the engine records the truncation.
			return list
		}
		t := p.cur()
		if t.Kind == phptoken.EOF || stop(t) {
			return list
		}
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			list = append(list, s)
		}
		if p.pos == before {
			// No progress: consume the offending token to avoid loops.
			bad := p.next()
			p.errorf("line %d: unexpected token %v", bad.Line, bad.Kind)
			list = append(list, &phpast.BadStmt{
				Reason:   "unexpected " + bad.Kind.String(),
				Position: phpast.NewPosition(bad.Line),
			})
		}
	}
}

// stopAt returns a stop predicate matching any of the given kinds.
func stopAt(kinds ...phptoken.Kind) func(phptoken.Token) bool {
	return func(t phptoken.Token) bool {
		for _, k := range kinds {
			if t.Kind == k {
				return true
			}
		}
		return false
	}
}

// stopAtIdents returns a stop predicate matching Ident tokens with any of
// the given case-insensitive spellings (used for endif/endwhile/...).
func stopAtIdents(names ...string) func(phptoken.Token) bool {
	return func(t phptoken.Token) bool {
		if t.Kind != phptoken.Ident {
			return false
		}
		for _, n := range names {
			if strings.EqualFold(t.Text, n) {
				return true
			}
		}
		return false
	}
}

// parseStmt parses one statement. It may return nil for tokens that carry
// no statement (open/close tags, stray semicolons).
func (p *parser) parseStmt() phpast.Stmt {
	if !p.enterNesting() {
		line := p.cur().Line
		if !p.at(phptoken.EOF) {
			p.pos++
		}
		return &phpast.BadStmt{Reason: "nesting depth budget exceeded", Position: phpast.NewPosition(line)}
	}
	s := p.parseStmtTail()
	p.leaveNesting()
	return s
}

// parseStmtTail is parseStmt without the depth guard.
func (p *parser) parseStmtTail() phpast.Stmt {
	t := p.cur()
	switch t.Kind {
	case phptoken.OpenTag, phptoken.CloseTag:
		p.next()
		return nil
	case phptoken.Semicolon:
		p.next()
		return nil
	case phptoken.InlineHTML:
		p.next()
		return &phpast.Echo{
			Args:     []phpast.Expr{p.lit(t.Line, phpast.LitString, t.Text)},
			FromHTML: true,
			Position: phpast.NewPosition(t.Line),
		}
	case phptoken.OpenTagEcho:
		p.next()
		args := p.parseExprListUntil(stopAt(phptoken.Semicolon, phptoken.CloseTag))
		p.accept(phptoken.Semicolon)
		return &phpast.Echo{Args: args, FromHTML: true, Position: phpast.NewPosition(t.Line)}
	case phptoken.KwEcho:
		p.next()
		args := p.parseExprListUntil(stopAt(phptoken.Semicolon, phptoken.CloseTag))
		p.endStmt()
		return &phpast.Echo{Args: args, Position: phpast.NewPosition(t.Line)}
	case phptoken.LBrace:
		p.next()
		body := p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "block")
		return &phpast.Block{List: body, Position: phpast.NewPosition(t.Line)}
	case phptoken.KwIf:
		return p.parseIf()
	case phptoken.KwWhile:
		return p.parseWhile()
	case phptoken.KwDo:
		return p.parseDoWhile()
	case phptoken.KwFor:
		return p.parseFor()
	case phptoken.KwForeach:
		return p.parseForeach()
	case phptoken.KwSwitch:
		return p.parseSwitch()
	case phptoken.KwReturn:
		p.next()
		var x phpast.Expr
		if !p.at(phptoken.Semicolon) && !p.at(phptoken.CloseTag) && !p.at(phptoken.EOF) {
			x = p.parseExpr()
		}
		p.endStmt()
		return &phpast.Return{X: x, Position: phpast.NewPosition(t.Line)}
	case phptoken.KwBreak:
		p.next()
		p.skipOptionalLevel()
		p.endStmt()
		return &phpast.Break{Position: phpast.NewPosition(t.Line)}
	case phptoken.KwContinue:
		p.next()
		p.skipOptionalLevel()
		p.endStmt()
		return &phpast.Continue{Position: phpast.NewPosition(t.Line)}
	case phptoken.KwGlobal:
		return p.parseGlobal()
	case phptoken.KwStatic:
		// Distinguish "static $v = ..." from "static::" and class members.
		if p.peek(1).Kind == phptoken.Variable {
			return p.parseStaticVars()
		}
		return p.parseExprStmt()
	case phptoken.KwUnset:
		return p.parseUnset()
	case phptoken.KwFunction:
		// "function name(" declares; "function (" is a closure expression.
		if p.peek(1).Kind == phptoken.Ident ||
			(p.peek(1).Kind == phptoken.Amp && p.peek(2).Kind == phptoken.Ident) {
			return p.parseFuncDecl()
		}
		return p.parseExprStmt()
	case phptoken.KwAbstract, phptoken.KwFinal:
		if p.peek(1).Kind == phptoken.KwClass {
			return p.parseClassDecl()
		}
		return p.parseExprStmt()
	case phptoken.KwClass, phptoken.KwInterface, phptoken.KwTrait:
		return p.parseClassDecl()
	case phptoken.KwThrow:
		p.next()
		x := p.parseExpr()
		p.endStmt()
		return &phpast.Throw{X: x, Position: phpast.NewPosition(t.Line)}
	case phptoken.KwTry:
		return p.parseTry()
	case phptoken.KwNamespace:
		// namespace Foo\Bar; — record and skip.
		p.next()
		for !p.at(phptoken.Semicolon) && !p.at(phptoken.LBrace) && !p.at(phptoken.EOF) {
			p.next()
		}
		p.accept(phptoken.Semicolon)
		return nil
	case phptoken.KwUse:
		// use Foo\Bar; at top level — skip (aliases not modeled).
		p.next()
		for !p.at(phptoken.Semicolon) && !p.at(phptoken.EOF) {
			p.next()
		}
		p.accept(phptoken.Semicolon)
		return nil
	case phptoken.KwDeclare:
		p.next()
		p.skipParens()
		p.accept(phptoken.Semicolon)
		return nil
	default:
		return p.parseExprStmt()
	}
}

// endStmt consumes a statement terminator: semicolon, or a close tag which
// PHP treats as an implicit semicolon.
func (p *parser) endStmt() {
	if p.accept(phptoken.Semicolon) {
		return
	}
	if p.at(phptoken.CloseTag) || p.at(phptoken.EOF) || p.at(phptoken.RBrace) {
		return
	}
	p.errorf("line %d: expected ';', found %v", p.cur().Line, p.cur().Kind)
}

// skipOptionalLevel consumes the optional integer level of break/continue.
func (p *parser) skipOptionalLevel() {
	p.accept(phptoken.IntLit)
}

// skipParens consumes a balanced parenthesized group starting at "(".
func (p *parser) skipParens() {
	if !p.accept(phptoken.LParen) {
		return
	}
	depth := 1
	for depth > 0 && !p.at(phptoken.EOF) {
		switch p.next().Kind {
		case phptoken.LParen:
			depth++
		case phptoken.RParen:
			depth--
		}
	}
}

// parseExprStmt parses an expression statement.
func (p *parser) parseExprStmt() phpast.Stmt {
	line := p.position()
	x := p.parseExpr()
	p.endStmt()
	return &phpast.ExprStmt{X: x, Position: phpast.NewPosition(line)}
}

// parseIf parses if statements in both brace and alternative (colon)
// syntax.
func (p *parser) parseIf() phpast.Stmt {
	line := p.next().Line // if
	cond := p.parseParenExpr("if condition")
	node := &phpast.If{Cond: cond, Position: phpast.NewPosition(line)}

	if p.accept(phptoken.Colon) {
		// Alternative syntax: if (c): ... elseif: ... else: ... endif;
		stop := stopAtIdents("endif")
		node.Then = p.parseStmtListAlt(stop)
		for p.at(phptoken.KwElseif) ||
			(p.at(phptoken.KwElse) && p.peek(1).Kind == phptoken.KwIf) {
			eiLine := p.next().Line
			if p.cur().Kind == phptoken.KwIf { // "else if" split form
				p.next()
			}
			eiCond := p.parseParenExpr("elseif condition")
			p.expect(phptoken.Colon, "elseif")
			node.Elseifs = append(node.Elseifs, phpast.ElseIf{
				Line: eiLine, Cond: eiCond, Body: p.parseStmtListAlt(stop),
			})
		}
		if p.accept(phptoken.KwElse) {
			p.expect(phptoken.Colon, "else")
			node.Else = p.parseStmtListAlt(stop)
		}
		p.acceptIdent("endif")
		p.accept(phptoken.Semicolon)
		return node
	}

	node.Then = p.parseBody()
	for {
		if p.at(phptoken.KwElseif) {
			eiLine := p.next().Line
			eiCond := p.parseParenExpr("elseif condition")
			node.Elseifs = append(node.Elseifs, phpast.ElseIf{
				Line: eiLine, Cond: eiCond, Body: p.parseBody(),
			})
			continue
		}
		if p.at(phptoken.KwElse) && p.peek(1).Kind == phptoken.KwIf {
			eiLine := p.next().Line
			p.next() // if
			eiCond := p.parseParenExpr("else-if condition")
			node.Elseifs = append(node.Elseifs, phpast.ElseIf{
				Line: eiLine, Cond: eiCond, Body: p.parseBody(),
			})
			continue
		}
		break
	}
	if p.accept(phptoken.KwElse) {
		node.Else = p.parseBody()
	}
	return node
}

// parseStmtListAlt parses an alternative-syntax body: statements until
// elseif/else/case markers or the named end keyword.
func (p *parser) parseStmtListAlt(stopEnd func(phptoken.Token) bool) []phpast.Stmt {
	return p.parseStmtList(func(t phptoken.Token) bool {
		if t.Kind == phptoken.KwElseif || t.Kind == phptoken.KwElse {
			return true
		}
		return stopEnd(t)
	})
}

// acceptIdent consumes an Ident with the given case-insensitive spelling.
func (p *parser) acceptIdent(name string) bool {
	if p.at(phptoken.Ident) && strings.EqualFold(p.cur().Text, name) {
		p.next()
		return true
	}
	return false
}

// parseParenExpr parses "( expr )".
func (p *parser) parseParenExpr(ctx string) phpast.Expr {
	p.expect(phptoken.LParen, ctx)
	x := p.parseExpr()
	p.expect(phptoken.RParen, ctx)
	return x
}

// parseBody parses a statement body: a braced block, or a single
// statement.
func (p *parser) parseBody() []phpast.Stmt {
	if p.accept(phptoken.LBrace) {
		body := p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "block")
		return body
	}
	if s := p.parseStmt(); s != nil {
		return []phpast.Stmt{s}
	}
	return nil
}

// parseWhile parses while loops in both syntaxes.
func (p *parser) parseWhile() phpast.Stmt {
	line := p.next().Line
	cond := p.parseParenExpr("while condition")
	node := &phpast.While{Cond: cond, Position: phpast.NewPosition(line)}
	if p.accept(phptoken.Colon) {
		node.Body = p.parseStmtList(stopAtIdents("endwhile"))
		p.acceptIdent("endwhile")
		p.accept(phptoken.Semicolon)
		return node
	}
	node.Body = p.parseBody()
	return node
}

// parseDoWhile parses do { } while ( );
func (p *parser) parseDoWhile() phpast.Stmt {
	line := p.next().Line
	body := p.parseBody()
	var cond phpast.Expr
	if p.accept(phptoken.KwWhile) {
		cond = p.parseParenExpr("do-while condition")
	} else {
		p.errorf("line %d: expected 'while' after do body", p.cur().Line)
	}
	p.endStmt()
	return &phpast.DoWhile{Body: body, Cond: cond, Position: phpast.NewPosition(line)}
}

// parseFor parses for (init; cond; post) body.
func (p *parser) parseFor() phpast.Stmt {
	line := p.next().Line
	node := &phpast.For{Position: phpast.NewPosition(line)}
	p.expect(phptoken.LParen, "for")
	node.Init = p.parseExprListUntil(stopAt(phptoken.Semicolon))
	p.accept(phptoken.Semicolon)
	node.Cond = p.parseExprListUntil(stopAt(phptoken.Semicolon))
	p.accept(phptoken.Semicolon)
	node.Post = p.parseExprListUntil(stopAt(phptoken.RParen))
	p.expect(phptoken.RParen, "for")
	if p.accept(phptoken.Colon) {
		node.Body = p.parseStmtList(stopAtIdents("endfor"))
		p.acceptIdent("endfor")
		p.accept(phptoken.Semicolon)
		return node
	}
	node.Body = p.parseBody()
	return node
}

// parseForeach parses foreach (expr as [$k =>] [&]$v) body.
func (p *parser) parseForeach() phpast.Stmt {
	line := p.next().Line
	node := &phpast.Foreach{Position: phpast.NewPosition(line)}
	p.expect(phptoken.LParen, "foreach")
	node.Expr = p.parseExpr()
	p.expect(phptoken.KwAs, "foreach")
	first := p.parseForeachTarget(&node.ByRef)
	if p.accept(phptoken.DoubleArrow) {
		node.Key = first
		node.Value = p.parseForeachTarget(&node.ByRef)
	} else {
		node.Value = first
	}
	p.expect(phptoken.RParen, "foreach")
	if p.accept(phptoken.Colon) {
		node.Body = p.parseStmtList(stopAtIdents("endforeach"))
		p.acceptIdent("endforeach")
		p.accept(phptoken.Semicolon)
		return node
	}
	node.Body = p.parseBody()
	return node
}

// parseForeachTarget parses a foreach key/value target, noting by-ref.
func (p *parser) parseForeachTarget(byRef *bool) phpast.Expr {
	if p.accept(phptoken.Amp) {
		*byRef = true
	}
	if p.at(phptoken.KwList) {
		return p.parseListExpr()
	}
	return p.parsePostfix(p.parsePrimary())
}

// parseSwitch parses switch statements in both syntaxes.
func (p *parser) parseSwitch() phpast.Stmt {
	line := p.next().Line
	node := &phpast.Switch{Position: phpast.NewPosition(line)}
	node.Cond = p.parseParenExpr("switch")

	alt := false
	if p.accept(phptoken.Colon) {
		alt = true
	} else {
		p.expect(phptoken.LBrace, "switch body")
	}
	stopBody := func(t phptoken.Token) bool {
		if t.Kind == phptoken.KwCase || t.Kind == phptoken.KwDefault {
			return true
		}
		if alt {
			return t.Kind == phptoken.Ident && strings.EqualFold(t.Text, "endswitch")
		}
		return t.Kind == phptoken.RBrace
	}
	for {
		t := p.cur()
		if t.Kind == phptoken.EOF {
			break
		}
		if alt && p.acceptIdent("endswitch") {
			p.accept(phptoken.Semicolon)
			return node
		}
		if !alt && p.accept(phptoken.RBrace) {
			return node
		}
		switch t.Kind {
		case phptoken.KwCase:
			p.next()
			cond := p.parseExpr()
			if !p.accept(phptoken.Colon) {
				p.accept(phptoken.Semicolon)
			}
			node.Cases = append(node.Cases, phpast.SwitchCase{
				Line: t.Line, Cond: cond, Body: p.parseStmtList(stopBody),
			})
		case phptoken.KwDefault:
			p.next()
			if !p.accept(phptoken.Colon) {
				p.accept(phptoken.Semicolon)
			}
			node.Cases = append(node.Cases, phpast.SwitchCase{
				Line: t.Line, Body: p.parseStmtList(stopBody),
			})
		default:
			p.errorf("line %d: unexpected %v in switch", t.Line, t.Kind)
			p.next()
		}
	}
	return node
}

// parseGlobal parses global $a, $b;
func (p *parser) parseGlobal() phpast.Stmt {
	line := p.next().Line
	node := &phpast.Global{Position: phpast.NewPosition(line)}
	for p.at(phptoken.Variable) {
		node.Names = append(node.Names, strings.TrimPrefix(p.next().Text, "$"))
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.endStmt()
	return node
}

// parseStaticVars parses static $a = 1, $b;
func (p *parser) parseStaticVars() phpast.Stmt {
	line := p.next().Line
	node := &phpast.StaticVars{Position: phpast.NewPosition(line)}
	for p.at(phptoken.Variable) {
		v := phpast.StaticVar{Name: strings.TrimPrefix(p.next().Text, "$")}
		if p.accept(phptoken.Assign) {
			v.Default = p.parseExpr()
		}
		node.Vars = append(node.Vars, v)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.endStmt()
	return node
}

// parseUnset parses unset($a, $b);
func (p *parser) parseUnset() phpast.Stmt {
	line := p.next().Line
	node := &phpast.Unset{Position: phpast.NewPosition(line)}
	p.expect(phptoken.LParen, "unset")
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		node.Vars = append(node.Vars, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen, "unset")
	p.endStmt()
	return node
}

// parseTry parses try/catch/finally.
func (p *parser) parseTry() phpast.Stmt {
	line := p.next().Line
	node := &phpast.Try{Position: phpast.NewPosition(line)}
	p.expect(phptoken.LBrace, "try")
	node.Body = p.parseStmtList(stopAt(phptoken.RBrace))
	p.expect(phptoken.RBrace, "try")
	for p.at(phptoken.KwCatch) {
		cLine := p.next().Line
		p.expect(phptoken.LParen, "catch")
		c := phpast.Catch{Line: cLine}
		if p.at(phptoken.Ident) {
			c.Class = p.next().Text
		}
		if p.at(phptoken.Variable) {
			c.Var = strings.TrimPrefix(p.next().Text, "$")
		}
		p.expect(phptoken.RParen, "catch")
		p.expect(phptoken.LBrace, "catch body")
		c.Body = p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "catch body")
		node.Catches = append(node.Catches, c)
	}
	if p.at(phptoken.KwFinally) {
		p.next()
		p.expect(phptoken.LBrace, "finally")
		node.Finally = p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "finally")
	}
	return node
}

// parseFuncDecl parses a named function declaration.
func (p *parser) parseFuncDecl() phpast.Stmt {
	line := p.next().Line // function
	node := &phpast.FuncDecl{Position: phpast.NewPosition(line)}
	if p.accept(phptoken.Amp) {
		node.ByRefReturn = true
	}
	if p.at(phptoken.Ident) {
		node.OrigName = p.next().Text
		node.Name = p.lower(node.OrigName)
	} else {
		p.errorf("line %d: expected function name", p.cur().Line)
	}
	node.Params = p.parseParams()
	if p.accept(phptoken.LBrace) {
		node.Body = p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "function body")
	} else {
		p.errorf("line %d: expected function body", p.cur().Line)
	}
	return node
}

// parseParams parses a parenthesized parameter list.
func (p *parser) parseParams() []phpast.Param {
	var params []phpast.Param
	if !p.expect(phptoken.LParen, "parameter list") {
		return nil
	}
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		var prm phpast.Param
		// Optional type hint: an identifier or "array" before the variable.
		if p.at(phptoken.Ident) {
			prm.TypeHint = p.next().Text
		} else if p.at(phptoken.KwArray) {
			prm.TypeHint = "array"
			p.next()
		}
		if p.accept(phptoken.Amp) {
			prm.ByRef = true
		}
		if p.at(phptoken.Variable) {
			prm.Name = strings.TrimPrefix(p.next().Text, "$")
		} else {
			p.errorf("line %d: expected parameter, found %v", p.cur().Line, p.cur().Kind)
			p.next()
			continue
		}
		if p.accept(phptoken.Assign) {
			prm.Default = p.parseExpr()
		}
		params = append(params, prm)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen, "parameter list")
	return params
}

// parseClassDecl parses class, interface and trait declarations.
func (p *parser) parseClassDecl() phpast.Stmt {
	node := &phpast.ClassDecl{Position: phpast.NewPosition(p.position())}
	for {
		switch p.cur().Kind {
		case phptoken.KwAbstract:
			node.Abstract = true
			p.next()
			continue
		case phptoken.KwFinal:
			p.next()
			continue
		}
		break
	}
	switch p.cur().Kind {
	case phptoken.KwInterface:
		node.IsInterface = true
		p.next()
	case phptoken.KwClass, phptoken.KwTrait:
		p.next()
	default:
		p.errorf("line %d: expected class keyword", p.cur().Line)
	}
	if p.at(phptoken.Ident) {
		node.OrigName = p.next().Text
		node.Name = p.lower(node.OrigName)
	}
	if p.accept(phptoken.KwExtends) {
		if p.at(phptoken.Ident) {
			node.Extends = p.lower(p.next().Text)
		}
	}
	if p.accept(phptoken.KwImplements) {
		for p.at(phptoken.Ident) {
			node.Implements = append(node.Implements, p.lower(p.next().Text))
			if !p.accept(phptoken.Comma) {
				break
			}
		}
	}
	p.expect(phptoken.LBrace, "class body")
	p.parseClassBody(node)
	p.expect(phptoken.RBrace, "class body")
	return node
}

// parseClassBody parses class members until the closing brace.
func (p *parser) parseClassBody(node *phpast.ClassDecl) {
	for !p.at(phptoken.RBrace) && !p.at(phptoken.EOF) {
		before := p.pos
		p.parseClassMember(node)
		if p.pos == before {
			bad := p.next()
			p.errorf("line %d: unexpected %v in class body", bad.Line, bad.Kind)
		}
	}
}

// parseClassMember parses one property, constant or method declaration.
func (p *parser) parseClassMember(node *phpast.ClassDecl) {
	vis := phpast.Public
	static := false
	abstract := false
	final := false
	for {
		switch p.cur().Kind {
		case phptoken.KwPublic, phptoken.KwVar:
			vis = phpast.Public
			p.next()
			continue
		case phptoken.KwProtected:
			vis = phpast.Protected
			p.next()
			continue
		case phptoken.KwPrivate:
			vis = phpast.Private
			p.next()
			continue
		case phptoken.KwStatic:
			static = true
			p.next()
			continue
		case phptoken.KwAbstract:
			abstract = true
			p.next()
			continue
		case phptoken.KwFinal:
			final = true
			p.next()
			continue
		}
		break
	}

	switch p.cur().Kind {
	case phptoken.KwConst:
		p.next()
		for p.at(phptoken.Ident) {
			c := phpast.ConstDecl{Line: p.cur().Line, Name: p.next().Text}
			if p.accept(phptoken.Assign) {
				c.Value = p.parseExpr()
			}
			node.Consts = append(node.Consts, c)
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.accept(phptoken.Semicolon)

	case phptoken.Variable:
		for p.at(phptoken.Variable) {
			prop := phpast.PropertyDecl{
				Line:       p.cur().Line,
				Name:       strings.TrimPrefix(p.next().Text, "$"),
				Visibility: vis,
				Static:     static,
			}
			if p.accept(phptoken.Assign) {
				prop.Default = p.parseExpr()
			}
			node.Props = append(node.Props, prop)
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.accept(phptoken.Semicolon)

	case phptoken.KwFunction:
		line := p.next().Line
		p.accept(phptoken.Amp)
		m := phpast.MethodDecl{
			Line:       line,
			Visibility: vis,
			Static:     static,
			Abstract:   abstract,
			Final:      final,
		}
		if name, ok := p.memberName(); ok {
			m.OrigName = name
			m.Name = p.lower(name)
		} else {
			p.errorf("line %d: expected method name", p.cur().Line)
		}
		m.Params = p.parseParams()
		if p.accept(phptoken.LBrace) {
			m.Body = p.parseStmtList(stopAt(phptoken.RBrace))
			p.expect(phptoken.RBrace, "method body")
		} else {
			p.accept(phptoken.Semicolon) // abstract or interface method
		}
		node.Methods = append(node.Methods, m)
	}
}

// memberName consumes a method/property name, allowing keywords to be used
// as names as PHP does for class members.
func (p *parser) memberName() (string, bool) {
	t := p.cur()
	if t.Kind == phptoken.Ident || t.IsKeyword() {
		p.next()
		return t.Text, true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// parseExprListUntil parses a comma-separated expression list until the
// stop predicate matches.
func (p *parser) parseExprListUntil(stop func(phptoken.Token) bool) []phpast.Expr {
	var list []phpast.Expr
	for {
		t := p.cur()
		if t.Kind == phptoken.EOF || stop(t) {
			return list
		}
		before := p.pos
		list = append(list, p.parseExpr())
		if p.pos == before {
			p.next() // force progress
		}
		if !p.accept(phptoken.Comma) {
			return list
		}
	}
}

// parseExpr parses a full expression including the low-precedence word
// operators (or, xor, and).
func (p *parser) parseExpr() phpast.Expr {
	if !p.enterNesting() {
		return p.badExprOverDepth()
	}
	x := p.parseWordOr()
	p.leaveNesting()
	return x
}

func (p *parser) parseWordOr() phpast.Expr {
	left := p.parseWordXor()
	for p.at(phptoken.KwLogicalOr) {
		line := p.next().Line
		right := p.parseWordXor()
		left = &phpast.Binary{Op: "or", L: left, R: right, Position: phpast.NewPosition(line)}
	}
	return left
}

func (p *parser) parseWordXor() phpast.Expr {
	left := p.parseWordAnd()
	for p.at(phptoken.KwLogicalXor) {
		line := p.next().Line
		right := p.parseWordAnd()
		left = &phpast.Binary{Op: "xor", L: left, R: right, Position: phpast.NewPosition(line)}
	}
	return left
}

func (p *parser) parseWordAnd() phpast.Expr {
	left := p.parseAssign()
	for p.at(phptoken.KwLogicalAnd) {
		line := p.next().Line
		right := p.parseAssign()
		left = &phpast.Binary{Op: "and", L: left, R: right, Position: phpast.NewPosition(line)}
	}
	return left
}

// assignOps maps assignment token kinds to their operator spellings.
var assignOps = map[phptoken.Kind]string{
	phptoken.Assign:        "=",
	phptoken.PlusAssign:    "+=",
	phptoken.MinusAssign:   "-=",
	phptoken.StarAssign:    "*=",
	phptoken.SlashAssign:   "/=",
	phptoken.DotAssign:     ".=",
	phptoken.PercentAssign: "%=",
	phptoken.AmpAssign:     "&=",
	phptoken.PipeAssign:    "|=",
	phptoken.CaretAssign:   "^=",
	phptoken.ShlAssign:     "<<=",
	phptoken.ShrAssign:     ">>=",
}

// parseAssign parses right-associative assignment expressions.
func (p *parser) parseAssign() phpast.Expr {
	left := p.parseTernary()
	op, ok := assignOps[p.cur().Kind]
	if !ok {
		return left
	}
	line := p.next().Line
	node := &phpast.Assign{LHS: left, Op: op, Position: phpast.NewPosition(line)}
	if op == "=" && p.accept(phptoken.Amp) {
		node.ByRef = true
	}
	node.RHS = p.parseAssign()
	return node
}

// parseTernary parses cond ? then : else and the short ?: form.
func (p *parser) parseTernary() phpast.Expr {
	cond := p.parseBinary(1)
	if !p.at(phptoken.Question) {
		return cond
	}
	line := p.next().Line
	node := &phpast.Ternary{Cond: cond, Position: phpast.NewPosition(line)}
	if !p.at(phptoken.Colon) {
		node.Then = p.parseExpr()
	}
	p.expect(phptoken.Colon, "ternary")
	node.Else = p.parseTernary()
	return node
}

// binaryLevels lists binary operators from loosest to tightest binding.
var binaryLevels = [][]struct {
	kind phptoken.Kind
	op   string
}{
	{{phptoken.BoolOr, "||"}},
	{{phptoken.BoolAnd, "&&"}},
	{{phptoken.Pipe, "|"}},
	{{phptoken.Caret, "^"}},
	{{phptoken.Amp, "&"}},
	{
		{phptoken.IsEqual, "=="}, {phptoken.IsNotEqual, "!="},
		{phptoken.IsIdentical, "==="}, {phptoken.IsNotIdentical, "!=="},
	},
	{
		{phptoken.Lt, "<"}, {phptoken.Le, "<="},
		{phptoken.Gt, ">"}, {phptoken.Ge, ">="},
	},
	{{phptoken.Shl, "<<"}, {phptoken.Shr, ">>"}},
	{{phptoken.Plus, "+"}, {phptoken.Minus, "-"}, {phptoken.Dot, "."}},
	{{phptoken.Star, "*"}, {phptoken.Slash, "/"}, {phptoken.Percent, "%"}},
}

// binaryOp is a binary operator's entry in binaryOps: its spelling and
// its binding level, 1 for the loosest; level 0 marks a kind that is not
// a binary operator.
type binaryOp struct {
	op    string
	level int
}

// binaryOps is binaryLevels indexed by token kind.
var binaryOps = func() []binaryOp {
	table := make([]binaryOp, phptoken.KindCount())
	for i, level := range binaryLevels {
		for _, cand := range level {
			table[cand.kind] = binaryOp{op: cand.op, level: i + 1}
		}
	}
	return table
}()

// parseBinary parses a chain of binary operators that bind at minLevel
// or tighter, by precedence climbing: every level is left-associative,
// so an operator's right operand takes only operators one level tighter
// and the loop folds the rest onto the left.
func (p *parser) parseBinary(minLevel int) phpast.Expr {
	left := p.parseUnary()
	for {
		op := binaryOps[p.kind()]
		if op.level < minLevel { // non-operators have level 0
			return left
		}
		line := p.toks[p.pos].Line
		p.pos++
		right := p.parseBinary(op.level + 1)
		left = &phpast.Binary{Op: op.op, L: left, R: right, Position: phpast.NewPosition(line)}
	}
}

// castNames maps cast token kinds to canonical type names.
var castNames = map[phptoken.Kind]string{
	phptoken.IntCast:    "int",
	phptoken.FloatCast:  "float",
	phptoken.StringCast: "string",
	phptoken.ArrayCast:  "array",
	phptoken.ObjectCast: "object",
	phptoken.BoolCast:   "bool",
	phptoken.UnsetCast:  "unset",
}

// parseUnary parses prefix operators, casts and the expression keywords.
func (p *parser) parseUnary() phpast.Expr {
	if !p.enterNesting() {
		return p.badExprOverDepth()
	}
	x := p.parseUnaryTail()
	p.leaveNesting()
	return x
}

// parseUnaryTail is parseUnary without the depth guard; the prefix
// operators self-recurse through the guarded parseUnary.
func (p *parser) parseUnaryTail() phpast.Expr {
	t := p.cur()
	switch t.Kind {
	case phptoken.Bang:
		p.next()
		return &phpast.Unary{Op: "!", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)}
	case phptoken.Minus:
		p.next()
		return &phpast.Unary{Op: "-", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)}
	case phptoken.Plus:
		p.next()
		return &phpast.Unary{Op: "+", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)}
	case phptoken.Tilde:
		p.next()
		return &phpast.Unary{Op: "~", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)}
	case phptoken.At:
		p.next()
		return &phpast.Unary{Op: "@", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)}
	case phptoken.Inc:
		p.next()
		return &phpast.IncDec{Op: "++", X: p.parseUnary(), Prefix: true, Position: phpast.NewPosition(t.Line)}
	case phptoken.Dec:
		p.next()
		return &phpast.IncDec{Op: "--", X: p.parseUnary(), Prefix: true, Position: phpast.NewPosition(t.Line)}
	case phptoken.KwPrint:
		p.next()
		return &phpast.PrintExpr{X: p.parseExpr(), Position: phpast.NewPosition(t.Line)}
	case phptoken.KwClone:
		p.next()
		return &phpast.CloneExpr{X: p.parseUnary(), Position: phpast.NewPosition(t.Line)}
	case phptoken.KwNew:
		return p.parseNew()
	case phptoken.KwInclude, phptoken.KwIncludeOnce, phptoken.KwRequire, phptoken.KwRequireOnce:
		kindMap := map[phptoken.Kind]phpast.IncludeKind{
			phptoken.KwInclude:     phpast.IncInclude,
			phptoken.KwIncludeOnce: phpast.IncIncludeOnce,
			phptoken.KwRequire:     phpast.IncRequire,
			phptoken.KwRequireOnce: phpast.IncRequireOnce,
		}
		kind := kindMap[t.Kind]
		p.next()
		return &phpast.IncludeExpr{Kind: kind, Path: p.parseExpr(), Position: phpast.NewPosition(t.Line)}
	case phptoken.KwExit:
		p.next()
		node := &phpast.ExitExpr{Position: phpast.NewPosition(t.Line)}
		if p.accept(phptoken.LParen) {
			if !p.at(phptoken.RParen) {
				node.X = p.parseExpr()
			}
			p.expect(phptoken.RParen, "exit")
		}
		return node
	}
	if name, ok := castNames[t.Kind]; ok {
		p.next()
		return &phpast.Cast{Type: name, X: p.parseUnary(), Position: phpast.NewPosition(t.Line)}
	}
	x := p.parsePostfix(p.parsePrimary())
	if p.at(phptoken.KwInstanceof) {
		line := p.next().Line
		cls := ""
		if p.at(phptoken.Ident) {
			cls = p.next().Text
		} else if p.at(phptoken.Variable) {
			p.next()
		}
		return &phpast.InstanceOf{X: x, Class: cls, Position: phpast.NewPosition(line)}
	}
	return x
}

// parseNew parses new ClassName(args) and new $var(args).
func (p *parser) parseNew() phpast.Expr {
	line := p.next().Line // new
	node := &phpast.New{Position: phpast.NewPosition(line)}
	switch {
	case p.at(phptoken.Ident):
		node.Class = p.lower(p.next().Text)
	case p.at(phptoken.KwStatic):
		node.Class = "static"
		p.next()
	case p.at(phptoken.Variable):
		node.ClassExpr = p.parsePostfix(p.parsePrimary())
	default:
		p.errorf("line %d: expected class name after new", p.cur().Line)
	}
	if p.at(phptoken.LParen) {
		node.Args = p.parseArgs()
	}
	return node
}

// parseArgs parses a parenthesized call argument list.
func (p *parser) parseArgs() []phpast.Arg {
	var args []phpast.Arg
	p.expect(phptoken.LParen, "argument list")
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		var a phpast.Arg
		if p.accept(phptoken.Amp) {
			a.ByRef = true
		}
		before := p.pos
		a.Value = p.parseExpr()
		if p.pos == before {
			p.next() // force progress on malformed input
			continue
		}
		args = append(args, a)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen, "argument list")
	return args
}

// parsePostfix parses member access, indexing, calls and postfix inc/dec
// chained onto a primary expression.
func (p *parser) parsePostfix(x phpast.Expr) phpast.Expr {
	for {
		t := p.cur()
		switch t.Kind {
		case phptoken.Arrow:
			p.next()
			x = p.parseMemberAccess(x, t.Line)
		case phptoken.LBracket:
			p.next()
			node := &phpast.IndexFetch{Base: x, Position: phpast.NewPosition(t.Line)}
			if !p.at(phptoken.RBracket) {
				node.Index = p.parseExpr()
			}
			p.expect(phptoken.RBracket, "index")
			x = node
		case phptoken.LBrace:
			// String offset access $s{0} (deprecated form). Only treat "{"
			// as an offset when directly after a variable-like expression.
			if !isVarLike(x) {
				return x
			}
			p.next()
			node := &phpast.IndexFetch{Base: x, Position: phpast.NewPosition(t.Line)}
			if !p.at(phptoken.RBrace) {
				node.Index = p.parseExpr()
			}
			p.expect(phptoken.RBrace, "string offset")
			x = node
		case phptoken.LParen:
			// Dynamic call through a variable-like expression.
			if !isVarLike(x) {
				return x
			}
			x = &phpast.FuncCall{
				NameExpr: x, Args: p.parseArgs(),
				Position: phpast.NewPosition(t.Line),
			}
		case phptoken.Inc:
			p.next()
			x = &phpast.IncDec{Op: "++", X: x, Position: phpast.NewPosition(t.Line)}
		case phptoken.Dec:
			p.next()
			x = &phpast.IncDec{Op: "--", X: x, Position: phpast.NewPosition(t.Line)}
		default:
			return x
		}
	}
}

// isVarLike reports whether x can be called or brace-indexed.
func isVarLike(x phpast.Expr) bool {
	switch x.(type) {
	case *phpast.Var, *phpast.PropertyFetch, *phpast.IndexFetch,
		*phpast.StaticPropertyFetch, *phpast.VarVar:
		return true
	default:
		return false
	}
}

// parseMemberAccess parses ->name, ->$var, ->{expr} and method calls.
func (p *parser) parseMemberAccess(obj phpast.Expr, line int) phpast.Expr {
	var name string
	var nameExpr phpast.Expr
	switch {
	case p.at(phptoken.Ident) || p.cur().IsKeyword():
		name = p.next().Text
	case p.at(phptoken.Variable):
		nameExpr = p.parsePrimary()
	case p.accept(phptoken.LBrace):
		nameExpr = p.parseExpr()
		p.expect(phptoken.RBrace, "dynamic member name")
	default:
		p.errorf("line %d: expected member name after ->", p.cur().Line)
		return &phpast.BadExpr{Reason: "missing member name", Position: phpast.NewPosition(line)}
	}
	if p.at(phptoken.LParen) {
		return &phpast.MethodCall{
			Object: obj, Name: p.lower(name), NameExpr: nameExpr,
			Args: p.parseArgs(), Position: phpast.NewPosition(line),
		}
	}
	return &phpast.PropertyFetch{
		Object: obj, Name: name, NameExpr: nameExpr,
		Position: phpast.NewPosition(line),
	}
}

// parsePrimary parses atoms: literals, variables, identifiers and the
// bracketed constructs.
func (p *parser) parsePrimary() phpast.Expr {
	t := p.cur()
	switch t.Kind {
	case phptoken.Variable:
		p.next()
		return &phpast.Var{Name: strings.TrimPrefix(t.Text, "$"), Position: phpast.NewPosition(t.Line)}

	case phptoken.Dollar:
		p.next()
		if p.accept(phptoken.LBrace) {
			inner := p.parseExpr()
			p.expect(phptoken.RBrace, "variable variable")
			return &phpast.VarVar{Expr: inner, Position: phpast.NewPosition(t.Line)}
		}
		return &phpast.VarVar{Expr: p.parsePrimary(), Position: phpast.NewPosition(t.Line)}

	case phptoken.IntLit:
		p.next()
		return p.lit(t.Line, phpast.LitInt, t.Text)
	case phptoken.FloatLit:
		p.next()
		return p.lit(t.Line, phpast.LitFloat, t.Text)
	case phptoken.StringLit:
		p.next()
		return p.lit(t.Line, phpast.LitString, decodeStringLit(t.Text))

	case phptoken.Quote:
		p.next()
		return p.parseInterp(t.Line, phptoken.Quote, false)
	case phptoken.Backtick:
		p.next()
		return p.parseInterp(t.Line, phptoken.Backtick, true)
	case phptoken.StartHeredoc:
		p.next()
		return p.parseInterp(t.Line, phptoken.EndHeredoc, false)

	case phptoken.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(phptoken.RParen, "parenthesized expression")
		return x

	case phptoken.KwArray:
		p.next()
		if p.at(phptoken.LParen) {
			return p.parseArrayLit(t.Line, phptoken.LParen, phptoken.RParen)
		}
		return &phpast.ConstFetch{Name: "array", Position: phpast.NewPosition(t.Line)}
	case phptoken.LBracket:
		return p.parseArrayLit(t.Line, phptoken.LBracket, phptoken.RBracket)

	case phptoken.KwList:
		return p.parseListExpr()

	case phptoken.KwIsset:
		p.next()
		node := &phpast.IssetExpr{Position: phpast.NewPosition(t.Line)}
		p.expect(phptoken.LParen, "isset")
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			node.Vars = append(node.Vars, p.parseExpr())
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen, "isset")
		return node

	case phptoken.KwEmpty:
		p.next()
		p.expect(phptoken.LParen, "empty")
		x := p.parseExpr()
		p.expect(phptoken.RParen, "empty")
		return &phpast.EmptyExpr{X: x, Position: phpast.NewPosition(t.Line)}

	case phptoken.KwFunction:
		return p.parseClosure()

	case phptoken.KwStatic:
		// static::method() late static binding.
		if p.peek(1).Kind == phptoken.DoubleColon {
			p.next()
			return p.parseStaticMember("static", t.Line)
		}
		p.next()
		if p.at(phptoken.KwFunction) {
			return p.parseClosure()
		}
		return &phpast.BadExpr{Reason: "unexpected static", Position: phpast.NewPosition(t.Line)}

	case phptoken.Ident:
		p.next()
		if p.at(phptoken.DoubleColon) {
			return p.parseStaticMember(t.Text, t.Line)
		}
		if p.at(phptoken.LParen) {
			return &phpast.FuncCall{
				Name: p.lower(t.Text), Args: p.parseArgs(),
				Position: phpast.NewPosition(t.Line),
			}
		}
		return &phpast.ConstFetch{Name: t.Text, Position: phpast.NewPosition(t.Line)}

	case phptoken.Amp:
		// Stray by-ref marker in expression context: parse the operand.
		p.next()
		return p.parseUnary()

	default:
		p.errorf("line %d: unexpected token %v in expression", t.Line, t.Kind)
		return &phpast.BadExpr{
			Reason:   "unexpected " + t.Kind.String(),
			Position: phpast.NewPosition(t.Line),
		}
	}
}

// parseStaticMember parses the continuation after "Class::".
func (p *parser) parseStaticMember(class string, line int) phpast.Expr {
	p.expect(phptoken.DoubleColon, "static member")
	class = p.lower(class)
	switch {
	case p.at(phptoken.Variable):
		name := strings.TrimPrefix(p.next().Text, "$")
		return &phpast.StaticPropertyFetch{
			Class: class, Name: name, Position: phpast.NewPosition(line),
		}
	case p.at(phptoken.Ident) || p.cur().IsKeyword():
		name := p.next().Text
		if p.at(phptoken.LParen) {
			return &phpast.StaticCall{
				Class: class, Name: p.lower(name), Args: p.parseArgs(),
				Position: phpast.NewPosition(line),
			}
		}
		return &phpast.ClassConstFetch{
			Class: class, Name: name, Position: phpast.NewPosition(line),
		}
	default:
		p.errorf("line %d: expected member after ::", p.cur().Line)
		return &phpast.BadExpr{Reason: "bad static member", Position: phpast.NewPosition(line)}
	}
}

// parseClosure parses function (params) use (vars) { body }.
func (p *parser) parseClosure() phpast.Expr {
	line := p.next().Line // function
	p.accept(phptoken.Amp)
	node := &phpast.Closure{Position: phpast.NewPosition(line)}
	node.Params = p.parseParams()
	if p.accept(phptoken.KwUse) {
		p.expect(phptoken.LParen, "closure use")
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			var u phpast.ClosureUse
			if p.accept(phptoken.Amp) {
				u.ByRef = true
			}
			if p.at(phptoken.Variable) {
				u.Name = strings.TrimPrefix(p.next().Text, "$")
				node.Uses = append(node.Uses, u)
			} else {
				p.next()
			}
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen, "closure use")
	}
	if p.accept(phptoken.LBrace) {
		node.Body = p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "closure body")
	}
	return node
}

// parseListExpr parses list($a, , $b).
func (p *parser) parseListExpr() phpast.Expr {
	line := p.next().Line // list
	node := &phpast.ListExpr{Position: phpast.NewPosition(line)}
	p.expect(phptoken.LParen, "list")
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		if p.at(phptoken.Comma) {
			node.Targets = append(node.Targets, nil)
			p.next()
			continue
		}
		node.Targets = append(node.Targets, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen, "list")
	return node
}

// parseArrayLit parses array(...) or [...] literals.
func (p *parser) parseArrayLit(line int, open, close phptoken.Kind) phpast.Expr {
	node := &phpast.ArrayLit{Position: phpast.NewPosition(line)}
	p.expect(open, "array literal")
	for !p.at(close) && !p.at(phptoken.EOF) {
		var item phpast.ArrayItem
		before := p.pos
		first := p.parseExpr()
		if p.accept(phptoken.DoubleArrow) {
			item.Key = first
			if p.accept(phptoken.Amp) {
				item.ByRef = true
			}
			item.Value = p.parseExpr()
		} else {
			item.Value = first
		}
		if p.pos == before {
			p.next()
			continue
		}
		node.Items = append(node.Items, item)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(close, "array literal")
	return node
}

// parseInterp parses an interpolated string body up to the closing
// delimiter token kind.
func (p *parser) parseInterp(line int, closing phptoken.Kind, shell bool) phpast.Expr {
	node := &phpast.InterpString{IsShell: shell, Position: phpast.NewPosition(line)}
	for {
		t := p.cur()
		if t.Kind == phptoken.EOF {
			return node
		}
		if t.Kind == closing {
			p.next()
			return node
		}
		switch t.Kind {
		case phptoken.EncapsedText:
			p.next()
			node.Parts = append(node.Parts, p.lit(t.Line, phpast.LitString, decodeDouble(t.Text)))
		case phptoken.Variable:
			p.next()
			part := phpast.Expr(&phpast.Var{
				Name:     strings.TrimPrefix(t.Text, "$"),
				Position: phpast.NewPosition(t.Line),
			})
			part = p.parseInterpAccess(part)
			node.Parts = append(node.Parts, part)
		case phptoken.CurlyOpen:
			p.next()
			node.Parts = append(node.Parts, p.parseExpr())
			p.expect(phptoken.RBrace, "string interpolation")
		case phptoken.DollarCurlyOpen:
			p.next()
			if p.at(phptoken.Ident) {
				name := p.next().Text
				node.Parts = append(node.Parts, &phpast.Var{
					Name: name, Position: phpast.NewPosition(t.Line),
				})
			} else {
				node.Parts = append(node.Parts, &phpast.VarVar{
					Expr: p.parseExpr(), Position: phpast.NewPosition(t.Line),
				})
			}
			p.expect(phptoken.RBrace, "string interpolation")
		default:
			// Unexpected token inside a string: consume to stay live.
			p.next()
		}
	}
}

// parseInterpAccess parses the simple-syntax continuations of an
// interpolated variable: ->prop and [index].
func (p *parser) parseInterpAccess(base phpast.Expr) phpast.Expr {
	for {
		t := p.cur()
		switch t.Kind {
		case phptoken.Arrow:
			if p.peek(1).Kind != phptoken.Ident {
				return base
			}
			p.next()
			name := p.next().Text
			base = &phpast.PropertyFetch{
				Object: base, Name: name, Position: phpast.NewPosition(t.Line),
			}
		case phptoken.LBracket:
			p.next()
			var idx phpast.Expr
			switch p.cur().Kind {
			case phptoken.Ident:
				// Bare word index inside a string is a string key.
				it := p.next()
				idx = p.lit(it.Line, phpast.LitString, it.Text)
			case phptoken.IntLit:
				it := p.next()
				idx = p.lit(it.Line, phpast.LitInt, it.Text)
			case phptoken.Variable:
				it := p.next()
				idx = &phpast.Var{
					Name:     strings.TrimPrefix(it.Text, "$"),
					Position: phpast.NewPosition(it.Line),
				}
			}
			p.expect(phptoken.RBracket, "string array index")
			base = &phpast.IndexFetch{
				Base: base, Index: idx, Position: phpast.NewPosition(t.Line),
			}
		default:
			return base
		}
	}
}

// lit builds a literal node.
func (p *parser) lit(line int, kind phpast.LiteralKind, value string) *phpast.Literal {
	return &phpast.Literal{Kind: kind, Value: value, Position: phpast.NewPosition(line)}
}
