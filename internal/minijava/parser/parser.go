// Package parser implements a recursive-descent parser for the mini-Java
// dialect. It produces the AST consumed by the suggestion engine, the
// refactorer, the instrumenter, the metrics analyzer and the interpreter.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/lexer"
	"jepo/internal/minijava/token"
)

// Error is a syntax error with its position.
type Error struct {
	Path string
	Pos  token.Pos
	Msg  string
}

func (e *Error) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("%s:%s: %s", e.Path, e.Pos, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

// Parse parses one compilation unit. path is recorded on the File for
// diagnostics and suggestions. Every error is a positioned *Error carrying
// path. A lexical error anywhere in src wins over a syntax error, even an
// earlier one: the first lexical error is reported if there is one.
func Parse(path, src string) (*ast.File, error) {
	p := &parser{path: path, lx: lexer.New(src), win: make([]token.Token, 0, window)}
	p.fill(0)
	f, err := p.parseFile()
	if err != nil && p.lexErr == nil {
		p.lexRest()
	}
	if p.lexErr != nil {
		if le, ok := p.lexErr.(*lexer.Error); ok {
			return nil, &Error{Path: path, Pos: le.Pos, Msg: le.Msg}
		}
		return nil, p.lexErr
	}
	return f, err
}

// window is the lookahead window's capacity. The grammar looks at most two
// tokens past the current one, except across a run of `[]` pairs, for which
// the window grows.
const window = 8

type parser struct {
	path string
	lx   *lexer.Lexer

	// win holds the tokens lexed but not yet consumed: win[lo] is the
	// current token, and there always is one. Tokens are lexed a window at
	// a time when the parser reaches past the last one, after the unread
	// ones slide down to the front.
	win []token.Token
	lo  int
	// lexErr is the first lexical error. The window reads EOF from there
	// on, and Parse reports lexErr instead of whatever the parser made of
	// the truncated input.
	lexErr error

	// nest counts the levels above the node being parsed, from the method
	// body or field initializer it belongs to. It can fall short of the
	// node's final depth (an operator chain or a postfix chain pushes what
	// was parsed before it one level down), never exceed it.
	nest int
	// h is the height of the node built last: 1 for a leaf, 1 + its tallest
	// child otherwise.
	h int
}

// MaxDepth bounds the ASTs the parser builds: no path from a method body or
// a field initializer down to a leaf is longer than MaxDepth nodes, a
// parenthesized expression and a unary plus counting as a node each. Every
// walker over the tree — the parser itself, the passes, the printer, the
// cloner, the resolver, the compiler and the tree-walking interpreter —
// recurses once or a few times per level, so the bound caps the Go stack
// any of them can use (see DESIGN.md). Real sources stay far below it: the
// deepest method in the generated corpora and the examples is 16 levels
// deep.
const MaxDepth = 128

// tooDeep is the error for a tree past MaxDepth, at the node where the
// parser found it. It is kept out of line so the checks that call it stay
// cheap enough to inline.
//
//go:noinline
func (p *parser) tooDeep(pos token.Pos) error {
	return &Error{Path: p.path, Pos: pos, Msg: fmt.Sprintf("nesting deeper than %d levels", MaxDepth)}
}

//go:noinline
func (p *parser) tooDeepAt(n ast.Node) error { return p.tooDeep(n.NodePos()) }

// expr and stmt record the height h of the node just built and reject it
// if it reaches past MaxDepth below the levels above it. nest is exact at
// the root, so the check at a method body or field initializer is exact;
// the checks below it stop an over-deep tree early.
func (p *parser) expr(x ast.Expr, h int) (ast.Expr, error) {
	p.h = h
	if p.nest+h > MaxDepth {
		return nil, p.tooDeepAt(x)
	}
	return x, nil
}

func (p *parser) stmt(s ast.Stmt, h int) (ast.Stmt, error) {
	p.h = h
	if p.nest+h > MaxDepth {
		return nil, p.tooDeepAt(s)
	}
	return s, nil
}

// down enters the level of a child about to be parsed. It bounds the
// parser's own recursion: every recursive path through the grammar passes
// through it.
func (p *parser) down() error {
	p.nest++
	if p.nest >= MaxDepth {
		return p.tooDeep(p.cur().Pos)
	}
	return nil
}

// subExpr, subUnary, subInit, subStmt and subBlock parse a child one level
// down and return it with its height.
func (p *parser) subExpr() (ast.Expr, int, error) {
	if err := p.down(); err != nil {
		return nil, 0, err
	}
	x, err := p.parseExpr()
	p.nest--
	return x, p.h, err
}

func (p *parser) subUnary() (ast.Expr, int, error) {
	if err := p.down(); err != nil {
		return nil, 0, err
	}
	x, err := p.parseUnary()
	p.nest--
	return x, p.h, err
}

func (p *parser) subInit() (ast.Expr, int, error) {
	if err := p.down(); err != nil {
		return nil, 0, err
	}
	x, err := p.parseInitializer()
	p.nest--
	return x, p.h, err
}

func (p *parser) subStmt() (ast.Stmt, int, error) {
	if err := p.down(); err != nil {
		return nil, 0, err
	}
	s, err := p.parseStmt()
	p.nest--
	return s, p.h, err
}

func (p *parser) subBlock() (*ast.Block, int, error) {
	if err := p.down(); err != nil {
		return nil, 0, err
	}
	b, err := p.parseBlock()
	p.nest--
	return b, p.h, err
}

func (p *parser) cur() token.Token { return p.win[p.lo] }

// peek returns the token n places past the current one, lexing up to it.
// Past the end of the input every token is EOF.
func (p *parser) peek(n int) token.Token {
	if p.lo+n >= len(p.win) {
		p.fill(n)
	}
	return p.win[p.lo+n]
}

// next consumes the current token and returns it. Consuming EOF is
// harmless: the lexer returns the same EOF token again, as fill does after
// a lexical error.
func (p *parser) next() token.Token {
	t := p.win[p.lo]
	p.lo++
	if p.lo == len(p.win) {
		p.fill(0)
	}
	return t
}

// fill lexes until the window holds the token n places past the current
// one, first sliding the unread tokens to the front if they would not fit.
// It lexes on until the window is full, so next calls it once per window.
// From the first lexical error on, every token is EOF.
func (p *parser) fill(n int) {
	if p.lo > 0 && p.lo+n >= cap(p.win) {
		p.win = p.win[:copy(p.win, p.win[p.lo:])]
		p.lo = 0
	}
	for len(p.win) <= p.lo+n || len(p.win) < cap(p.win) {
		t := token.Token{Kind: token.EOF}
		if p.lexErr == nil {
			var err error
			if t, err = p.lx.Next(); err != nil {
				t, p.lexErr = token.Token{Kind: token.EOF}, err
			}
		}
		p.win = append(p.win, t)
	}
}

// lexRest lexes the input past the window to its end, to find a lexical
// error that would win over the parser's. It allocates nothing unless it
// finds one.
func (p *parser) lexRest() {
	for {
		t, err := p.lx.Next()
		if err != nil {
			p.lexErr = err
			return
		}
		if t.Kind == token.EOF {
			return
		}
	}
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if !p.at(k) {
		return token.Token{}, p.errf("expected %v, found %v %q", k, p.cur().Kind, p.cur().Text)
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Path: p.path, Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// --- declarations ---

func (p *parser) parseFile() (*ast.File, error) {
	f := &ast.File{Path: p.path}
	if p.accept(token.KwPackage) {
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		f.Package = name
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
	}
	for p.accept(token.KwImport) {
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		f.Imports = append(f.Imports, name)
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
	}
	for !p.at(token.EOF) {
		c, err := p.parseClass()
		if err != nil {
			return nil, err
		}
		f.Classes = append(f.Classes, c)
	}
	return f, nil
}

func (p *parser) qualifiedName() (string, error) {
	t, err := p.expect(token.IDENT)
	if err != nil {
		return "", err
	}
	name := t.Text
	for p.accept(token.Dot) {
		if p.accept(token.Star) {
			name += ".*"
			break
		}
		t, err := p.expect(token.IDENT)
		if err != nil {
			return "", err
		}
		name += "." + t.Text
	}
	return name, nil
}

func (p *parser) parseModifiers() ast.Modifiers {
	var m ast.Modifiers
	for {
		switch p.cur().Kind {
		case token.KwPublic:
			m |= ast.ModPublic
		case token.KwPrivate:
			m |= ast.ModPrivate
		case token.KwProtected:
			m |= ast.ModProtected
		case token.KwStatic:
			m |= ast.ModStatic
		case token.KwFinal:
			m |= ast.ModFinal
		default:
			return m
		}
		p.next()
	}
}

func (p *parser) parseClass() (*ast.Class, error) {
	mods := p.parseModifiers()
	kw, err := p.expect(token.KwClass)
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	c := &ast.Class{Pos: kw.Pos, Mods: mods, Name: nameTok.Text}
	if p.accept(token.KwExtends) {
		ext, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		c.Extends = ext.Text
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	for !p.at(token.RBrace) {
		if p.at(token.EOF) {
			return nil, p.errf("unexpected EOF in class %s", c.Name)
		}
		if err := p.parseMember(c); err != nil {
			return nil, err
		}
	}
	p.next() // }
	return c, nil
}

func (p *parser) parseMember(c *ast.Class) error {
	mods := p.parseModifiers()
	pos := p.cur().Pos

	// Constructor: ClassName '('
	if p.at(token.IDENT) && p.cur().Text == c.Name && p.peek(1).Kind == token.LParen {
		p.next()
		m := &ast.Method{Pos: pos, Mods: mods, Name: c.Name, IsCtor: true,
			Ret: ast.Type{Kind: ast.Void}}
		if err := p.parseMethodRest(m); err != nil {
			return err
		}
		c.Methods = append(c.Methods, m)
		return nil
	}

	typ, err := p.parseType()
	if err != nil {
		return err
	}
	nameTok, err := p.expect(token.IDENT)
	if err != nil {
		return err
	}
	if p.at(token.LParen) {
		m := &ast.Method{Pos: pos, Mods: mods, Ret: typ, Name: nameTok.Text}
		if err := p.parseMethodRest(m); err != nil {
			return err
		}
		c.Methods = append(c.Methods, m)
		return nil
	}
	// Field declaration, possibly with multiple declarators.
	for {
		fld := &ast.Field{Pos: pos, Mods: mods, Type: typ, Name: nameTok.Text}
		if p.accept(token.Assign) {
			init, err := p.parseInitializer()
			if err != nil {
				return err
			}
			fld.Init = init
		}
		c.Fields = append(c.Fields, fld)
		if !p.accept(token.Comma) {
			break
		}
		nameTok, err = p.expect(token.IDENT)
		if err != nil {
			return err
		}
	}
	_, err = p.expect(token.Semi)
	return err
}

func (p *parser) parseMethodRest(m *ast.Method) error {
	if _, err := p.expect(token.LParen); err != nil {
		return err
	}
	for !p.at(token.RParen) {
		typ, err := p.parseType()
		if err != nil {
			return err
		}
		nameTok, err := p.expect(token.IDENT)
		if err != nil {
			return err
		}
		m.Params = append(m.Params, ast.Param{Type: typ, Name: nameTok.Text})
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return err
	}
	if p.accept(token.KwThrows) {
		for {
			t, err := p.expect(token.IDENT)
			if err != nil {
				return err
			}
			m.Throws = append(m.Throws, t.Text)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	m.Body = body
	return nil
}

func (p *parser) parseType() (ast.Type, error) {
	t := p.cur()
	var typ ast.Type
	switch t.Kind {
	case token.KwVoid:
		typ = ast.Type{Kind: ast.Void}
	case token.KwInt:
		typ = ast.Type{Kind: ast.Int}
	case token.KwLong:
		typ = ast.Type{Kind: ast.Long}
	case token.KwShort:
		typ = ast.Type{Kind: ast.Short}
	case token.KwByte:
		typ = ast.Type{Kind: ast.Byte}
	case token.KwChar:
		typ = ast.Type{Kind: ast.Char}
	case token.KwFloat:
		typ = ast.Type{Kind: ast.Float}
	case token.KwDouble:
		typ = ast.Type{Kind: ast.Double}
	case token.KwBoolean:
		typ = ast.Type{Kind: ast.Boolean}
	case token.IDENT:
		typ = ast.Type{Kind: ast.ClassType, Name: t.Text}
	default:
		return ast.Type{}, p.errf("expected type, found %q", t.Text)
	}
	p.next()
	for p.at(token.LBracket) && p.peek(1).Kind == token.RBracket {
		p.next()
		p.next()
		typ.Dims++
	}
	return typ, nil
}

// --- statements ---

func (p *parser) parseBlock() (*ast.Block, error) {
	lb, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	blk := &ast.Block{Pos: lb.Pos}
	h := 0
	for !p.at(token.RBrace) {
		if p.at(token.EOF) {
			return nil, p.errf("unexpected EOF in block")
		}
		s, hs, err := p.subStmt()
		if err != nil {
			return nil, err
		}
		h = max(h, hs)
		blk.Stmts = append(blk.Stmts, s)
	}
	p.next()
	if _, err := p.stmt(blk, 1+h); err != nil {
		return nil, err
	}
	return blk, nil
}

// startsLocalVar reports whether the upcoming tokens begin a local variable
// declaration rather than an expression.
func (p *parser) startsLocalVar() bool {
	t := p.cur()
	if t.Kind == token.KwFinal {
		return true
	}
	if t.IsType() && t.Kind != token.KwVoid {
		return true
	}
	if t.Kind != token.IDENT {
		return false
	}
	// IDENT IDENT → decl; IDENT[][]... IDENT → decl.
	k := 1
	for p.peek(k).Kind == token.LBracket && p.peek(k+1).Kind == token.RBracket {
		k += 2
	}
	return p.peek(k).Kind == token.IDENT
}

func (p *parser) parseStmt() (ast.Stmt, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.Semi:
		p.next()
		return p.stmt(&ast.Empty{Pos: pos}, 1)
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		p.next()
		if p.accept(token.Semi) {
			return p.stmt(&ast.Return{Pos: pos}, 1)
		}
		x, h, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return p.stmt(&ast.Return{Pos: pos, X: x}, 1+h)
	case token.KwBreak:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return p.stmt(&ast.Break{Pos: pos}, 1)
	case token.KwContinue:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return p.stmt(&ast.Continue{Pos: pos}, 1)
	case token.KwThrow:
		p.next()
		x, h, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return p.stmt(&ast.Throw{Pos: pos, X: x}, 1+h)
	case token.KwTry:
		return p.parseTry()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwSwitch:
		return p.parseSwitch()
	}
	if p.startsLocalVar() {
		s, err := p.parseLocalVar()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return s, nil
	}
	x, h, err := p.subExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return p.stmt(&ast.ExprStmt{Pos: pos, X: x}, 1+h)
}

// parseLocalVar parses one declarator without the trailing semicolon. Multi-
// declarator statements are desugared by the caller only in blocks; inside a
// for-init a single declarator is required by the dialect.
func (p *parser) parseLocalVar() (ast.Stmt, error) {
	pos := p.cur().Pos
	final := p.accept(token.KwFinal)
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	lv := &ast.LocalVar{Pos: pos, Final: final, Type: typ, Name: nameTok.Text}
	h := 1
	if p.accept(token.Assign) {
		init, hi, err := p.subInit()
		if err != nil {
			return nil, err
		}
		lv.Init, h = init, 1+hi
	}
	if p.at(token.Comma) {
		// Desugar `int a = 1, b = 2;` into a block-less sequence by wrapping
		// in a Block that the interpreter executes transparently.
		seq := &ast.Block{Pos: pos, Stmts: []ast.Stmt{lv}}
		for p.accept(token.Comma) {
			nt, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			next := &ast.LocalVar{Pos: nt.Pos, Final: final, Type: typ, Name: nt.Text}
			if p.accept(token.Assign) {
				init, hi, err := p.subInit()
				if err != nil {
					return nil, err
				}
				next.Init, h = init, max(h, 1+hi)
			}
			seq.Stmts = append(seq.Stmts, next)
		}
		return p.stmt(seq, 1+h)
	}
	return p.stmt(lv, h)
}

// parseInitializer parses either an expression or an array literal.
func (p *parser) parseInitializer() (ast.Expr, error) {
	if p.at(token.LBrace) {
		pos := p.next().Pos
		lit := &ast.ArrayLit{Pos: pos}
		h := 0
		for !p.at(token.RBrace) {
			e, he, err := p.subInit()
			if err != nil {
				return nil, err
			}
			h = max(h, he)
			lit.Elems = append(lit.Elems, e)
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.RBrace); err != nil {
			return nil, err
		}
		return p.expr(lit, 1+h)
	}
	return p.parseExpr()
}

func (p *parser) parseIf() (ast.Stmt, error) {
	pos := p.next().Pos // if
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, hc, err := p.subExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	then, ht, err := p.subStmt()
	if err != nil {
		return nil, err
	}
	node := &ast.If{Pos: pos, Cond: cond, Then: then}
	h := max(hc, ht)
	if p.accept(token.KwElse) {
		els, he, err := p.subStmt()
		if err != nil {
			return nil, err
		}
		node.Else, h = els, max(h, he)
	}
	return p.stmt(node, 1+h)
}

func (p *parser) parseWhile() (ast.Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, hc, err := p.subExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, hb, err := p.subStmt()
	if err != nil {
		return nil, err
	}
	return p.stmt(&ast.While{Pos: pos, Cond: cond, Body: body}, 1+max(hc, hb))
}

func (p *parser) parseFor() (ast.Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	node := &ast.For{Pos: pos}
	h := 0
	if !p.at(token.Semi) {
		if err := p.down(); err != nil {
			return nil, err
		}
		if p.startsLocalVar() {
			s, err := p.parseLocalVar()
			if err != nil {
				return nil, err
			}
			node.Init, h = s, p.h
		} else {
			x, hx, err := p.subExpr()
			if err != nil {
				return nil, err
			}
			node.Init, h = &ast.ExprStmt{Pos: x.NodePos(), X: x}, 1+hx
		}
		p.nest--
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	if !p.at(token.Semi) {
		cond, hc, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		node.Cond, h = cond, max(h, hc)
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	for !p.at(token.RParen) {
		x, hx, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		node.Post, h = append(node.Post, x), max(h, hx)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, hb, err := p.subStmt()
	if err != nil {
		return nil, err
	}
	node.Body = body
	return p.stmt(node, 1+max(h, hb))
}

func (p *parser) parseTry() (ast.Stmt, error) {
	pos := p.next().Pos
	blk, h, err := p.subBlock()
	if err != nil {
		return nil, err
	}
	node := &ast.Try{Pos: pos, Block: blk}
	for p.at(token.KwCatch) {
		cpos := p.next().Pos
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		typTok, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		nameTok, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		cblk, hc, err := p.subBlock()
		if err != nil {
			return nil, err
		}
		h = max(h, hc)
		node.Catches = append(node.Catches, ast.Catch{
			Pos: cpos, Type: typTok.Text, Name: nameTok.Text, Block: cblk,
		})
	}
	if p.accept(token.KwFinally) {
		fblk, hf, err := p.subBlock()
		if err != nil {
			return nil, err
		}
		node.Finally, h = fblk, max(h, hf)
	}
	if len(node.Catches) == 0 && node.Finally == nil {
		return nil, p.errf("try without catch or finally")
	}
	return p.stmt(node, 1+h)
}

func (p *parser) parseDoWhile() (ast.Stmt, error) {
	pos := p.next().Pos // do
	body, hb, err := p.subStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, hc, err := p.subExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return p.stmt(&ast.DoWhile{Pos: pos, Body: body, Cond: cond}, 1+max(hb, hc))
}

func (p *parser) parseSwitch() (ast.Stmt, error) {
	pos := p.next().Pos // switch
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	tag, h, err := p.subExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	node := &ast.Switch{Pos: pos, Tag: tag}
	sawDefault := false
	for !p.at(token.RBrace) {
		if p.at(token.EOF) {
			return nil, p.errf("unexpected EOF in switch")
		}
		var arm ast.SwitchCase
		switch p.cur().Kind {
		case token.KwCase:
			cpos := p.next().Pos
			v, hv, err := p.subExpr()
			if err != nil {
				return nil, err
			}
			arm, h = ast.SwitchCase{Pos: cpos, Values: []ast.Expr{v}}, max(h, hv)
		case token.KwDefault:
			if sawDefault {
				return nil, p.errf("duplicate default label")
			}
			sawDefault = true
			arm = ast.SwitchCase{Pos: p.next().Pos}
		default:
			return nil, p.errf("expected case or default in switch, found %q", p.cur().Text)
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		for !p.at(token.KwCase) && !p.at(token.KwDefault) && !p.at(token.RBrace) {
			if p.at(token.EOF) {
				return nil, p.errf("unexpected EOF in switch arm")
			}
			st, hs, err := p.subStmt()
			if err != nil {
				return nil, err
			}
			arm.Stmts, h = append(arm.Stmts, st), max(h, hs)
		}
		node.Cases = append(node.Cases, arm)
	}
	p.next() // }
	return p.stmt(node, 1+h)
}

// --- expressions ---

func (p *parser) parseExpr() (ast.Expr, error) { return p.parseAssign() }

func isAssignOp(k token.Kind) bool {
	switch k {
	case token.Assign, token.PlusEq, token.MinusEq, token.StarEq,
		token.SlashEq, token.PercentEq, token.AndEq, token.OrEq, token.XorEq:
		return true
	}
	return false
}

func (p *parser) parseAssign() (ast.Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if isAssignOp(p.cur().Kind) {
		hl := p.h
		op := p.next()
		rhs, hr, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		if !isLValue(lhs) {
			return nil, &Error{Path: p.path, Pos: op.Pos, Msg: "assignment target is not a variable, field or array element"}
		}
		return p.expr(&ast.Assign{Pos: op.Pos, Op: op.Kind, LHS: lhs, RHS: rhs}, 1+max(hl, hr))
	}
	return lhs, nil
}

func isLValue(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.Select, *ast.Index:
		return true
	}
	return false
}

func (p *parser) parseTernary() (ast.Expr, error) {
	cond, err := p.parseBinary(3)
	if err != nil {
		return nil, err
	}
	if p.at(token.Question) {
		hc := p.h
		qpos := p.next().Pos
		then, ht, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		els, he, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		return p.expr(&ast.Ternary{Pos: qpos, Cond: cond, Then: then, Else: els}, 1+max(hc, ht, he))
	}
	return cond, nil
}

func binPrec(k token.Kind) int {
	switch k {
	case token.OrOr:
		return 3
	case token.AndAnd:
		return 4
	case token.BitOr:
		return 5
	case token.BitXor:
		return 6
	case token.BitAnd:
		return 7
	case token.Eq, token.Ne:
		return 8
	case token.Lt, token.Le, token.Gt, token.Ge, token.KwInstanceof:
		return 9
	case token.Shl, token.Shr:
		return 10
	case token.Plus, token.Minus:
		return 11
	case token.Star, token.Slash, token.Percent:
		return 12
	}
	return 0
}

// parseBinary builds a chain of same-precedence operators as a left-deep
// spine in a loop, so the spine's height is counted here: each operator
// pushes everything parsed so far one level down.
func (p *parser) parseBinary(min int) (ast.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	h := p.h
	for {
		pr := binPrec(p.cur().Kind)
		if pr == 0 || pr < min {
			return lhs, nil
		}
		op := p.next()
		if op.Kind == token.KwInstanceof {
			t, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			if lhs, err = p.expr(&ast.InstanceOf{Pos: op.Pos, X: lhs, Name: t.Text}, 1+h); err != nil {
				return nil, err
			}
			h = p.h
			continue
		}
		if err := p.down(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBinary(pr + 1)
		if err != nil {
			return nil, err
		}
		p.nest--
		if lhs, err = p.expr(&ast.Binary{Pos: op.Pos, Op: op.Kind, X: lhs, Y: rhs}, 1+max(h, p.h)); err != nil {
			return nil, err
		}
		h = p.h
	}
}

// startsUnary reports whether a token can begin a unary expression (used by
// the cast heuristic).
func startsUnary(t token.Token) bool {
	switch t.Kind {
	case token.IDENT, token.INTLIT, token.LONGLIT, token.FLOATLIT,
		token.DOUBLELIT, token.CHARLIT, token.STRINGLIT,
		token.KwThis, token.KwNew, token.KwTrue, token.KwFalse, token.KwNull,
		token.LParen, token.Not:
		return true
	}
	return false
}

func (p *parser) parseUnary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.Plus:
		p.next()
		// Unary plus is a no-op, but like a parenthesis it counts as a level.
		x, h, err := p.subUnary()
		if err != nil {
			return nil, err
		}
		return p.expr(x, 1+h)
	case token.Minus, token.Not, token.Inc, token.Dec:
		p.next()
		x, h, err := p.subUnary()
		if err != nil {
			return nil, err
		}
		return p.expr(&ast.Unary{Pos: t.Pos, Op: t.Kind, X: x}, 1+h)
	case token.LParen:
		// Cast heuristic: "(primitive)" always; "(Ident)" when followed by a
		// token that begins a unary expression and is not an operator.
		if p.peek(1).IsType() && p.peek(1).Kind != token.KwVoid {
			return p.parseCast()
		}
		if p.peek(1).Kind == token.IDENT {
			j := 2
			for p.peek(j).Kind == token.LBracket && p.peek(j+1).Kind == token.RBracket {
				j += 2
			}
			if p.peek(j).Kind == token.RParen && startsUnary(p.peek(j+1)) {
				return p.parseCast()
			}
		}
	}
	return p.parsePostfix()
}

func (p *parser) parseCast() (ast.Expr, error) {
	lp := p.next() // (
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	x, h, err := p.subUnary()
	if err != nil {
		return nil, err
	}
	return p.expr(&ast.Cast{Pos: lp.Pos, Type: typ, X: x}, 1+h)
}

// parsePostfix builds selector, call, index and postfix-operator chains as
// a left-deep spine in a loop, counting the spine's height as it grows.
func (p *parser) parsePostfix() (ast.Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	h := p.h
	for {
		switch p.cur().Kind {
		case token.Dot:
			p.next()
			nameTok, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			if p.at(token.LParen) {
				args, ha, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				x, err = p.expr(&ast.Call{Pos: nameTok.Pos, Recv: x, Name: nameTok.Text, Args: args}, 1+max(h, ha))
			} else {
				x, err = p.expr(&ast.Select{Pos: nameTok.Pos, X: x, Name: nameTok.Text}, 1+h)
			}
			if err != nil {
				return nil, err
			}
		case token.LBracket:
			lb := p.next()
			idx, hi, err := p.subExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return nil, err
			}
			if x, err = p.expr(&ast.Index{Pos: lb.Pos, X: x, I: idx}, 1+max(h, hi)); err != nil {
				return nil, err
			}
		case token.Inc, token.Dec:
			op := p.next()
			if x, err = p.expr(&ast.Unary{Pos: op.Pos, Op: op.Kind, X: x, Postfix: true}, 1+h); err != nil {
				return nil, err
			}
		default:
			return x, nil
		}
		h = p.h
	}
}

// parseArgs parses a parenthesized argument list and returns it with the
// height of its tallest argument.
func (p *parser) parseArgs() ([]ast.Expr, int, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, 0, err
	}
	var args []ast.Expr
	h := 0
	for !p.at(token.RParen) {
		a, ha, err := p.subExpr()
		if err != nil {
			return nil, 0, err
		}
		args, h = append(args, a), max(h, ha)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, 0, err
	}
	return args, h, nil
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.INTLIT, token.LONGLIT, token.FLOATLIT, token.DOUBLELIT,
		token.CHARLIT, token.STRINGLIT, token.KwTrue, token.KwFalse, token.KwNull:
		p.next()
		x, err := decodeLiteral(t, p.path)
		if err != nil {
			return nil, err
		}
		return p.expr(x, 1)
	case token.IDENT:
		p.next()
		if p.at(token.LParen) {
			args, h, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return p.expr(&ast.Call{Pos: t.Pos, Name: t.Text, Args: args}, 1+h)
		}
		return p.expr(&ast.Ident{Pos: t.Pos, Name: t.Text}, 1)
	case token.KwThis:
		p.next()
		return p.expr(&ast.This{Pos: t.Pos}, 1)
	case token.KwNew:
		return p.parseNew()
	case token.LParen:
		p.next()
		// Parentheses build no node, but they count as a level: the
		// parser's own recursion descends through them.
		x, h, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return p.expr(x, 1+h)
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}

func (p *parser) parseNew() (ast.Expr, error) {
	pos := p.next().Pos // new
	typTok := p.cur()
	var elem ast.Type
	switch {
	case typTok.IsType() && typTok.Kind != token.KwVoid:
		et, err := p.parseType() // consumes trailing [] pairs too
		if err != nil {
			return nil, err
		}
		elem = et
	case typTok.Kind == token.IDENT:
		p.next()
		elem = ast.Type{Kind: ast.ClassType, Name: typTok.Text}
	default:
		return nil, p.errf("expected type after new, found %q", typTok.Text)
	}

	if p.at(token.LParen) {
		if elem.Kind != ast.ClassType || elem.Dims > 0 {
			return nil, p.errf("cannot construct %s", elem)
		}
		args, h, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return p.expr(&ast.New{Pos: pos, Name: elem.Name, Args: args}, 1+h)
	}

	// Array creation: sized dims, then optional unsized [] pairs.
	var lens []ast.Expr
	h := 0
	for p.at(token.LBracket) && p.peek(1).Kind != token.RBracket {
		p.next()
		l, hl, err := p.subExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RBracket); err != nil {
			return nil, err
		}
		lens, h = append(lens, l), max(h, hl)
	}
	for p.at(token.LBracket) && p.peek(1).Kind == token.RBracket {
		p.next()
		p.next()
		elem.Dims++
	}
	if len(lens) == 0 && elem.Dims == 0 {
		return nil, p.errf("array creation needs at least one dimension")
	}
	if len(lens) == 0 {
		return nil, p.errf("array creation needs at least one sized dimension")
	}
	return p.expr(&ast.NewArray{Pos: pos, Elem: elem, Lens: lens}, 1+h)
}

// decodeLiteral turns a literal token into an AST literal with decoded value.
func decodeLiteral(t token.Token, path string) (ast.Expr, error) {
	lit := &ast.Literal{Pos: t.Pos, Raw: t.Text}
	fail := func(msg string) (ast.Expr, error) {
		return nil, &Error{Path: path, Pos: t.Pos, Msg: msg}
	}
	clean := strings.ReplaceAll(t.Text, "_", "")
	switch t.Kind {
	case token.INTLIT:
		v, err := strconv.ParseInt(clean, 0, 64)
		if err != nil {
			return fail("bad int literal " + t.Text)
		}
		if v > 1<<31-1 {
			return fail("int literal out of range: " + t.Text)
		}
		lit.Kind, lit.I = ast.LitInt, v
	case token.LONGLIT:
		v, err := strconv.ParseInt(strings.TrimRight(clean, "Ll"), 0, 64)
		if err != nil {
			return fail("bad long literal " + t.Text)
		}
		lit.Kind, lit.I = ast.LitLong, v
	case token.FLOATLIT:
		v, err := strconv.ParseFloat(strings.TrimRight(clean, "Ff"), 64)
		if err != nil {
			return fail("bad float literal " + t.Text)
		}
		lit.Kind, lit.D = ast.LitFloat, float64(float32(v))
		lit.Sci = lexer.IsScientific(t.Text)
	case token.DOUBLELIT:
		v, err := strconv.ParseFloat(strings.TrimRight(clean, "Dd"), 64)
		if err != nil {
			return fail("bad double literal " + t.Text)
		}
		lit.Kind, lit.D = ast.LitDouble, v
		lit.Sci = lexer.IsScientific(t.Text)
	case token.CHARLIT:
		r, err := decodeChar(t.Text)
		if err != nil {
			return fail(err.Error())
		}
		lit.Kind, lit.I = ast.LitChar, int64(r)
	case token.STRINGLIT:
		s, err := decodeString(t.Text)
		if err != nil {
			return fail(err.Error())
		}
		lit.Kind, lit.S = ast.LitString, s
	case token.KwTrue:
		lit.Kind, lit.I = ast.LitBool, 1
	case token.KwFalse:
		lit.Kind, lit.I = ast.LitBool, 0
	case token.KwNull:
		lit.Kind = ast.LitNull
	}
	return lit, nil
}

func decodeChar(text string) (rune, error) {
	body := text[1 : len(text)-1]
	if body == "" {
		return 0, fmt.Errorf("empty char literal")
	}
	if body[0] == '\\' {
		r, ok := escape(body[1])
		if !ok {
			return 0, fmt.Errorf("bad escape %q", body)
		}
		return r, nil
	}
	return rune(body[0]), nil
}

func decodeString(text string) (string, error) {
	body := text[1 : len(text)-1]
	var sb strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("dangling escape in string literal")
		}
		r, ok := escape(body[i])
		if !ok {
			return "", fmt.Errorf("bad escape \\%c", body[i])
		}
		sb.WriteRune(r)
	}
	return sb.String(), nil
}

func escape(c byte) (rune, bool) {
	switch c {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case '\\':
		return '\\', true
	case '\'':
		return '\'', true
	case '"':
		return '"', true
	case '0':
		return 0, true
	case 'b':
		return '\b', true
	case 'f':
		return '\f', true
	}
	return 0, false
}
