// Package lexer implements the scanner for the mini-Java dialect.
package lexer

import (
	"fmt"
	"strings"

	"jepo/internal/minijava/token"
)

// Error is a lexical error with its position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans mini-Java source text into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// New builds a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() token.Pos { return token.Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// skipSpaceAndComments consumes whitespace, // and /* */ comments.
func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			for {
				if lx.off >= len(lx.src) {
					return lx.errf(start, "unterminated block comment")
				}
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isLetter(c byte) bool {
	return c == '_' || c == '$' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next scans the next token. Its errors are *Error. At the end of the input
// it returns an EOF token, the same one on every later call.
func (lx *Lexer) Next() (token.Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token.Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isLetter(c):
		return lx.scanIdent(pos), nil
	case isDigit(c):
		return lx.scanNumber(pos)
	case c == '.' && isDigit(lx.peek2()):
		return lx.scanNumber(pos)
	case c == '"':
		return lx.scanString(pos)
	case c == '\'':
		return lx.scanChar(pos)
	}
	return lx.scanOperator(pos)
}

func (lx *Lexer) scanIdent(pos token.Pos) token.Token {
	start := lx.off
	for lx.off < len(lx.src) && (isLetter(lx.peek()) || isDigit(lx.peek())) {
		lx.advance()
	}
	text := lx.src[start:lx.off]
	if k, ok := token.Keywords[text]; ok {
		return token.Token{Kind: k, Text: text, Pos: pos}
	}
	return token.Token{Kind: token.IDENT, Text: text, Pos: pos}
}

func (lx *Lexer) scanNumber(pos token.Pos) (token.Token, error) {
	start := lx.off
	kind := token.INTLIT
	sawDot, sawExp := false, false
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && (isHex(lx.peek()) || lx.peek() == '_') {
			lx.advance()
		}
		if lx.peek() == 'L' || lx.peek() == 'l' {
			lx.advance()
			kind = token.LONGLIT
		}
		return lx.number(pos, start, kind, isHex)
	}
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case isDigit(c) || c == '_':
			lx.advance()
		case c == '.' && !sawDot && !sawExp:
			sawDot = true
			kind = token.DOUBLELIT
			lx.advance()
		case (c == 'e' || c == 'E') && !sawExp:
			sawExp = true
			kind = token.DOUBLELIT
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			if !isDigit(lx.peek()) {
				return token.Token{}, lx.errf(pos, "malformed exponent in numeric literal")
			}
		default:
			goto suffix
		}
	}
suffix:
	if lx.off < len(lx.src) {
		switch lx.peek() {
		case 'L', 'l':
			if kind != token.INTLIT {
				return token.Token{}, lx.errf(pos, "L suffix on floating-point literal")
			}
			lx.advance()
			kind = token.LONGLIT
		case 'f', 'F':
			lx.advance()
			kind = token.FLOATLIT
		case 'd', 'D':
			lx.advance()
			kind = token.DOUBLELIT
		}
	}
	return lx.number(pos, start, kind, isDigit)
}

// number makes the numeric literal token scanned from start. JLS §3.10.1
// allows underscores only between two digits, so an underscore after 0x,
// next to a '.', an exponent or a type suffix, or at the end of the literal
// is an error. A literal never starts with one.
func (lx *Lexer) number(pos token.Pos, start int, kind token.Kind, digit func(byte) bool) (token.Token, error) {
	text := lx.src[start:lx.off]
	inRun := func(c byte) bool { return digit(c) || c == '_' }
	for i := 1; i < len(text); i++ {
		if text[i] == '_' && (!inRun(text[i-1]) || i+1 == len(text) || !inRun(text[i+1])) {
			return token.Token{}, lx.errf(pos, "illegal underscore in numeric literal")
		}
	}
	return token.Token{Kind: kind, Text: text, Pos: pos}, nil
}

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

func (lx *Lexer) scanString(pos token.Pos) (token.Token, error) {
	start := lx.off
	lx.advance() // opening quote
	for {
		if lx.off >= len(lx.src) || lx.peek() == '\n' {
			return token.Token{}, lx.errf(pos, "unterminated string literal")
		}
		c := lx.advance()
		if c == '\\' {
			if lx.off >= len(lx.src) {
				return token.Token{}, lx.errf(pos, "unterminated escape in string literal")
			}
			lx.advance()
			continue
		}
		if c == '"' {
			break
		}
	}
	return token.Token{Kind: token.STRINGLIT, Text: lx.src[start:lx.off], Pos: pos}, nil
}

func (lx *Lexer) scanChar(pos token.Pos) (token.Token, error) {
	start := lx.off
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return token.Token{}, lx.errf(pos, "unterminated char literal")
	}
	if lx.peek() == '\\' {
		lx.advance()
		if lx.off >= len(lx.src) {
			return token.Token{}, lx.errf(pos, "unterminated char literal")
		}
		lx.advance()
	} else if lx.peek() == '\'' {
		return token.Token{}, lx.errf(pos, "empty char literal")
	} else {
		lx.advance()
	}
	if lx.off >= len(lx.src) || lx.peek() != '\'' {
		return token.Token{}, lx.errf(pos, "unterminated char literal")
	}
	lx.advance()
	return token.Token{Kind: token.CHARLIT, Text: lx.src[start:lx.off], Pos: pos}, nil
}

// Operator tables, indexed by an operator's first character; EOF, which no
// operator is, marks a miss. A two-character operator is either a character
// followed by '=' (withEq) or a doubled character (doubled); the longest
// match wins.
var (
	withEq = [256]token.Kind{
		'=': token.Eq, '!': token.Ne, '<': token.Le, '>': token.Ge,
		'+': token.PlusEq, '-': token.MinusEq, '*': token.StarEq,
		'/': token.SlashEq, '%': token.PercentEq,
		'&': token.AndEq, '|': token.OrEq, '^': token.XorEq,
	}
	doubled = [256]token.Kind{
		'<': token.Shl, '>': token.Shr, '&': token.AndAnd, '|': token.OrOr,
		'+': token.Inc, '-': token.Dec,
	}
	oneChar = [256]token.Kind{
		'(': token.LParen, ')': token.RParen, '{': token.LBrace, '}': token.RBrace,
		'[': token.LBracket, ']': token.RBracket, ';': token.Semi, ',': token.Comma,
		'.': token.Dot, '?': token.Question, ':': token.Colon, '=': token.Assign,
		'+': token.Plus, '-': token.Minus, '*': token.Star, '/': token.Slash,
		'%': token.Percent, '!': token.Not, '&': token.BitAnd, '|': token.BitOr,
		'^': token.BitXor, '<': token.Lt, '>': token.Gt,
	}
)

func (lx *Lexer) scanOperator(pos token.Pos) (token.Token, error) {
	c, d := lx.peek(), lx.peek2()
	k := token.EOF
	if d == '=' {
		k = withEq[c]
	} else if d == c {
		k = doubled[c]
	}
	if k != token.EOF {
		lx.advance()
		lx.advance()
		return token.Token{Kind: k, Text: lx.src[lx.off-2 : lx.off], Pos: pos}, nil
	}
	if k := oneChar[c]; k != token.EOF {
		lx.advance()
		return token.Token{Kind: k, Text: lx.src[lx.off-1 : lx.off], Pos: pos}, nil
	}
	return token.Token{}, lx.errf(pos, "unexpected character %q", string(c))
}

// IsScientific reports whether a floating-point literal spelling uses
// scientific notation — the distinction Table I's second row is about.
func IsScientific(text string) bool {
	return strings.ContainsAny(text, "eE") && !strings.HasPrefix(text, "0x") && !strings.HasPrefix(text, "0X")
}
