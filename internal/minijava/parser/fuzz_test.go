package parser

import (
	"reflect"
	"testing"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/lexer"
	"jepo/internal/minijava/token"
)

// FuzzScan asserts the lexer never panics or loops on arbitrary input: it
// reaches EOF, each token having consumed input, or returns an error. When
// lexing fails, Parse must return exactly that error carrying its path: a
// lexical error anywhere in the file wins over whatever the parser, which
// lexes on demand, finds first.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{
		"", "class T { }", "int x = 5;", `"unterminated`, "'a'", "1e", "0x",
		"/* open", "a %= b << 3;", "1_000_000L", "\x00\xff", "class 🚀 {}",
		"for(;;){}", "новый int",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lx := lexer.New(src)
		var lexErr error
		for n := 0; ; n++ {
			if n > len(src) {
				t.Fatalf("%d tokens from %d bytes without reaching EOF", n, len(src))
			}
			tok, err := lx.Next()
			if err != nil {
				lexErr = err
				break
			}
			if tok.Kind == token.EOF {
				break
			}
		}
		_, err := Parse("fuzz.java", src)
		if lexErr == nil {
			return
		}
		le, ok := lexErr.(*lexer.Error)
		if !ok {
			t.Fatalf("lexer error %v is a %T, want a *lexer.Error", lexErr, lexErr)
		}
		want := &Error{Path: "fuzz.java", Pos: le.Pos, Msg: le.Msg}
		if !reflect.DeepEqual(err, want) {
			t.Fatalf("Parse = %v, want the lexical error %v", err, want)
		}
	})
}

// FuzzParse asserts the parser never panics, and that anything it accepts
// prints to source that re-parses (a printer/parser round-trip invariant).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"class T { }",
		"class T { int f(int a) { return a > 0 ? a : -a; } }",
		"class T { void f() { try { } catch (E e) { } finally { } } }",
		"class T { double[][] m = new double[3][4]; }",
		"class T { String s = \"x\" + 1 + true; }",
		"class T extends U { T() { this.x = 1; } }",
		"class T { void f() { for (int i = 0, j = 1; i < j; i++, j--) { } } }",
		"class T { static int x = 100000; }",
		"package p.q; import a.b.*; class T { }",
		"class T { boolean b = x instanceof Y; }",
		"class T { int m = -2147483648; int h = 0xFFFFFFFF; long l = -9223372036854775808L; long o = 01777777777777777777777L; }",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse("fuzz.java", src)
		if err != nil {
			return
		}
		printed := ast.Print(file)
		if _, err := Parse("fuzz2.java", printed); err != nil {
			t.Fatalf("accepted source does not round-trip: %v\noriginal:\n%s\nprinted:\n%s",
				err, src, printed)
		}
	})
}
