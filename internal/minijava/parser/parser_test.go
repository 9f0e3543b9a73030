package parser

import (
	"strings"
	"testing"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/token"
)

func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse("test.java", src)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, src)
	}
	return f
}

const demo = `
package weka.core;

import java.util.List;
import weka.core.matrix.*;

public class Utils extends Base {
	public static final int MAX = 100;
	private double sum = 0.0;
	int a, b = 2;

	public Utils(int a) {
		this.sum = a;
	}

	public static int clamp(int v, int lo, int hi) {
		if (v < lo) {
			return lo;
		} else if (v > hi) {
			return hi;
		}
		return v;
	}

	double mean(double[] xs) throws ArithmeticException {
		double s = 0.0;
		for (int i = 0; i < xs.length; i++) {
			s += xs[i];
		}
		if (xs.length == 0) {
			throw new ArithmeticException("empty");
		}
		return s / xs.length;
	}
}
`

func TestParseDeclarations(t *testing.T) {
	f := parse(t, demo)
	if f.Package != "weka.core" {
		t.Errorf("package = %q", f.Package)
	}
	if len(f.Imports) != 2 || f.Imports[1] != "weka.core.matrix.*" {
		t.Errorf("imports = %v", f.Imports)
	}
	if len(f.Classes) != 1 {
		t.Fatalf("classes = %d", len(f.Classes))
	}
	c := f.Classes[0]
	if c.Name != "Utils" || c.Extends != "Base" || !c.Mods.Has(ast.ModPublic) {
		t.Errorf("class header wrong: %+v", c)
	}
	if len(c.Fields) != 4 { // MAX, sum, a, b
		t.Fatalf("fields = %d, want 4", len(c.Fields))
	}
	if !c.Fields[0].Mods.Has(ast.ModStatic | ast.ModFinal | ast.ModPublic) {
		t.Error("MAX modifiers wrong")
	}
	if c.Fields[2].Name != "a" || c.Fields[3].Name != "b" || c.Fields[3].Init == nil {
		t.Error("multi-declarator field wrong")
	}
	if len(c.Methods) != 3 {
		t.Fatalf("methods = %d, want 3", len(c.Methods))
	}
	if !c.Methods[0].IsCtor {
		t.Error("constructor not detected")
	}
	if got := c.Methods[2].Throws; len(got) != 1 || got[0] != "ArithmeticException" {
		t.Errorf("throws = %v", got)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	f := parse(t, `class T { int f(int a, int b, int c) { return a + b * c; } }`)
	ret := f.Classes[0].Methods[0].Body.Stmts[0].(*ast.Return)
	bin := ret.X.(*ast.Binary)
	if bin.Op != token.Plus {
		t.Fatalf("top op = %v, want +", bin.Op)
	}
	if inner, ok := bin.Y.(*ast.Binary); !ok || inner.Op != token.Star {
		t.Fatalf("rhs = %s, want b * c", ast.PrintExpr(bin.Y))
	}
}

func TestParseTernaryAndShortCircuit(t *testing.T) {
	f := parse(t, `class T { int f(int a) { return a > 0 && a < 10 ? a : -a; } }`)
	ret := f.Classes[0].Methods[0].Body.Stmts[0].(*ast.Return)
	tern, ok := ret.X.(*ast.Ternary)
	if !ok {
		t.Fatalf("not a ternary: %T", ret.X)
	}
	if _, ok := tern.Cond.(*ast.Binary); !ok {
		t.Fatal("ternary condition not parsed as binary")
	}
}

func TestParseArrays(t *testing.T) {
	src := `class T {
		void f() {
			int[][] m = new int[3][4];
			double[] v = new double[10];
			int[] lit = {1, 2, 3};
			m[0][1] = v.length;
			String[] names = new String[2];
		}
	}`
	f := parse(t, src)
	stmts := f.Classes[0].Methods[0].Body.Stmts
	lv := stmts[0].(*ast.LocalVar)
	if lv.Type.Dims != 2 {
		t.Errorf("m dims = %d", lv.Type.Dims)
	}
	na := lv.Init.(*ast.NewArray)
	if len(na.Lens) != 2 {
		t.Errorf("new int[3][4] lens = %d", len(na.Lens))
	}
	if _, ok := stmts[2].(*ast.LocalVar).Init.(*ast.ArrayLit); !ok {
		t.Error("array literal initializer not parsed")
	}
	as := stmts[3].(*ast.ExprStmt).X.(*ast.Assign)
	if _, ok := as.LHS.(*ast.Index); !ok {
		t.Error("m[0][1] not an index lvalue")
	}
	if sel, ok := as.RHS.(*ast.Select); !ok || sel.Name != "length" {
		t.Error("v.length not parsed as select")
	}
}

func TestParseCasts(t *testing.T) {
	src := `class T { void f(double d, Object o) {
		int i = (int) d;
		float g = (float) d;
		String s = (String) o;
		int p = (i) + 1;
	} }`
	f := parse(t, src)
	stmts := f.Classes[0].Methods[0].Body.Stmts
	if _, ok := stmts[0].(*ast.LocalVar).Init.(*ast.Cast); !ok {
		t.Error("(int) d not a cast")
	}
	if _, ok := stmts[2].(*ast.LocalVar).Init.(*ast.Cast); !ok {
		t.Error("(String) o not a cast")
	}
	// (i) + 1 must be parenthesized expr, not a cast of +1.
	if _, ok := stmts[3].(*ast.LocalVar).Init.(*ast.Binary); !ok {
		t.Errorf("(i) + 1 parsed as %T", stmts[3].(*ast.LocalVar).Init)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `class T { int f(int n) {
		int s = 0;
		while (n > 0) { s += n; n--; }
		for (int i = 0, j = 1; i < 10; i++, j--) { if (i % 2 == 0) continue; s++; }
		for (;;) { break; }
		try { s = s / n; } catch (ArithmeticException e) { s = 0; } finally { s++; }
		return s;
	} }`
	f := parse(t, src)
	stmts := f.Classes[0].Methods[0].Body.Stmts
	if _, ok := stmts[1].(*ast.While); !ok {
		t.Error("while not parsed")
	}
	fr := stmts[2].(*ast.For)
	if fr.Init == nil || fr.Cond == nil || len(fr.Post) != 2 {
		t.Error("for clauses wrong")
	}
	inf := stmts[3].(*ast.For)
	if inf.Init != nil || inf.Cond != nil || len(inf.Post) != 0 {
		t.Error("empty for clauses wrong")
	}
	tr := stmts[4].(*ast.Try)
	if len(tr.Catches) != 1 || tr.Finally == nil {
		t.Error("try/catch/finally wrong")
	}
}

func TestParseStringsAndCalls(t *testing.T) {
	src := `class T { void f(String a, String b) {
		String s = a + "x" + b;
		boolean e = a.equals(b);
		int c = a.compareTo(b);
		StringBuilder sb = new StringBuilder();
		sb.append(a).append(b);
		System.arraycopy(x, 0, y, 0, 10);
		System.out.println(s);
	} }`
	f := parse(t, src)
	stmts := f.Classes[0].Methods[0].Body.Stmts
	chain := stmts[4].(*ast.ExprStmt).X.(*ast.Call)
	if chain.Name != "append" {
		t.Error("chained append not parsed")
	}
	if inner, ok := chain.Recv.(*ast.Call); !ok || inner.Name != "append" {
		t.Error("append chain receiver wrong")
	}
	sysout := stmts[6].(*ast.ExprStmt).X.(*ast.Call)
	if sysout.Name != "println" {
		t.Error("println call wrong")
	}
	if sel, ok := sysout.Recv.(*ast.Select); !ok || sel.Name != "out" {
		t.Error("System.out receiver wrong")
	}
}

func TestParseScientificFlag(t *testing.T) {
	f := parse(t, `class T { double a = 1e5; double b = 100000.0; float c = 2.5e-2f; }`)
	fields := f.Classes[0].Fields
	if !fields[0].Init.(*ast.Literal).Sci {
		t.Error("1e5 not flagged scientific")
	}
	if fields[1].Init.(*ast.Literal).Sci {
		t.Error("100000.0 flagged scientific")
	}
	if !fields[2].Init.(*ast.Literal).Sci {
		t.Error("2.5e-2f not flagged scientific")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`class {`,
		`class T { int f( { } }`,
		`class T { void f() { 1 = 2; } }`,
		`class T { void f() { try { } } }`,
		`class T { void f() { int x = ; } }`,
		`class T extends { }`,
		`class T { void f() { new int; } }`,
		`class T { void f() { new Foo[](); } }`,
	} {
		if _, err := Parse("bad.java", src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		} else if !strings.Contains(err.Error(), "bad.java") {
			t.Errorf("error %q missing path", err)
		}
	}
}

// TestParseErrorText pins exact error texts. The parser lexes on demand, but
// a lexical error anywhere in the file still wins over an earlier syntax or
// depth error, and over a file that parses up to it.
func TestParseErrorText(t *testing.T) {
	deep := "class A { static int f() { return " + strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200) + "; } }"
	for _, c := range []struct{ name, src, want string }{
		{"syntax error", "class T { int f( { } }", `bad.java:1:18: expected type, found "{"`},
		{"syntax then lexical error", "class T { int f( { } }\nclass U { char c = ''; }", "bad.java:2:20: empty char literal"},
		{"depth error", deep, "bad.java:1:161: nesting deeper than 128 levels"},
		{"depth then lexical error", deep + "\n#", `bad.java:2:1: unexpected character "#"`},
		{"lexical error after a class", "class A { } #", `bad.java:1:13: unexpected character "#"`},
		{"unterminated string", `class T { String s = "abc; }`, "bad.java:1:22: unterminated string literal"},
	} {
		_, err := Parse("bad.java", c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.name, err, c.want)
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	f := parse(t, demo)
	printed := ast.Print(f)
	f2, err := Parse("printed.java", printed)
	if err != nil {
		t.Fatalf("reparse of printed source failed: %v\n%s", err, printed)
	}
	printed2 := ast.Print(f2)
	if printed != printed2 {
		t.Errorf("print not stable:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestPrintPrecedence(t *testing.T) {
	cases := []string{
		`(a + b) * c`,
		`a - (b - c)`,
		`-(a + b)`,
		`a % (b % c)`,
		`(a = b) + 1`,
		`x ? y : z`,
		`a && (b || c)`,
	}
	for _, expr := range cases {
		src := `class T { int f(int a, int b, int c, boolean x, int y, int z) { return ` + expr + `; } }`
		f := parse(t, src)
		printed := ast.Print(f)
		f2, err := Parse("rt.java", printed)
		if err != nil {
			t.Errorf("reparse %q: %v", expr, err)
			continue
		}
		if ast.Print(f2) != printed {
			t.Errorf("unstable print for %q:\n%s", expr, printed)
		}
	}
}

func TestParseSwitchAndDoWhile(t *testing.T) {
	src := `class T { int f(int v, String s) {
		int r = 0;
		switch (v) {
		case 1:
		case 2:
			r = 12;
			break;
		case 3:
			r = 3;
		default:
			r = -1;
		}
		switch (s) {
		case "x":
			r++;
			break;
		}
		do {
			r += 2;
		} while (r < 10);
		return r;
	} }`
	f := parse(t, src)
	stmts := f.Classes[0].Methods[0].Body.Stmts
	sw := stmts[1].(*ast.Switch)
	if len(sw.Cases) != 4 {
		t.Fatalf("cases = %d, want 4 (two labels, one case, one default)", len(sw.Cases))
	}
	if len(sw.Cases[0].Stmts) != 0 || len(sw.Cases[1].Stmts) != 2 {
		t.Error("empty fall-through label parsed wrong")
	}
	if len(sw.Cases[3].Values) != 0 {
		t.Error("default arm must have no values")
	}
	if _, ok := stmts[3].(*ast.DoWhile); !ok {
		t.Fatalf("do-while parsed as %T", stmts[3])
	}
	// Round trip.
	printed := ast.Print(f)
	f2, err := Parse("rt.java", printed)
	if err != nil {
		t.Fatalf("switch/do-while does not round-trip: %v\n%s", err, printed)
	}
	if ast.Print(f2) != printed {
		t.Errorf("unstable print:\n%s", printed)
	}
}

func TestParseSwitchErrors(t *testing.T) {
	for _, src := range []string{
		`class T { void f(int v) { switch (v) { default: break; default: break; } } }`,
		`class T { void f(int v) { switch (v) { junk } } }`,
		`class T { void f(int v) { switch (v) { case 1 break; } } }`,
		`class T { void f() { do { } while true; } }`,
		`class T { void f() { do { } } }`,
	} {
		if _, err := Parse("bad.java", src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

// TestParseIntegerLiteralRanges pins JLS §3.10.1's ranges: a decimal int or
// long literal may reach 2^31 or 2^63 only as the direct operand of a unary
// minus, and a hex or octal literal may use all 32 or 64 bits, read as the
// two's-complement value.
func TestParseIntegerLiteralRanges(t *testing.T) {
	for _, c := range []struct {
		src  string
		kind ast.LitKind
		v    int64
		neg  bool // the literal sits under a unary minus
	}{
		{"-2147483648", ast.LitInt, -2147483648, true},
		{"- 2147483648", ast.LitInt, -2147483648, true},
		{"-2147483647", ast.LitInt, 2147483647, true},
		{"0x7FFFFFFF", ast.LitInt, 2147483647, false},
		{"0xFFFFFFFF", ast.LitInt, -1, false},
		{"0x80000000", ast.LitInt, -2147483648, false},
		{"-0x80000000", ast.LitInt, -2147483648, true},
		{"037777777777", ast.LitInt, -1, false},
		{"020000000000", ast.LitInt, -2147483648, false},
		{"-9223372036854775808L", ast.LitLong, -9223372036854775808, true},
		{"0xFFFFFFFFFFFFFFFFL", ast.LitLong, -1, false},
		{"0x8000000000000000L", ast.LitLong, -9223372036854775808, false},
		{"01777777777777777777777L", ast.LitLong, -1, false},
		{"2_147_483_647", ast.LitInt, 2147483647, false},
	} {
		f, err := Parse("lit.java", "class T { long v = "+c.src+"; }")
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		x := f.Classes[0].Fields[0].Init
		if u, ok := x.(*ast.Unary); c.neg {
			if !ok || u.Op != token.Minus {
				t.Errorf("%s: parsed as %T, want a unary minus", c.src, x)
				continue
			}
			x = u.X
		}
		lit, ok := x.(*ast.Literal)
		if !ok || lit.Kind != c.kind || lit.I != c.v {
			t.Errorf("%s: got %#v, want kind %v value %d", c.src, x, c.kind, c.v)
		}
		printed := ast.Print(f)
		if _, err := Parse("printed.java", printed); err != nil {
			t.Errorf("%s: does not round-trip: %v\n%s", c.src, err, printed)
		}
	}
	for _, c := range []struct{ src, want string }{
		{"2147483648", "int literal out of range: 2147483648"},
		{"-(2147483648)", "int literal out of range: 2147483648"},
		{"1 - 2147483648", "int literal out of range: 2147483648"},
		{"-2147483648 .x", "int literal out of range: 2147483648"},
		{"-2147483649", "int literal out of range: 2147483649"},
		{"0x100000000", "int literal out of range: 0x100000000"},
		{"040000000000", "int literal out of range: 040000000000"},
		{"0x1_0000_0000", `expected ;, found identifier "_0000_0000"`},
		{"9223372036854775808L", "long literal out of range: 9223372036854775808L"},
		{"-(9223372036854775808L)", "long literal out of range: 9223372036854775808L"},
		{"0x10000000000000000L", "long literal out of range: 0x10000000000000000L"},
		{"09", "bad int literal 09"},
	} {
		_, err := Parse("lit.java", "class T { long v = "+c.src+"; }")
		if err == nil || !strings.HasSuffix(err.Error(), ": "+c.want) {
			t.Errorf("%s: err = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestPrintNestedSigns checks that a unary minus over another unary minus
// or a prefix decrement prints apart from it, so the printed source does not
// lex as a decrement.
func TestPrintNestedSigns(t *testing.T) {
	for _, src := range []string{"- -a", "- --a", "- -2147483648", "-(-2147483648)"} {
		f := parse(t, "class T { int f(int a) { return "+src+"; } }")
		printed := ast.Print(f)
		f2, err := Parse("rt.java", printed)
		if err != nil {
			t.Errorf("%s: reparse: %v\n%s", src, err, printed)
			continue
		}
		want := f.Classes[0].Methods[0].Body.Stmts[0].(*ast.Return).X.(*ast.Unary).X.(*ast.Unary).Op
		got, ok := f2.Classes[0].Methods[0].Body.Stmts[0].(*ast.Return).X.(*ast.Unary)
		if !ok {
			t.Errorf("%s: reparsed as %T\n%s", src, f2.Classes[0].Methods[0].Body.Stmts[0].(*ast.Return).X, printed)
			continue
		}
		if inner, ok := got.X.(*ast.Unary); !ok || inner.Op != want {
			t.Errorf("%s: printed %q reparses to a different operator", src, printed)
		}
	}
}
