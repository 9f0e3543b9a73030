package lexer

import (
	"strings"
	"testing"

	"jepo/internal/minijava/token"
)

// scan lexes the whole input: the token stream up to and including EOF, or
// the first lexical error.
func scan(src string) ([]token.Token, error) {
	lx := New(src)
	var toks []token.Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := scan(src)
	if err != nil {
		t.Fatalf("scan(%q): %v", src, err)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestScanBasics(t *testing.T) {
	got := kinds(t, `int x = a % 3;`)
	want := []token.Kind{token.KwInt, token.IDENT, token.Assign, token.IDENT,
		token.Percent, token.INTLIT, token.Semi, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanOperators(t *testing.T) {
	src := `a += b; c <<= 0; x && y || !z; i++; j--; p <= q; r >= s; m != n; k == l;`
	// <<= is not in the dialect: it lexes as << then =.
	toks, err := scan(src)
	if err != nil {
		t.Fatal(err)
	}
	var sawShl, sawAssign bool
	for _, tk := range toks {
		if tk.Kind == token.Shl {
			sawShl = true
		}
		if tk.Kind == token.Assign {
			sawAssign = true
		}
	}
	if !sawShl || !sawAssign {
		t.Error("<<= must lex as << followed by =")
	}

	// Every operator, alone between spaces, lexes to its kind and is spelled
	// as it reads (operator kinds name themselves).
	var ops []string
	for k := token.LParen; k <= token.XorEq; k++ {
		ops = append(ops, k.String())
	}
	toks, err = scan(strings.Join(ops, " "))
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range toks[:len(toks)-1] {
		if want := token.LParen + token.Kind(i); tk.Kind != want || tk.Text != want.String() {
			t.Errorf("token %d = %v %q, want %v", i, tk.Kind, tk.Text, want)
		}
	}
	if len(toks) != len(ops)+1 {
		t.Errorf("%d tokens from %d operators", len(toks)-1, len(ops))
	}
}

func TestScanNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"42", token.INTLIT},
		{"42L", token.LONGLIT},
		{"0x1F", token.INTLIT},
		{"0xFFL", token.LONGLIT},
		{"3.14", token.DOUBLELIT},
		{"3.14f", token.FLOATLIT},
		{"1e5", token.DOUBLELIT},
		{"1.5e-3", token.DOUBLELIT},
		{"2d", token.DOUBLELIT},
		{".5", token.DOUBLELIT},
		{"1_000_000", token.INTLIT},
		{"1__0", token.INTLIT},
		{"0x7FFF_FFFF", token.INTLIT},
		{"0xFFFF_FFFF_FFFF_FFFFL", token.LONGLIT},
		{"1_0.2_5e1_0", token.DOUBLELIT},
	}
	for _, c := range cases {
		toks, err := scan(c.src)
		if err != nil {
			t.Errorf("scan(%q): %v", c.src, err)
			continue
		}
		if toks[0].Kind != c.kind {
			t.Errorf("scan(%q) kind = %v, want %v", c.src, toks[0].Kind, c.kind)
		}
		if toks[0].Text != c.src {
			t.Errorf("scan(%q) text = %q", c.src, toks[0].Text)
		}
	}
}

func TestScanStringsAndChars(t *testing.T) {
	toks, err := scan(`"hello \"world\"" 'a' '\n' '\''`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.STRINGLIT || toks[0].Text != `"hello \"world\""` {
		t.Errorf("string token = %v %q", toks[0].Kind, toks[0].Text)
	}
	if toks[1].Kind != token.CHARLIT || toks[2].Kind != token.CHARLIT || toks[3].Kind != token.CHARLIT {
		t.Error("char literals not scanned")
	}
}

func TestScanComments(t *testing.T) {
	got := kinds(t, "int /* block \n comment */ x; // line\n y")
	want := []token.Kind{token.KwInt, token.IDENT, token.Semi, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestScanPositions(t *testing.T) {
	toks, err := scan("int x;\n  y = 2;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token at %v, want 1:1", toks[0].Pos)
	}
	// 'y' is on line 2, col 3.
	if toks[3].Pos.Line != 2 || toks[3].Pos.Col != 3 {
		t.Errorf("'y' at %v, want 2:3", toks[3].Pos)
	}
}

func TestScanErrors(t *testing.T) {
	for _, src := range []string{
		`"unterminated`,
		`'`,
		`''`,
		`'ab`,
		`#`,
		`/* open`,
		`1e`,
		`1.5L`,
	} {
		if _, err := scan(src); err == nil {
			t.Errorf("scan(%q): want error", src)
		}
	}
}

// TestScanMisplacedUnderscores rejects every numeric literal with an
// underscore anywhere but between two digits (JLS §3.10.1).
func TestScanMisplacedUnderscores(t *testing.T) {
	for _, src := range []string{
		"0x_FF", "0xFF_", "0xFF_L", "0x_", "1_", "2_L", "1__", "1_.5", "1._5",
		"1.5_", "1.5_f", "1_e5", "1e5_", "3_d",
	} {
		_, err := scan(src)
		if err == nil || !strings.Contains(err.Error(), "illegal underscore in numeric literal") {
			t.Errorf("scan(%q): err = %v, want an illegal underscore", src, err)
		}
	}
}

func TestKeywords(t *testing.T) {
	got := kinds(t, "class instanceof finally throws")
	want := []token.Kind{token.KwClass, token.KwInstanceof, token.KwFinally, token.KwThrows, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIsScientific(t *testing.T) {
	if !IsScientific("1e5") || !IsScientific("2.5E-3") {
		t.Error("scientific literals not recognized")
	}
	if IsScientific("15.0") || IsScientific("0xE") {
		t.Error("non-scientific literals misclassified")
	}
}
