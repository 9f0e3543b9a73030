package parser

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestMaxDepth parses each nesting shape at exactly MaxDepth levels, which
// must succeed, and at MaxDepth+1, which must fail with a positioned syntax
// error. Each shape's n counts its own construct; base is the levels the
// surrounding method adds (its body block, and a return for expressions).
func TestMaxDepth(t *testing.T) {
	ret := func(e string) string { return "class A { static int f() { return " + e + "; } }" }
	cases := []struct {
		name  string
		base  int // levels around the n constructs, the innermost leaves included
		build func(n int) string
	}{
		// Body, return, then n parentheses around a literal.
		{"parens", 3, func(n int) string {
			return ret(strings.Repeat("(", n) + "1" + strings.Repeat(")", n))
		}},
		{"unary", 3, func(n int) string { return ret(strings.Repeat("- ", n) + "1") }},
		{"casts", 3, func(n int) string { return ret(strings.Repeat("(int) ", n) + "1") }},
		// Body, then n blocks, the innermost empty.
		{"blocks", 1, func(n int) string {
			return "class A { static void f() { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " } }"
		}},
		// Body, then n ifs, each the else of the one before; the innermost
		// if's condition and empty statement are its leaves.
		{"else-if chain", 2, func(n int) string {
			return "class A { static void f(boolean x) { if (x) ;" + strings.Repeat(" else if (x) ;", n-1) + " } }"
		}},
		// Body, return, then n + operators over n+1 literals: the parser
		// builds the chain in a loop, as a left-deep spine n levels tall.
		{"+ chain", 3, func(n int) string { return ret("1" + strings.Repeat(" + 1", n)) }},
		// Body, return, then n calls chained on a receiver.
		{"call chain", 3, func(n int) string { return ret("a" + strings.Repeat(".f()", n)) }},
		{"index chain", 3, func(n int) string { return ret("a" + strings.Repeat("[0]", n)) }},
		// Field initializers are roots too: n nested array literals.
		{"array literal", 0, func(n int) string {
			return "class A { static int[] x = " + strings.Repeat("{", n) + strings.Repeat("}", n) + "; }"
		}},
		// Body, expression statement, then n right-nested assignments whose
		// innermost target and value are the leaves.
		{"assign chain", 3, func(n int) string {
			return "class A { static void f() { a" + strings.Repeat(" = a", n) + "; } }"
		}},
		{"ternary chain", 3, func(n int) string {
			return ret(strings.Repeat("x ? 1 : ", n) + "1")
		}},
		{"while nest", 2, func(n int) string {
			return "class A { static void f(boolean x) { " + strings.Repeat("while (x) ", n) + "; } }"
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := MaxDepth - c.base
			if _, err := Parse("deep.java", c.build(n)); err != nil {
				t.Fatalf("%d levels: %v", MaxDepth, err)
			}
			_, err := Parse("deep.java", c.build(n+1))
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("%d levels: err = %v, want a *parser.Error", MaxDepth+1, err)
			}
			want := fmt.Sprintf("nesting deeper than %d levels", MaxDepth)
			if pe.Msg != want || !pe.Pos.Valid() || pe.Path != "deep.java" {
				t.Fatalf("%d levels: err = %v, want a positioned %q", MaxDepth+1, err, want)
			}
		})
	}
}

// TestMaxDepthHugeInput: a 1 MiB source nesting half a million levels is
// turned away with the same error, without the parser's own recursion or an
// operator loop running away on it, and in less memory than the source
// itself: the parser stops at the limit, and lexing the rest of the input
// to rule out a lexical error allocates nothing.
func TestMaxDepthHugeInput(t *testing.T) {
	const size = 1 << 20
	wrap := func(e string) string { return "class A { static int f() { return " + e + "; } }" }
	overhead := len(wrap(""))
	levels := (size - overhead - 1) / 2
	srcs := map[string]string{
		"parens":  wrap(strings.Repeat("(", levels) + "1" + strings.Repeat(")", levels)),
		"+ chain": wrap("1" + strings.Repeat("+1", levels)),
	}
	want := fmt.Sprintf("nesting deeper than %d levels", MaxDepth)
	for name, src := range srcs {
		if len(src) != size {
			t.Fatalf("%s: %d bytes, want %d", name, len(src), size)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse("huge.java", src)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= size {
			t.Errorf("%s: Parse allocated %d bytes, want under %d", name, alloc, size)
		}
	}
}
