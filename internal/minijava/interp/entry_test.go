package interp_test

import (
	"reflect"
	"testing"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
)

// TestCheckEntryMatchesLoad: CheckEntry returns exactly the error Load
// followed by CheckMain returns — same text, same precedence of link errors
// over entry-point errors — and leaves the files unannotated, so it can run
// on read-only parse masters.
func TestCheckEntryMatchesLoad(t *testing.T) {
	const mainM = `public static void main(String[] a) { }`
	cases := []struct {
		name string
		main string
		srcs []string
		runs bool
	}{
		{"duplicate class", "", []string{`class A { ` + mainM + ` }`, `class A { }`}, false},
		{"unknown superclass", "", []string{`class A extends Missing { ` + mainM + ` }`}, false},
		{"inheritance cycle", "", []string{`class A extends B { ` + mainM + ` } class B extends A { }`}, false},
		{"cycle before duplicate main", "", []string{`class A extends B { ` + mainM + ` } class B extends A { ` + mainM + ` }`}, false},
		{"no main", "", []string{`class A { static int f() { return 1; } }`}, false},
		{"two mains", "", []string{`class A { ` + mainM + ` }`, `class B { ` + mainM + ` }`}, false},
		{"unknown main class", "C", []string{`class A { ` + mainM + ` }`}, false},
		{"named class without main", "B", []string{`class A { ` + mainM + ` }`, `class B { int x; }`}, false},
		{"inherited main", "B", []string{`class A { ` + mainM + ` }`, `class B extends A { }`}, true},
		{"runnable", "", []string{`class A { static int k = 2; int f(int n) { int m = n * k; return m; } ` + mainM + ` }`}, true},
	}
	parse := func(t *testing.T, srcs []string) []*ast.File {
		t.Helper()
		files := make([]*ast.File, len(srcs))
		for i, src := range srcs {
			f, err := parser.Parse("F.java", src)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = f
		}
		return files
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checked := parse(t, c.srcs)
			for _, f := range checked {
				f.Freeze() // the check must accept read-only masters
			}
			got := errText(interp.CheckEntry(c.main, checked...))

			var want string
			prog, err := interp.Load(parse(t, c.srcs)...)
			if err != nil {
				want = err.Error()
			} else {
				want = errText(prog.CheckMain(c.main))
			}
			if got != want {
				t.Fatalf("CheckEntry = %q, Load+CheckMain = %q", got, want)
			}
			if (want == "") != c.runs {
				t.Fatalf("Load+CheckMain = %q, want runnable = %v", want, c.runs)
			}
			fresh := parse(t, c.srcs)
			for i := range checked {
				if !reflect.DeepEqual(checked[i].Classes, fresh[i].Classes) {
					t.Fatalf("CheckEntry annotated file %d", i)
				}
			}
		})
	}
}
