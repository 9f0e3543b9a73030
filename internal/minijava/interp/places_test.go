package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"jepo/internal/minijava/interp"
)

// Assignments and ++/-- used as values, at every kind of place a program
// can store to. The value of an assignment is the variable's value after
// the store (JLS §15.26), so it carries the variable's type: `i += 1.5` on
// an int is an int, `c += 1` on a char is a char. A prefix ++/-- is the
// stored value and a postfix one the value before the store (JLS §15.14,
// §15.15). Each case sets the place, prints the expression and then the
// place, so a wrong value and a wrong store show apart.

// place is one kind of assignable place: the expression naming it, and a
// program with class T whose static f runs the statements in %[2]s with
// the place's type as %[1]s.
type place struct {
	name, expr, src string
}

var places = []place{
	{"local", "x", `class T { static void f() { %[1]s x; %[2]s } }`},
	{"this field", "v", `class T { %[1]s v; void g() { %[2]s } static void f() { new T().g(); } }`},
	{"object field", "o.v", `class H { %[1]s v; } class T { static void f() { H o = new H(); %[2]s } }`},
	{"static", "s", `class T { static %[1]s s; static void f() { %[2]s } }`},
	{"qualified static", "H.s", `class H { static %[1]s s; } class T { static void f() { %[2]s } }`},
	{"element, local index", "a[k]", `class T { static void f() { %[1]s[] a = new %[1]s[3]; int k = 1; %[2]s } }`},
	{"element, computed index", "a[k + 1]", `class T { static void f() { %[1]s[] a = new %[1]s[3]; int k = 0; %[2]s } }`},
}

// valueCase sets a place of type typ to init, evaluates expr (P stands
// for the place) and expects Java's printed value of expr and then of the
// place.
type valueCase struct {
	typ, init, expr string
	value, stored   string
}

var valueCases = []valueCase{
	{"int", "1", "P += 1.5", "2", "2"},
	{"int", "0", "P += 2.7", "2", "2"},
	{"int", "0", "P += 0.5", "0", "0"},
	{"int", "3", "P *= 2.5", "7", "7"},
	{"int", "2147483647", "P += 1", "-2147483648", "-2147483648"},
	{"int", "7", "P = 'a'", "97", "97"},
	{"int", "5", "P++", "5", "6"},
	{"int", "5", "++P", "6", "6"},
	{"int", "5", "P--", "5", "4"},
	{"int", "5", "--P", "4", "4"},
	{"char", "'a'", "P += 1", "b", "b"},
	{"char", "'a'", "P = 99", "c", "c"},
	{"char", "'a'", "P++", "a", "b"},
	{"char", "'a'", "++P", "b", "b"},
	{"short", "32767", "P += 1", "-32768", "-32768"},
	{"short", "32767", "++P", "-32768", "-32768"},
	{"short", "-32768", "P--", "-32768", "32767"},
	{"long", "1", "P += 2.5", "3", "3"},
	{"long", "0", "P = 7", "7", "7"},
	{"long", "9223372036854775807L", "++P", "-9223372036854775808", "-9223372036854775808"},
	{"float", "0", "P = 3", "3.0", "3.0"},
	{"float", "0.5f", "P += 1", "1.5", "1.5"},
	{"double", "0", "P = 5", "5.0", "5.0"},
	{"double", "1.5", "P++", "1.5", "2.5"},
	{"double", "1.5", "--P", "0.5", "0.5"},
	{"Integer", "5", "P += 1", "6", "6"},
	{"Integer", "5", "P = 3", "3", "3"},
	{"Integer", "5", "P++", "5", "6"},
	{"Integer", "5", "--P", "4", "4"},
}

// placePrograms returns one program per place kind and value type, with the
// output Java prints for one run of T.f.
func placePrograms() (names, srcs, wants []string) {
	var types []string
	for _, c := range valueCases {
		if len(types) == 0 || types[len(types)-1] != c.typ {
			types = append(types, c.typ)
		}
	}
	for _, p := range places {
		for _, typ := range types {
			var body, want strings.Builder
			for _, c := range valueCases {
				if c.typ != typ {
					continue
				}
				fmt.Fprintf(&body, "%s = %s; System.out.println(%s); System.out.println(%s);\n",
					p.expr, c.init, strings.ReplaceAll(c.expr, "P", p.expr), p.expr)
				want.WriteString(c.value + "\n" + c.stored + "\n")
			}
			names = append(names, p.name+" "+typ)
			srcs = append(srcs, fmt.Sprintf(p.src, typ, body.String()))
			wants = append(wants, want.String())
		}
	}
	return names, srcs, wants
}

// TestAssignmentValues runs every place program on both engines, cold and
// then warm on one instance: values, output, op counts, cache hits and
// joule bits must agree between the engines at both run boundaries, and the
// output must be Java's.
func TestAssignmentValues(t *testing.T) {
	names, srcs, wants := placePrograms()
	for i, src := range srcs {
		vm, ast := siteRuns(t, src, interp.EngineVM), siteRuns(t, src, interp.EngineAST)
		for run := range vm {
			if vm[run] != ast[run] {
				t.Errorf("%s, run %d: engines diverged\n  vm:  %+v\n  ast: %+v\nsource:\n%s", names[i], run+1, vm[run], ast[run], src)
			}
			if want := strings.Repeat(wants[i], run+1); vm[run].err != "" || vm[run].out != want {
				t.Errorf("%s, run %d: err %q, output\n%s\nwant\n%s\nsource:\n%s", names[i], run+1, vm[run].err, vm[run].out, want, src)
			}
		}
	}
}
