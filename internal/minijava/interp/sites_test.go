package interp_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/bytecode"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/tables"
)

// corpusProgram is one program the corpus-wide tests load and run, with the
// static method that runs it; an empty method runs main.
type corpusProgram struct {
	name, src, class, method string
}

// corpusPrograms returns the Table I corpus, the examples, the engine-diff
// generator's seeded programs and the assignment-value programs.
func corpusPrograms(t *testing.T) []corpusProgram {
	t.Helper()
	var ps []corpusProgram
	for _, b := range tables.InterpBenches() {
		ps = append(ps, corpusProgram{b.Name, b.Src, "B", "f"})
	}
	paths, err := filepath.Glob("../../../examples/java/*.java")
	if err != nil || len(paths) == 0 {
		t.Fatalf("examples: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, corpusProgram{p, string(b), "", ""})
	}
	for seed := int64(0); seed < 60; seed++ {
		ps = append(ps, corpusProgram{fmt.Sprintf("generated seed %d", seed), generate(rand.New(rand.NewSource(seed))), "F", "f"})
	}
	names, srcs, _ := placePrograms()
	for i := range srcs {
		ps = append(ps, corpusProgram{names[i], srcs[i], "T", "f"})
	}
	return ps
}

// TestLoadResolvesEverySite: after Load, every Call, Select and New has an
// index into the program's site table, the one both engines resolve calls
// and selects through, and every class name used as a value has the index
// of its boxed reference. The programs are corpusPrograms.
func TestLoadResolvesEverySite(t *testing.T) {
	for _, p := range corpusPrograms(t) {
		f, err := parser.Parse("sites.java", p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		prog, err := interp.Load(f)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, gap := range interp.SiteGaps(prog, f) {
			t.Errorf("%s: %s", p.name, gap)
		}
	}
}

// TestEveryOpcodeRuns compiles and runs every corpus program on the VM, twice
// on one instance, and fails on any opcode but nop that appears in none of
// their compiled streams: no test would run it.
func TestEveryOpcodeRuns(t *testing.T) {
	seen := map[bytecode.Op]bool{}
	for _, p := range corpusPrograms(t) {
		f, err := parser.Parse("ops.java", p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		prog, err := interp.Load(f)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(100_000_000))
		for range 2 {
			if p.method == "" {
				err = in.RunMain("")
			} else {
				_, err = in.CallStatic(p.class, p.method)
			}
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		interp.MarkOps(in, seen)
	}
	for op := bytecode.OpNop + 1; op.String() != "op?"; op++ {
		if !seen[op] {
			t.Errorf("opcode %v appears in no compiled stream of the corpus programs", op)
		}
	}
}

// siteRun is what one run of T.f exposes.
type siteRun struct {
	err  string
	v    interp.Value
	out  string
	ops  int64
	pkg  uint64 // Float64bits of package Joules
	hits uint64
}

// siteRuns runs T.f twice on one instance of engine e: a first run, then a
// second against the site cache the first run filled.
func siteRuns(t *testing.T, src string, e interp.Engine) []siteRun {
	t.Helper()
	f, err := parser.Parse("sites.java", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := interp.Load(f)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(1_000_000), interp.WithEngine(e))
	var runs []siteRun
	for range 2 {
		v, err := in.CallStatic("T", "f")
		r := siteRun{v: v, out: in.Output(), ops: in.Ops(), pkg: math.Float64bits(float64(in.Meter().Snapshot().Package))}
		r.hits, _ = in.Meter().CacheStats()
		if err != nil {
			r.err = err.Error()
		}
		runs = append(runs, r)
	}
	return runs
}

// TestSiteCacheGuardMisses feeds call and select sites more than one class,
// so the monomorphic site cache both engines share misses and refills on
// every turn: values, output, op counts, cache hits and joule bits must
// agree across engines on the first run and on a second run over the same
// instance, and a lookup that fails on the second class must fail with the
// same text on both.
func TestSiteCacheGuardMisses(t *testing.T) {
	for _, c := range []struct {
		name, src, wantErr string
	}{
		{"virtual call over two receiver classes", `
class A { int v() { return 1; } }
class B extends A { int v() { return 2; } }
class T {
	static int f() {
		A a = new A(); A b = new B(); int s = 0;
		for (int i = 0; i < 6; i++) { A r = a; if (i % 2 == 1) { r = b; } s = s * 3 + r.v(); }
		System.out.println(s);
		return s;
	}
}`, ""},
		{"inherited self call under two frame classes", `
class A { int g() { return 1; } int h() { return g() * 10; } static int k() { return 3; } static int s() { return k(); } }
class B extends A { int g() { return 2; } static int k() { return 4; } }
class T {
	static int f() {
		A a = new A(); A b = new B(); int s = 0;
		for (int i = 0; i < 6; i++) { A r = a; if (i % 2 == 1) { r = b; } s = s * 100 + r.h(); }
		for (int i = 0; i < 4; i++) { if (i % 2 == 0) { s = s + A.s(); } else { s = s + B.s(); } }
		System.out.println(s);
		return s;
	}
}`, ""},
		{"field select over two slot layouts", `
class P { int a; int x; }
class Q { int x; }
class T {
	static int f() {
		P p = new P(); p.x = 5; Q q = new Q(); q.x = 7; int s = 0;
		for (int i = 0; i < 6; i++) { P r = p; if (i % 2 == 1) { r = q; } s = s * 10 + r.x; r.x += 1; }
		System.out.println(s + " " + p.x + " " + q.x);
		return s;
	}
}`, ""},
		{"method missing on the second receiver class", `
class A { int v() { return 1; } }
class C { int w() { return 2; } }
class T {
	static int f() {
		A a = new A(); A c = new C(); int s = 0;
		for (int i = 0; i < 4; i++) { A r = a; if (i % 2 == 1) { r = c; } s = s + r.v(); }
		return s;
	}
}`, "class C has no method v/0"},
		{"method missing in the second frame class", `
class A { int h() { return g(); } }
class B extends A { int g() { return 2; } }
class T {
	static int f() {
		A b = new B(); A a = new A(); int s = 0;
		for (int i = 0; i < 4; i++) { A r = b; if (i % 2 == 1) { r = a; } s = s + r.h(); }
		return s;
	}
}`, "unknown method g/0 in class A"},
		{"field missing on the second class", `
class P { int x; int y; }
class Q { int x; }
class T {
	static int f() {
		P p = new P(); P q = new Q(); int s = 0;
		for (int i = 0; i < 4; i++) { P r = p; if (i % 2 == 1) { r = q; } s = s + r.y; }
		return s;
	}
}`, "class Q has no field y"},
	} {
		vm, ast := siteRuns(t, c.src, interp.EngineVM), siteRuns(t, c.src, interp.EngineAST)
		for i := range vm {
			if vm[i] != ast[i] {
				t.Errorf("%s, run %d: engines diverged\n  vm:  %+v\n  ast: %+v", c.name, i+1, vm[i], ast[i])
			}
			if got := vm[i].err; c.wantErr == "" && got != "" || !strings.HasSuffix(got, c.wantErr) {
				t.Errorf("%s, run %d: err %q, want %q", c.name, i+1, got, c.wantErr)
			}
		}
	}
}
