package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/instrument"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/passes"
)

const benchSrc = `class B {
	static double f() {
		double acc = 0;
		for (int i = 0; i < 1000; i++) { acc += i % 7; }
		return acc;
	}
	public static void main(String[] args) {
		System.out.println(B.f());
	}
}`

// TestParseSharingAcrossPaths: identical source at two different paths is one
// parse artifact — the path is not key material. Each result carries its own
// path, both share the master's classes, and both are read-only.
func TestParseSharingAcrossPaths(t *testing.T) {
	e := engine.New(engine.Config{})
	a, err := e.ParseFile("a/B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ParseFile("b/B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Parses != 1 {
		t.Fatalf("parses = %d, want 1 (same bytes at two paths must share the master)", st.Parses)
	}
	if a.Path != "a/B.java" || b.Path != "b/B.java" {
		t.Fatalf("paths wrong: %q, %q", a.Path, b.Path)
	}
	if len(a.Classes) == 0 || len(a.Classes) != len(b.Classes) || a.Classes[0] != b.Classes[0] {
		t.Fatal("the two paths do not share the master's classes")
	}
	if !a.Frozen() || !b.Frozen() {
		t.Fatalf("frozen = %v, %v; parse results must be read-only", a.Frozen(), b.Frozen())
	}
}

// TestParseCheckoutIsolation: every in-place writer refuses a parse master —
// Load, Inject, ApplyFixes, and ApplyFixes of a fix detected on one — and
// loading a copy, which annotates the copy in place, leaves the master
// exactly as a fresh parse: same print, every resolver field still zero.
func TestParseCheckoutIsolation(t *testing.T) {
	e := engine.New(engine.Config{})
	master, err := e.ParseFile("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, write func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		write()
	}
	mustPanic("interp.Load of a parse master", func() { interp.Load(master) })
	mustPanic("instrument.Inject into a parse master", func() { instrument.Inject(master) })
	mustPanic("passes.ApplyFixes on a parse master", func() { passes.ApplyFixes([]*ast.File{master}, nil) })
	// A fix detected on the master closes over the master's nodes, so it is
	// refused even when the files handed to ApplyFixes are copies.
	diags := passes.AnalyzeFiles([]*ast.File{master})
	fixable := 0
	for _, d := range diags {
		if d.Fix != nil {
			fixable++
		}
	}
	if fixable == 0 {
		t.Fatal("no fixable diagnostic on the master; the ApplyFixes check is vacuous")
	}
	mustPanic("passes.ApplyFixes of a fix detected on a parse master", func() {
		passes.ApplyFixes([]*ast.File{ast.CloneFile(master)}, diags)
	})
	want := ast.Print(master)
	if _, err := interp.Load(ast.CloneFile(master)); err != nil {
		t.Fatal(err)
	}
	if got := ast.Print(master); got != want {
		t.Fatal("loading a copy changed the master's print")
	}
	// A fresh parse carries no resolver annotation (Ident.RSlot/RKind/RIx,
	// SiteIx, Method.CIx/NSlots, LocalVar and Catch slots), so deep equality
	// with one shows the master carries none either.
	fresh, err := parser.Parse("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(master.Classes, fresh.Classes) {
		t.Fatal("loading a copy annotated the master")
	}
	again, err := e.ParseFile("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if again != master {
		t.Fatal("a hit at the same path did not return the master")
	}
}

// TestSampleConfigKeying: the run configuration reaches the run. A repeated
// spec measures a bit-identical sample, a changed cost table changes the
// sample, and main mode and call mode measure different runs of the same
// sources.
func TestSampleConfigKeying(t *testing.T) {
	e := engine.New(engine.Config{})
	srcs := []engine.Source{{Path: "B.java", Source: benchSrc}}
	spec := engine.RunSpec{CallClass: "B", CallMethod: "f", MaxOps: 1_000_000}

	s1, err := e.Sample(context.Background(), srcs, spec)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Sample(context.Background(), srcs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("repeated identical spec produced a different sample")
	}

	costs := energy.DefaultCosts()
	costs.FrequencyHz *= 2
	cheap := spec
	cheap.Costs = &costs
	s3, err := e.Sample(context.Background(), srcs, cheap)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("cost-table change returned the default-costs sample")
	}

	mainSpec := engine.RunSpec{MaxOps: 1_000_000}
	sm, err := e.Sample(context.Background(), srcs, mainSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sm == s1 {
		t.Fatal("main-mode run aliased the call-mode sample")
	}
}

// TestParseSingleFlight: goroutines that miss on one source at once parse
// it once. The others wait for that parse and get the master under their
// own path.
func TestParseSingleFlight(t *testing.T) {
	// A source large enough that the racers' lookups overlap its parse.
	src := strings.Repeat(benchSrc+"\n", 200)
	e := engine.New(engine.Config{})
	const n = 16
	files := make([]*ast.File, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			files[i], errs[i] = e.ParseFile(fmt.Sprintf("p%d/B.java", i), src)
		}()
	}
	close(start)
	wg.Wait()
	if st := e.Stats(); st.Parses != 1 || st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("parses = %d, misses = %d, hits = %d; want 1, 1, %d", st.Parses, st.Misses, st.Hits, n-1)
	}
	for i, f := range files {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want := fmt.Sprintf("p%d/B.java", i); f.Path != want {
			t.Errorf("result %d has path %q, want %q", i, f.Path, want)
		}
		if len(f.Classes) != 200 || f.Classes[0] != files[0].Classes[0] {
			t.Errorf("result %d does not share the master's classes", i)
		}
	}
}

// TestParseErrorCached: a parse error is stored under the source's key like
// a master, so the same failing source at two paths parses once, and each
// error reads as a fresh parse at its path.
func TestParseErrorCached(t *testing.T) {
	const bad = "class T { int f( { } }"
	e := engine.New(engine.Config{})
	for _, path := range []string{"a/T.java", "b/T.java", "a/T.java"} {
		_, err := e.ParseFile(path, bad)
		_, want := parser.Parse(path, bad)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: err = %v, want %v", path, err, want)
		}
	}
	if st := e.Stats(); st.Parses != 1 || st.Hits != 2 {
		t.Fatalf("parses = %d, hits = %d; want 1 parse and 2 hits", st.Parses, st.Hits)
	}
}
