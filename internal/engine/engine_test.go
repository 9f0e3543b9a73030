package engine_test

import (
	"context"
	"reflect"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
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
// parse artifact — the path is checkout metadata, not key material.
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
		t.Fatalf("checkout paths wrong: %q, %q", a.Path, b.Path)
	}
	if a == b {
		t.Fatal("checkouts alias the same AST; they must be private clones")
	}
}

// TestParseCheckoutIsolation: mutating one checkout (via interp.Load's
// in-place annotation) must not leak into later checkouts.
func TestParseCheckoutIsolation(t *testing.T) {
	e := engine.New(engine.Config{})
	first, err := e.ParseFile("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := e.ParseFile("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, pristine) {
		t.Fatal("second checkout differs before any mutation")
	}
	if _, err := interp.Load(first); err != nil {
		t.Fatal(err)
	}
	third, err := e.ParseFile("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, pristine) {
		t.Fatal("loading one checkout mutated the cached master")
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
