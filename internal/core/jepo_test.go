package core

import (
	"context"
	"strings"
	"testing"

	"jepo/internal/passes"
)

const demoProject = `
package demo;

public class Hot {
	static double total = 0.0;

	static int work(int n) {
		double scale = 2.5;
		int s = 0;
		for (int i = 0; i < n; i++) {
			s += i % 7;
			total += i * scale;
		}
		int v = s > 100 ? 1 : 0;
		return s + v;
	}

	public static void main(String[] args) {
		int r = work(2000);
		System.out.println(r);
	}
}
`

func proj() Project { return Project{"demo/Hot.java": demoProject} }

func TestSuggest(t *testing.T) {
	sugs, err := SuggestProject(proj())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[passes.Rule]int{}
	for _, s := range sugs {
		counts[s.Rule]++
	}
	for _, want := range []passes.Rule{
		passes.RulePrimitiveTypes, passes.RuleStaticKeyword,
		passes.RuleModulusOperator, passes.RuleTernaryOperator,
	} {
		if counts[want] == 0 {
			t.Errorf("missing %v suggestion", want)
		}
	}
	if _, err := SuggestProject(Project{"bad.java": "class {"}); err == nil {
		t.Error("syntax error not reported")
	}
}

func TestOptimizerAndDynamicViews(t *testing.T) {
	sugs, _ := SuggestProject(proj())
	view := OptimizerView(sugs)
	if !strings.Contains(view, "Hot") || !strings.Contains(view, "Suggestion") {
		t.Errorf("optimizer view malformed:\n%s", view)
	}
	dyn := DynamicView(sugs, 11)
	if !strings.Contains(dyn, "JEPO suggestions") {
		t.Errorf("dynamic view malformed:\n%s", dyn)
	}
	// Nearest-to-cursor first: the modulus at line 11 must precede the
	// static field at line 5.
	modIdx := strings.Index(dyn, "Arithmetic operators")
	staticIdx := strings.Index(dyn, "Static keyword")
	if modIdx < 0 || staticIdx < 0 || modIdx > staticIdx {
		t.Errorf("cursor ordering wrong:\n%s", dyn)
	}
	clean := OptimizerView(nil)
	if !strings.Contains(clean, "no suggestions") {
		t.Error("empty view missing placeholder")
	}
}

func TestOptimizeRewritesProject(t *testing.T) {
	out, res, err := Optimize(context.Background(), proj())
	if err != nil {
		t.Fatal(err)
	}
	if res.Changes < 3 {
		t.Errorf("changes = %d, want several", res.Changes)
	}
	src := out["demo/Hot.java"]
	if strings.Contains(src, "?") {
		t.Errorf("ternary survived optimization:\n%s", src)
	}
	if !strings.Contains(src, "float scale") {
		t.Errorf("double not narrowed:\n%s", src)
	}
	// The optimized project must still run and print the same result.
	before, err := Profile(context.Background(), proj(), ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Profile(context.Background(), out, ProfileConfig{})
	if err != nil {
		t.Fatalf("optimized project fails to run: %v\n%s", err, src)
	}
	if before.Stdout != after.Stdout {
		t.Errorf("optimization changed output: %q → %q", before.Stdout, after.Stdout)
	}
	if after.Sample.Package >= before.Sample.Package {
		t.Errorf("optimization did not reduce energy: %v → %v",
			before.Sample.Package, after.Sample.Package)
	}
}

func TestProfileProducesMethodRows(t *testing.T) {
	res, err := Profile(context.Background(), proj(), ProfileConfig{MainClass: "Hot"})
	if err != nil {
		t.Fatal(err)
	}
	view := res.View()
	if !strings.Contains(view, "demo.Hot.work") || !strings.Contains(view, "demo.Hot.main") {
		t.Errorf("profiler view missing methods:\n%s", view)
	}
	sums := res.Profiler.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	if res.Stdout == "" {
		t.Error("program output lost")
	}
	if res.Sample.Package <= 0 {
		t.Error("no energy recorded")
	}
}

func TestProfileErrors(t *testing.T) {
	if _, err := Profile(context.Background(), Project{"x.java": "class X { }"}, ProfileConfig{}); err == nil {
		t.Error("project without main accepted")
	}
	if _, err := Profile(context.Background(), Project{"x.java": "class {"}, ProfileConfig{}); err == nil {
		t.Error("syntax error accepted")
	}
	// Tiny op budget must surface as an error, not a hang.
	if _, err := Profile(context.Background(), proj(), ProfileConfig{MaxOps: 10}); err == nil {
		t.Error("op budget not enforced")
	}
}

func TestMetrics(t *testing.T) {
	p := Project{
		"a/A.java": "package a;\nclass A { int x; void f() { B b = new B(); } }",
		"b/B.java": "package b;\nclass B { int y; int z; void g() { } void h() { } }",
	}
	m, err := Metrics(p, "A")
	if err != nil {
		t.Fatal(err)
	}
	if m.Dependencies != 2 || m.Attributes != 3 || m.Methods != 3 || m.Packages != 2 {
		t.Errorf("metrics = %+v", m)
	}
	if _, err := Metrics(p, "Zed"); err == nil {
		t.Error("unknown root accepted")
	}
}
