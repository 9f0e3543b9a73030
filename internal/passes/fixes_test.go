package passes_test

// Fix tests: each mechanical rewrite preserves the program's result and
// strictly lowers its measured energy.

import (
	"strings"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/passes"
)

func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.Parse("T.java", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// runSrc executes class.method of src and returns the result value and the
// consumed package energy.
func runSrc(t *testing.T, src, class, method string) (interp.Value, energy.Joules) {
	t.Helper()
	f := parse(t, src)
	prog, err := interp.Load(f)
	if err != nil {
		t.Fatalf("load: %v\nsource:\n%s", err, src)
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(100_000_000))
	if err := in.InitStatics(); err != nil {
		t.Fatalf("statics: %v", err)
	}
	before := in.Meter().Snapshot()
	v, err := in.CallStatic(class, method)
	if err != nil {
		t.Fatalf("run: %v\nsource:\n%s", err, src)
	}
	return v, in.Meter().Snapshot().Sub(before).Package
}

// apply runs the requested rules (all rules when none are given) over f and
// applies their fixes.
func apply(f *ast.File, rules ...passes.Rule) *passes.Result {
	files := []*ast.File{f}
	return passes.ApplyFixes(files, passes.AnalyzeFilesRules(files, rules...))
}

// refactorSrc applies rules and returns the re-printed source plus result.
func refactorSrc(t *testing.T, src string, rules ...passes.Rule) (string, *passes.Result) {
	t.Helper()
	f := parse(t, src)
	res := apply(f, rules...)
	out := ast.Print(f)
	if _, err := parser.Parse("out.java", out); err != nil {
		t.Fatalf("refactored source does not re-parse: %v\n%s", err, out)
	}
	return out, res
}

// checkPreservesAndImproves refactors src with rules, asserts the result is
// unchanged and energy strictly improved.
func checkPreservesAndImproves(t *testing.T, src, class, method string, rules ...passes.Rule) (*passes.Result, float64) {
	t.Helper()
	v0, e0 := runSrc(t, src, class, method)
	out, res := refactorSrc(t, src, rules...)
	v1, e1 := runSrc(t, out, class, method)
	if v0.JavaString() != v1.JavaString() {
		t.Fatalf("refactoring changed result: %q → %q\nrefactored:\n%s",
			v0.JavaString(), v1.JavaString(), out)
	}
	if res.Changes == 0 {
		t.Fatalf("no changes applied\nsource:\n%s", src)
	}
	improvement := 100 * (1 - float64(e1)/float64(e0))
	if improvement <= 0 {
		t.Errorf("energy did not improve: before=%v after=%v\nrefactored:\n%s", e0, e1, out)
	}
	return res, improvement
}

func TestTernaryToIfElse(t *testing.T) {
	src := `class T { static int f() {
		int s = 0;
		for (int i = 0; i < 1000; i++) {
			int v = i > 500 ? i : -i;
			s += v;
			s = s > 100000 ? 100000 : s;
		}
		return s > 0 ? s : -s;
	} }`
	res, _ := checkPreservesAndImproves(t, src, "T", "f", passes.RuleTernaryOperator)
	if res.ByRule[passes.RuleTernaryOperator] != 3 {
		t.Errorf("ternary changes = %d, want 3", res.ByRule[passes.RuleTernaryOperator])
	}
	out, _ := refactorSrc(t, src, passes.RuleTernaryOperator)
	if strings.Contains(out, "?") {
		t.Errorf("ternaries remain:\n%s", out)
	}
}

func TestCompareToBecomesEquals(t *testing.T) {
	src := `class T { static int f() {
		String a = "alpha";
		String b = "alphb";
		int n = 0;
		for (int i = 0; i < 500; i++) {
			if (a.compareTo(b) == 0) { n++; }
			if (a.compareTo(a) == 0) { n++; }
			if (a.compareTo(b) != 0) { n++; }
		}
		return n;
	} }`
	res, _ := checkPreservesAndImproves(t, src, "T", "f", passes.RuleStringComparison)
	if res.ByRule[passes.RuleStringComparison] != 3 {
		t.Errorf("compareTo changes = %d, want 3", res.ByRule[passes.RuleStringComparison])
	}
	out, _ := refactorSrc(t, src, passes.RuleStringComparison)
	if strings.Contains(out, "compareTo") {
		t.Errorf("compareTo remains:\n%s", out)
	}
}

func TestModulusMask(t *testing.T) {
	src := `class T { static int f() {
		int s = 0;
		for (int i = 0; i < 5000; i++) {
			s += i % 8;
			s += i % 7; // not a power of two: untouched
		}
		return s;
	} }`
	res, _ := checkPreservesAndImproves(t, src, "T", "f", passes.RuleModulusOperator)
	if res.ByRule[passes.RuleModulusOperator] != 1 {
		t.Errorf("modulus changes = %d, want 1", res.ByRule[passes.RuleModulusOperator])
	}
	out, _ := refactorSrc(t, src, passes.RuleModulusOperator)
	if !strings.Contains(out, "& 7") {
		t.Errorf("mask rewrite missing:\n%s", out)
	}
}

func TestModulusMaskRequiresLoopVar(t *testing.T) {
	// x is a parameter, possibly negative: must not be rewritten.
	src := `class T { static int f(int x) { return x % 8; } }`
	_, res := refactorSrc(t, src, passes.RuleModulusOperator)
	if res.Changes != 0 {
		t.Error("modulus on unproven-non-negative value must not be masked")
	}
}

func TestManualCopyBecomesArraycopy(t *testing.T) {
	src := `class T { static int f() {
		int[] a = new int[4000];
		for (int i = 0; i < 4000; i++) { a[i] = i; }
		int[] b = new int[4000];
		for (int i = 0; i < 4000; i++) {
			b[i] = a[i];
		}
		return b[3999];
	} }`
	res, _ := checkPreservesAndImproves(t, src, "T", "f", passes.RuleArraysCopy)
	if res.ByRule[passes.RuleArraysCopy] != 1 {
		t.Errorf("arraycopy changes = %d, want 1 (init loop untouched)", res.ByRule[passes.RuleArraysCopy])
	}
	out, _ := refactorSrc(t, src, passes.RuleArraysCopy)
	if !strings.Contains(out, "System.arraycopy(a, 0, b, 0, 4000)") {
		t.Errorf("arraycopy call missing:\n%s", out)
	}
}

func TestLoopInterchange(t *testing.T) {
	src := `class T { static int f() {
		int[][] m = new int[600][600];
		int s = 0;
		for (int j = 0; j < 600; j++) {
			for (int i = 0; i < 600; i++) {
				s += m[i][j];
			}
		}
		return s;
	} }`
	res, improvement := checkPreservesAndImproves(t, src, "T", "f", passes.RuleArrayTraversal)
	if res.ByRule[passes.RuleArrayTraversal] != 1 {
		t.Errorf("interchange changes = %d, want 1", res.ByRule[passes.RuleArrayTraversal])
	}
	if improvement < 20 {
		t.Errorf("interchange improvement = %.1f%%, want substantial", improvement)
	}
}

func TestConcatLoopBecomesStringBuilder(t *testing.T) {
	src := `class T { static int f() {
		String s = "";
		for (int i = 0; i < 400; i++) {
			s = s + "x";
		}
		return s.length();
	} }`
	res, improvement := checkPreservesAndImproves(t, src, "T", "f", passes.RuleStringConcat)
	if res.ByRule[passes.RuleStringConcat] != 1 {
		t.Errorf("concat changes = %d", res.ByRule[passes.RuleStringConcat])
	}
	if improvement < 50 {
		t.Errorf("builder improvement = %.1f%%, want large (quadratic → linear)", improvement)
	}
	out, _ := refactorSrc(t, src, passes.RuleStringConcat)
	if !strings.Contains(out, "StringBuilder") || !strings.Contains(out, ".append(") {
		t.Errorf("builder rewrite missing:\n%s", out)
	}
}

func TestConcatPlusEqForm(t *testing.T) {
	src := `class T { static int f() {
		String acc = "start";
		int i = 0;
		while (i < 300) {
			acc += "y";
			i++;
		}
		return acc.length();
	} }`
	res, _ := checkPreservesAndImproves(t, src, "T", "f", passes.RuleStringConcat)
	if res.ByRule[passes.RuleStringConcat] != 1 {
		t.Errorf("concat changes = %d", res.ByRule[passes.RuleStringConcat])
	}
}

func TestConcatBailsOnOtherUses(t *testing.T) {
	// s is read inside the loop beyond accumulation: must not rewrite.
	src := `class T { static int f() {
		String s = "";
		int n = 0;
		for (int i = 0; i < 10; i++) {
			s = s + "x";
			n += s.length();
		}
		return n;
	} }`
	_, res := refactorSrc(t, src, passes.RuleStringConcat)
	if res.Changes != 0 {
		t.Error("accumulator read inside loop must prevent the rewrite")
	}
}

func TestPrimitiveNarrowing(t *testing.T) {
	src := `class T {
		static double scale = 2.0;
		static double f() {
			double sum = 0.0;
			long count = 0L;
			for (int i = 0; i < 1000; i++) {
				sum += i * 0.5;
				count = count + 1L;
			}
			return sum + count;
		}
	}`
	f := parse(t, src)
	res := apply(f, passes.RulePrimitiveTypes)
	// scale, sum, count (double→float ×2, long→int ×1); return type untouched.
	if res.ByRule[passes.RulePrimitiveTypes] != 3 {
		t.Errorf("primitive changes = %d, want 3", res.ByRule[passes.RulePrimitiveTypes])
	}
	out := ast.Print(f)
	if !strings.Contains(out, "float sum") || !strings.Contains(out, "int count") {
		t.Errorf("narrowing missing:\n%s", out)
	}
	// Result changes only by float precision, not structure.
	v0, e0 := runSrc(t, src, "T", "f")
	v1, e1 := runSrc(t, out, "T", "f")
	if v1.AsF64() < v0.AsF64()*0.999 || v1.AsF64() > v0.AsF64()*1.001 {
		t.Errorf("narrowed result %v too far from %v", v1.AsF64(), v0.AsF64())
	}
	if e1 >= e0 {
		t.Errorf("narrowing did not improve energy: %v → %v", e0, e1)
	}
}

func TestWrapperIntegerization(t *testing.T) {
	src := `class T { static int f() {
		Long a = Long.valueOf(5);
		Short b = Short.valueOf(3);
		return a.intValue() + b.intValue();
	} }`
	out, res := refactorSrc(t, src, passes.RuleWrapperClasses)
	if res.ByRule[passes.RuleWrapperClasses] != 2 {
		t.Errorf("wrapper changes = %d, want 2", res.ByRule[passes.RuleWrapperClasses])
	}
	if !strings.Contains(out, "Integer a") || !strings.Contains(out, "Integer b") {
		t.Errorf("Integer rewrite missing:\n%s", out)
	}
}

func TestScientificNotationRewrite(t *testing.T) {
	src := `class T { static double f() {
		double big = 100000.0;
		double small = 0.00001;
		double keep = 3.25;
		double r = 0.0;
		for (int i = 0; i < 2000; i++) {
			r += big * small + keep + 100000.0;
		}
		return r;
	} }`
	res, _ := checkPreservesAndImproves(t, src, "T", "f", passes.RuleScientificNotation)
	if res.ByRule[passes.RuleScientificNotation] != 3 {
		t.Errorf("scientific changes = %d, want 3", res.ByRule[passes.RuleScientificNotation])
	}
}

func TestStaticHoisting(t *testing.T) {
	src := `class T {
		static int acc = 0;
		static int f() {
			for (int i = 0; i < 5000; i++) {
				acc += i;
			}
			return acc;
		}
	}`
	res, improvement := checkPreservesAndImproves(t, src, "T", "f", passes.RuleStaticKeyword)
	if res.ByRule[passes.RuleStaticKeyword] != 1 {
		t.Errorf("static changes = %d, want 1", res.ByRule[passes.RuleStaticKeyword])
	}
	if improvement < 30 {
		t.Errorf("hoist improvement = %.1f%%, want large (static is 178× local)", improvement)
	}
	// The static must still hold the final value after the call.
	out, _ := refactorSrc(t, src, passes.RuleStaticKeyword)
	f := parse(t, out)
	prog, err := interp.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(10_000_000))
	if _, err := in.CallStatic("T", "f"); err != nil {
		t.Fatalf("refactored: %v\n%s", err, out)
	}
	v, err := in.CallStatic("T", "f") // second call reads written-back state
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2*12497500 {
		t.Errorf("written-back static wrong: second call = %d, want %d", v.I, 2*12497500)
	}
}

func TestStaticHoistingSkipsMultiMethodFields(t *testing.T) {
	src := `class T {
		static int shared = 0;
		static void g() { shared++; }
		static int f() { shared++; return shared; }
	}`
	_, res := refactorSrc(t, src, passes.RuleStaticKeyword)
	if res.Changes != 0 {
		t.Error("field touched by two methods must not be hoisted")
	}
}

func TestApplyAllRulesAtOnce(t *testing.T) {
	src := `class T {
		static double total = 0.0;
		static double f() {
			double local = 100000.0;
			String s = "";
			for (int i = 0; i < 200; i++) {
				s = s + "ab";
				total += i % 4;
				int v = i > 100 ? 2 : 1;
				total += v * local;
			}
			return total + s.length();
		}
	}`
	v0, e0 := runSrc(t, src, "T", "f")
	out, res := refactorSrc(t, src)
	v1, e1 := runSrc(t, out, "T", "f")
	// double→float narrows precision; allow small drift but same magnitude.
	r0, r1 := v0.AsF64(), v1.AsF64()
	if r1 < r0*0.99 || r1 > r0*1.01 {
		t.Errorf("combined refactor drifted: %v → %v\n%s", r0, r1, out)
	}
	if e1 >= e0 {
		t.Errorf("combined refactor did not improve: %v → %v", e0, e1)
	}
	if res.Changes < 5 {
		t.Errorf("combined changes = %d, want several", res.Changes)
	}
}
