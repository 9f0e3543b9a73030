package passes_test

// Rule tests: each Table I and extension rule's detection over small
// programs, through the engine's public entry points.

import (
	"strings"
	"testing"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/parser"
	"jepo/internal/passes"
)

func analyze(t *testing.T, src string) []passes.Diagnostic {
	t.Helper()
	f, err := parser.Parse("Test.java", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return passes.AnalyzeFiles([]*ast.File{f})
}

func rulesOf(sugs []passes.Diagnostic) map[passes.Rule]int {
	m := map[passes.Rule]int{}
	for _, s := range sugs {
		m[s.Rule]++
	}
	return m
}

func TestPrimitiveTypeRule(t *testing.T) {
	sugs := analyze(t, `class T {
		double total;
		long count;
		short small;
		byte tiny;
		float ratio;
		int fine;
		void f(double x) {
			long y = 0;
			int z = 0;
		}
	}`)
	if got := rulesOf(sugs)[passes.RulePrimitiveTypes]; got != 7 {
		t.Errorf("primitive suggestions = %d, want 7 (5 fields + 1 param + 1 local)", got)
	}
	for _, s := range sugs {
		if s.Rule == passes.RulePrimitiveTypes && strings.Contains(s.Detail, "fine") {
			t.Error("int declaration must not be flagged")
		}
	}
}

func TestWrapperRule(t *testing.T) {
	sugs := analyze(t, `class T {
		Double d;
		Long l;
		Integer ok;
		void f() { Character c = 'x'; }
	}`)
	if got := rulesOf(sugs)[passes.RuleWrapperClasses]; got != 3 {
		t.Errorf("wrapper suggestions = %d, want 3", got)
	}
}

func TestStaticRule(t *testing.T) {
	sugs := analyze(t, `class T {
		static int counter;
		static final int CONST = 5;
		int instanceField;
	}`)
	if got := rulesOf(sugs)[passes.RuleStaticKeyword]; got != 1 {
		t.Errorf("static suggestions = %d, want 1 (static final constants exempt)", got)
	}
}

func TestModulusRule(t *testing.T) {
	// The masking fix needs a counted loop variable known to stay
	// non-negative; `i % 8` on the loop index is applicable, `i % 7` (not a
	// power of two) stays advisory.
	sugs := analyze(t, `class T { int f(int a) {
		int s = 0;
		for (int i = 0; i < a; i++) {
			s = s + i % 7;
			s = s + i % 8;
		}
		return s;
	} }`)
	var pow2Auto, general int
	for _, s := range sugs {
		if s.Rule != passes.RuleModulusOperator {
			continue
		}
		if s.Fix != nil {
			pow2Auto++
		} else {
			general++
		}
	}
	if pow2Auto != 1 || general != 1 {
		t.Errorf("modulus: auto=%d general=%d, want 1/1", pow2Auto, general)
	}
}

func TestTernaryRule(t *testing.T) {
	sugs := analyze(t, `class T { int f(int a) {
		int x = a > 0 ? a : -a;
		return x;
	} }`)
	if got := rulesOf(sugs)[passes.RuleTernaryOperator]; got != 1 {
		t.Errorf("ternary suggestions = %d, want 1", got)
	}
}

func TestShortCircuitRuleFlagsChainOnce(t *testing.T) {
	sugs := analyze(t, `class T { boolean f(int a) {
		return a > 0 && a < 10 && a != 5;
	} }`)
	if got := rulesOf(sugs)[passes.RuleShortCircuit]; got != 1 {
		t.Errorf("short-circuit suggestions = %d, want 1 for the whole chain", got)
	}
}

func TestStringRules(t *testing.T) {
	sugs := analyze(t, `class T {
		String f(String a, String b) {
			String s = a + ", " + b;
			if (a.compareTo(b) == 0) { return s; }
			return s + "!";
		}
	}`)
	counts := rulesOf(sugs)
	if counts[passes.RuleStringConcat] < 2 {
		t.Errorf("concat suggestions = %d, want ≥2", counts[passes.RuleStringConcat])
	}
	if counts[passes.RuleStringComparison] != 1 {
		t.Errorf("compareTo suggestions = %d, want 1", counts[passes.RuleStringComparison])
	}
}

func TestScientificNotationRule(t *testing.T) {
	sugs := analyze(t, `class T {
		double a = 100000.0;
		double b = 0.00001;
		double c = 1e5;
		double d = 3.25;
	}`)
	if got := rulesOf(sugs)[passes.RuleScientificNotation]; got != 2 {
		t.Errorf("scientific suggestions = %d, want 2 (a and b only)", got)
	}
}

func TestArrayCopyRule(t *testing.T) {
	sugs := analyze(t, `class T { void f(int[] a, int[] b, int n) {
		for (int i = 0; i < n; i++) {
			b[i] = a[i];
		}
		for (int i = 0; i < n; i++) {
			b[i] = a[i] + 1;
		}
	} }`)
	count := 0
	for _, s := range sugs {
		if s.Rule == passes.RuleArraysCopy {
			count++
			if !strings.Contains(s.Detail, "'a'") || !strings.Contains(s.Detail, "'b'") {
				t.Errorf("copy detail = %q", s.Detail)
			}
		}
	}
	if count != 1 {
		t.Errorf("array-copy suggestions = %d, want 1 (transforming loop exempt)", count)
	}
}

func TestColumnTraversalRule(t *testing.T) {
	src := `class T { int f(int[][] m, int n) {
		int s = 0;
		for (int j = 0; j < n; j++) {
			for (int i = 0; i < n; i++) {
				s += m[i][j];
			}
		}
		for (int i = 0; i < n; i++) {
			for (int j = 0; j < n; j++) {
				s += m[i][j];
			}
		}
		return s;
	} }`
	sugs := analyze(t, src)
	if got := rulesOf(sugs)[passes.RuleArrayTraversal]; got != 1 {
		t.Errorf("traversal suggestions = %d, want 1 (row-major loop exempt)", got)
	}
}

func TestSuggestionsCarryPositions(t *testing.T) {
	sugs := analyze(t, "class T {\n\tdouble x;\n}")
	if len(sugs) != 1 {
		t.Fatalf("suggestions = %d", len(sugs))
	}
	s := sugs[0]
	if s.Line != 2 || s.Class != "T" || s.File != "Test.java" {
		t.Errorf("position = %+v", s)
	}
	if !strings.Contains(s.String(), "T:2") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestRuleMetadataComplete(t *testing.T) {
	if len(passes.TableIRules()) != 11 {
		t.Fatalf("Table I has 11 rows, got %d rules", len(passes.TableIRules()))
	}
	if len(passes.AllRules()) != 13 {
		t.Fatalf("total rules = %d, want 13 (Table I + 2 extensions)", len(passes.AllRules()))
	}
	for _, r := range passes.AllRules() {
		if r.Component() == "" || r.Text() == "" {
			t.Errorf("rule %d missing metadata", r)
		}
	}
	if passes.Rule(99).String() == "" {
		t.Error("out-of-range rule must still format")
	}
}

func TestAnalyzeAllAggregates(t *testing.T) {
	f1, _ := parser.Parse("A.java", `class A { double x; }`)
	f2, _ := parser.Parse("B.java", `class B { long y; }`)
	sugs := passes.AnalyzeFiles([]*ast.File{f1, f2})
	if len(sugs) != 2 {
		t.Errorf("aggregate suggestions = %d, want 2", len(sugs))
	}
}

func TestCleanCodeYieldsNoSuggestions(t *testing.T) {
	sugs := analyze(t, `class Clean {
		int a;
		static final int LIMIT = 10;
		int f(int x, int[] src, int[] dst) {
			int s = 0;
			for (int i = 0; i < x; i++) {
				if (i > 2) {
					s += i * 3;
				} else {
					s -= i;
				}
			}
			System.arraycopy(src, 0, dst, 0, x);
			StringBuilder sb = new StringBuilder();
			sb.append(s);
			return s;
		}
	}`)
	if len(sugs) != 0 {
		for _, s := range sugs {
			t.Logf("unexpected: %s", s)
		}
		t.Errorf("clean code produced %d suggestions", len(sugs))
	}
}

func TestExtensionRuleExceptionInLoop(t *testing.T) {
	sugs := analyze(t, `class T { int f(int n) {
		int bad = 0;
		for (int i = 0; i < n; i++) {
			try {
				bad += 10 / i;
			} catch (ArithmeticException e) {
				bad++;
			}
		}
		while (bad > 0) {
			if (bad == 7) {
				throw new IllegalStateException("seven");
			}
			bad--;
		}
		try { bad++; } catch (RuntimeException e) { }
		return bad;
	} }`)
	// try-in-for + throw-in-while = 2; the top-level try is fine.
	if got := rulesOf(sugs)[passes.RuleExceptionInLoop]; got != 2 {
		t.Errorf("exception-in-loop suggestions = %d, want 2", got)
	}
}

func TestExtensionRuleObjectInLoop(t *testing.T) {
	sugs := analyze(t, `class Box { }
	class T { int f(int n) {
		Box outside = new Box();
		int s = 0;
		for (int i = 0; i < n; i++) {
			Box churn = new Box();
			s++;
		}
		for (int i = 0; i < n; i++) {
			if (s > 100) {
				throw new RuntimeException("x");
			}
		}
		return s;
	} }`)
	counts := rulesOf(sugs)
	// One Box allocation in a loop; the exception constructor is reported
	// under the exception rule, not the objects rule.
	if counts[passes.RuleObjectInLoop] != 1 {
		t.Errorf("object-in-loop suggestions = %d, want 1", counts[passes.RuleObjectInLoop])
	}
	if counts[passes.RuleExceptionInLoop] != 1 {
		t.Errorf("exception suggestions = %d, want 1", counts[passes.RuleExceptionInLoop])
	}
}

func TestExtensionRulesAreNotAuto(t *testing.T) {
	sugs := analyze(t, `class Box { }
	class T { void f(int n) { for (int i = 0; i < n; i++) { Box b = new Box(); } } }`)
	for _, s := range sugs {
		if (s.Rule == passes.RuleObjectInLoop || s.Rule == passes.RuleExceptionInLoop) && s.Fix != nil {
			t.Errorf("extension rule %v marked auto-applicable", s.Rule)
		}
	}
}
