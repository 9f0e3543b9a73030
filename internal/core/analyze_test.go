package core

import (
	"context"
	"strings"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/passes"
)

const measurableProject = `class Work {
	public static void main(String[] args) {
		long total = 0;
		for (int i = 0; i < 200; i++) {
			total = total + i % 8;
		}
		System.out.println(total);
	}
}`

func TestAnalyzeMeasuresFixes(t *testing.T) {
	rep, err := Analyze(context.Background(), Project{"Work.java": measurableProject}, AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Executable {
		t.Fatalf("project with main not executable: %s", rep.ExecNote)
	}
	if rep.Baseline.Package <= 0 {
		t.Fatalf("baseline package energy = %v", rep.Baseline.Package)
	}
	var measured int
	for _, d := range rep.Diags {
		if d.Verdict == VerdictAccepted || d.Verdict == VerdictRejected {
			measured++
		}
		if d.Fix == nil && d.Verdict != VerdictAdvisory {
			t.Errorf("%s: fixless diagnostic has verdict %v", d.Diagnostic, d.Verdict)
		}
	}
	if measured == 0 {
		t.Fatal("no fix was measured")
	}
	// The modulus masking fix replaces a very expensive op with a cheap one;
	// it must measure a positive saving.
	foundMod := false
	for _, d := range rep.Diags {
		if d.Rule == passes.RuleModulusOperator && d.Fix != nil {
			foundMod = true
			if d.Verdict != VerdictAccepted || d.Delta <= 0 {
				t.Errorf("modulus fix: verdict=%v Δ=%v, want accepted with positive Δ", d.Verdict, d.Delta)
			}
			if d.DeltaPct <= 0 {
				t.Errorf("modulus fix: DeltaPct = %v", d.DeltaPct)
			}
		}
	}
	if !foundMod {
		t.Error("no applicable modulus diagnostic found")
	}
	if len(rep.Accepted()) == 0 {
		t.Error("no fix accepted")
	}
	view := AnalysisView(rep)
	if !strings.Contains(view, "baseline:") || !strings.Contains(view, "fix accepted") {
		t.Errorf("view missing measurement lines:\n%s", view)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	p := Project{"Work.java": measurableProject}
	a, err := Analyze(context.Background(), p, AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(context.Background(), p, AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if AnalysisView(a) != AnalysisView(b) {
		t.Error("two Analyze runs disagree")
	}
}

func TestAnalyzeWithoutMain(t *testing.T) {
	rep, err := Analyze(context.Background(), Project{"Lib.java": `class Lib {
	double scale(double x) { return x * 2.0; }
}`}, AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executable || rep.ExecNote == "" {
		t.Fatalf("library project reported executable (note %q)", rep.ExecNote)
	}
	for _, d := range rep.Diags {
		if d.Verdict == VerdictAccepted || d.Verdict == VerdictRejected {
			t.Errorf("%s: measured verdict without a runnable main", d.Diagnostic)
		}
		if d.Fix != nil && (d.Verdict != VerdictUnmeasured || d.Note == "") {
			t.Errorf("%s: verdict=%v note=%q, want unmeasured with note", d.Diagnostic, d.Verdict, d.Note)
		}
	}
	if !strings.Contains(AnalysisView(rep), "measurement disabled") {
		t.Error("view does not say measurement is disabled")
	}
}

func TestAnalyzeRejectsFixThatCostsEnergy(t *testing.T) {
	// Invert the literal costs: scientific-notation constants become far more
	// expensive than plain decimals, so the sci rewrite measures a loss and
	// the engine must refuse it instead of trusting the rule.
	costs := energy.DefaultCosts()
	costs.Ops[energy.OpConstSci] = energy.Cost{Picojoules: 900000, Cycles: 90}
	rep, err := Analyze(context.Background(), Project{"Sci.java": `class Sci {
	public static void main(String[] args) {
		double t = 0.5;
		for (int i = 0; i < 40; i++) {
			t = t + 100000.0;
		}
		System.out.println(t);
	}
}`}, AnalyzeConfig{Costs: &costs})
	if err != nil {
		t.Fatal(err)
	}
	rejected := false
	for _, d := range rep.Diags {
		if d.Rule == passes.RuleScientificNotation && d.Fix != nil {
			if d.Verdict != VerdictRejected || d.Delta >= 0 {
				t.Errorf("sci fix under inverted costs: verdict=%v Δ=%v, want rejected negative", d.Verdict, d.Delta)
			}
			rejected = d.Verdict == VerdictRejected
		}
	}
	if !rejected {
		t.Fatal("no scientific-notation fix was rejected")
	}
	if !strings.Contains(AnalysisView(rep), "REJECTED") {
		t.Error("view does not flag the rejected fix")
	}
}
