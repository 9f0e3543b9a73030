package tables

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jepo/internal/classify"
	"jepo/internal/corpus"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/stats"
)

func TestTable1RatiosHavePaperShape(t *testing.T) {
	rows, _, err := Table1Jobs(context.Background(), interp.EngineVM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != passes.NumTableIRules {
		t.Fatalf("rows = %d, want %d (one per Table I row)", len(rows), passes.NumTableIRules)
	}
	byRule := map[passes.Rule]float64{}
	for _, r := range rows {
		byRule[r.Rule] = r.MeasuredPct
		// Every inefficient variant must actually cost more.
		if r.MeasuredPct <= 0 {
			t.Errorf("%s: inefficient variant measured cheaper (%+.1f%%)", r.Component, r.MeasuredPct)
		}
	}
	// Ordering claims from the paper: static is the most extreme penalty,
	// modulus the worst arithmetic, both far beyond ternary and compareTo.
	if byRule[passes.RuleStaticKeyword] < 1000 {
		t.Errorf("static penalty = %.0f%%, paper reports up to 17,700%%", byRule[passes.RuleStaticKeyword])
	}
	if byRule[passes.RuleModulusOperator] < 200 {
		t.Errorf("modulus penalty = %.0f%%, paper reports up to 1,620%%", byRule[passes.RuleModulusOperator])
	}
	if byRule[passes.RuleTernaryOperator] > 100 || byRule[passes.RuleTernaryOperator] < 5 {
		t.Errorf("ternary penalty = %.1f%%, paper reports up to 37%%", byRule[passes.RuleTernaryOperator])
	}
	if byRule[passes.RuleStringComparison] > 100 || byRule[passes.RuleStringComparison] < 5 {
		t.Errorf("compareTo penalty = %.1f%%, paper reports up to 33%%", byRule[passes.RuleStringComparison])
	}
	if byRule[passes.RuleArrayTraversal] < 100 {
		t.Errorf("column traversal penalty = %.0f%%, paper reports up to 793%%", byRule[passes.RuleArrayTraversal])
	}
	if byRule[passes.RuleStaticKeyword] <= byRule[passes.RuleModulusOperator] {
		t.Error("static must dominate modulus, as in Table I")
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Static keyword") || !strings.Contains(out, "%") {
		t.Errorf("render malformed:\n%s", out)
	}
	t.Logf("\n%s", out)
}

func TestTable2RowsCoverAllClassifiers(t *testing.T) {
	rows, _, err := Table2Parallel(context.Background(), 20200518, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(corpus.Classifiers) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Dependencies < 600 || r.Dependencies > 760 {
			t.Errorf("%s dependencies = %d, out of Table II band", r.Root, r.Dependencies)
		}
		if r.Packages < 36 || r.Packages > 48 {
			t.Errorf("%s packages = %d", r.Root, r.Packages)
		}
	}
	// Every field of every row is a pure function of the seed. Regenerate
	// (only after an intended change to the generator or a metric) with:
	//
	//	go test ./internal/tables -run Table2RowsCoverAllClassifiers -update
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%+v\n", r)
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden_table2.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Table II drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestTable3Rendering(t *testing.T) {
	out := Table3(2000, 42)
	for _, want := range []string{"Airline", "AirportFrom", "Delay", "Binary", "Instances: 2000", "539383"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q:\n%s", want, out)
		}
	}
}

// TestTable4EndToEnd runs the full §VIII pipeline at reduced scale and checks
// the paper's shape: Random Forest wins by a wide margin, RandomTree/
// Logistic/SMO are flat, accuracy drops stay small, and package/CPU/time
// improvements agree in sign.
func TestTable4EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is expensive; run without -short")
	}
	cfg := Table4Config{
		Seed:      20200518,
		Instances: 2000,
		Reps:      2,
		Protocol:  stats.Protocol{Runs: 3, MaxRounds: 3},
		CVFolds:   4,
	}
	rows, err := Table4Supervised(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if failed := FailedRows(rows); len(failed) > 0 {
		t.Fatalf("rows failed: %+v", failed)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Classifier] = r
		if r.Changes < 500 || r.Changes > 1200 {
			t.Errorf("%s changes = %d, far from Table IV band", r.Classifier, r.Changes)
		}
		if math.Abs(r.AccuracyPct) > 3 {
			t.Errorf("%s accuracy drop = %.2f%%, want small as in Table IV", r.Classifier, r.AccuracyPct)
		}
	}
	rf := byName["RandomForest"]
	if rf.PackagePct < 8 {
		t.Errorf("RandomForest package improvement = %.2f%%, want Table IV's top spot", rf.PackagePct)
	}
	for _, r := range rows {
		if r.Classifier != "RandomForest" && r.PackagePct > rf.PackagePct {
			t.Errorf("%s (%.2f%%) beats RandomForest (%.2f%%)", r.Classifier, r.PackagePct, rf.PackagePct)
		}
	}
	for _, flat := range []string{"RandomTree", "Logistic", "SMO"} {
		if math.Abs(byName[flat].PackagePct) > 2 {
			t.Errorf("%s package improvement = %.2f%%, want ≈0", flat, byName[flat].PackagePct)
		}
	}
	// Package and CPU improvements should agree in direction and magnitude.
	for _, r := range rows {
		if r.PackagePct > 2 && (r.CPUPct < 0 || math.Abs(r.PackagePct-r.CPUPct) > 10) {
			t.Errorf("%s package %.2f%% vs CPU %.2f%% implausibly divergent",
				r.Classifier, r.PackagePct, r.CPUPct)
		}
	}
	// Every column of every row is a pure function of the configuration:
	// the changes count, the simulated energy ratios and the accuracy drop.
	// Regenerate (only after an intended change to a rule, the cost model or
	// a classifier) with:
	//
	//	go test ./internal/tables -run Table4EndToEnd -update
	got := RenderTable4(rows)
	path := filepath.Join("testdata", "golden_table4.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Table IV drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestFactoryCoversAllAndRejectsUnknown(t *testing.T) {
	for _, name := range corpus.Classifiers {
		f, err := Factory(name, classify.Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := f().Name(); got != name {
			t.Errorf("factory for %s builds %s", name, got)
		}
	}
	if _, err := Factory("ZeroR", classify.Options{}); err == nil {
		t.Error("unknown classifier accepted")
	}
}
