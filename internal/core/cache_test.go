package core

import (
	"context"
	"testing"

	"jepo/internal/engine"
	"jepo/internal/passes"
)

// cacheProject: three files, two of which never change and one main with
// multiple fixable findings — the shape where the old pipeline's
// O(files × fixes) re-parsing hurt.
var cacheProject = Project{
	"Main.java": `class Main {
	public static void main(String[] args) {
		long total = 0;
		double t = 0.5;
		for (int i = 0; i < 200; i++) {
			total = total + i % 8;
			t = t + 100000.0;
		}
		System.out.println(total + Helper.twice(3) + Other.base());
		System.out.println(t);
	}
}`,
	"Helper.java": `class Helper {
	static int twice(int x) { return x * 2; }
}`,
	"Other.java": `class Other {
	static int base() { return 7; }
}`,
}

// fixableCount is the number of diagnostics carrying a mechanical fix, i.e.
// the number of per-fix measurement checkouts Analyze performs.
func fixableCount(r *AnalysisReport) int {
	n := 0
	for _, d := range r.Diags {
		if d.Fix != nil {
			n++
		}
	}
	return n
}

// TestAnalyzeParseCountRegression: Analyze parses each file exactly once —
// detection, the baseline program and every per-fix checkout all hydrate
// from the same masters — instead of O(files × fixes) full re-parses.
func TestAnalyzeParseCountRegression(t *testing.T) {
	const nFiles = 3

	cached := engine.New(engine.Config{})
	rep, err := Analyze(context.Background(), cacheProject, AnalyzeConfig{Cache: cached})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Executable {
		t.Fatalf("fixture not executable: %s", rep.ExecNote)
	}
	fixes := fixableCount(rep)
	if fixes < 2 {
		t.Fatalf("fixture too weak: only %d fixable diagnostics", fixes)
	}
	if got := cached.Stats().Parses; got != nFiles {
		t.Fatalf("cached Analyze parses = %d, want %d (one per file)", got, nFiles)
	}
}

// TestAnalyzeWarmReportHit: a second identical Analyze call is a report-level
// cache hit — the very same artifact, not merely an equal one.
func TestAnalyzeWarmReportHit(t *testing.T) {
	eng := engine.New(engine.Config{})
	a, err := Analyze(context.Background(), cacheProject, AnalyzeConfig{Cache: eng})
	if err != nil {
		t.Fatal(err)
	}
	parses := eng.Stats().Parses
	b, err := Analyze(context.Background(), cacheProject, AnalyzeConfig{Cache: eng})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("warm Analyze rebuilt the report instead of hitting the cache")
	}
	if got := eng.Stats().Parses; got != parses {
		t.Fatalf("warm Analyze parsed again: %d → %d", parses, got)
	}

	// Jobs is execution shape, not key material: a different worker count
	// must serve the same cached report.
	c, err := Analyze(context.Background(), cacheProject, AnalyzeConfig{Jobs: 4, Cache: eng})
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("Jobs leaked into the report cache key")
	}
}

// TestAnalyzeRuleSubsetKeysSeparately: the rule selection is key material —
// a restricted analysis is a distinct artifact, and flipping back to the
// full rule set hits the original.
func TestAnalyzeRuleSubsetKeysSeparately(t *testing.T) {
	eng := engine.New(engine.Config{})
	full, err := Analyze(context.Background(), cacheProject, AnalyzeConfig{Cache: eng})
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := Analyze(context.Background(), cacheProject, AnalyzeConfig{Rules: []passes.Rule{passes.RuleModulusOperator}, Cache: eng})
	if err != nil {
		t.Fatal(err)
	}
	if restricted == full {
		t.Fatal("rule subset returned the full-rules report artifact")
	}
	if len(restricted.Diags) >= len(full.Diags) {
		t.Fatalf("restricted rules found %d diags, full found %d", len(restricted.Diags), len(full.Diags))
	}
	again, err := Analyze(context.Background(), cacheProject, AnalyzeConfig{Cache: eng})
	if err != nil {
		t.Fatal(err)
	}
	if again != full {
		t.Fatal("full-rules re-run missed its cached report")
	}
}
