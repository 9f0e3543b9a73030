package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jepo/internal/corpus"
	"jepo/internal/engine"
)

var updateCorpusGolden = flag.Bool("update", false, "regenerate testdata/golden_corpus_J48.txt")

// TestGoldenCorpusDiagnostics pins every diagnostic `jepo corpus` finds in
// the J48 corpus at seed 1, one line each: file path, the diagnostic (class,
// line, rule and detail) and its verdict. The command's stdout prints only
// counts and file names, so it reads the same at every seed; this golden is
// what sees a diagnostic that moves, disappears or changes its text. It runs
// AnalyzeAll at two jobs, the path `jepo corpus` takes.
//
// Regenerate (only after auditing the diff) with:
//
//	go test ./internal/core -run GoldenCorpusDiagnostics -update
func TestGoldenCorpusDiagnostics(t *testing.T) {
	p, err := corpus.Generate("J48", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := AnalyzeAll(context.Background(), p, AnalyzeConfig{Jobs: 2, Cache: engine.New(engine.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, fa := range rep.Files {
		for _, d := range fa.Report.Diags {
			fmt.Fprintf(&sb, "%s\t%s\t%s\n", fa.Path, d.Diagnostic, d.Verdict)
		}
	}
	got := sb.String()

	path := filepath.Join("testdata", "golden_corpus_J48.txt")
	if *updateCorpusGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d diagnostics)", path, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("diagnostic %d drifted:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%d diagnostics, golden has %d", len(gotLines)-1, len(wantLines)-1)
}
