package passes_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jepo/internal/corpus"
	"jepo/internal/minijava/ast"
	"jepo/internal/passes"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_apply.txt")

// TestGoldenApply pins what one analyze-and-apply round writes over each
// classifier's corpus: the sha256 of every file printed after ApplyFixes, in
// corpus order, and the Result's changes per rule (every key of ByRule,
// zero counts included).
//
// Regenerate (only after an intended change to a rule or a fix) with:
//
//	go test ./internal/passes -run GoldenApply -update
func TestGoldenApply(t *testing.T) {
	var sb strings.Builder
	for _, name := range corpus.Classifiers {
		files := parseCorpus(t, name)
		res := passes.ApplyFixes(files, passes.AnalyzeFiles(files))
		h := sha256.New()
		for _, f := range files {
			h.Write([]byte(ast.Print(f)))
		}
		fmt.Fprintf(&sb, "%s sha256 %x\n", name, h.Sum(nil))
		fmt.Fprintf(&sb, "%s changes %d\n", name, res.Changes)
		for _, r := range passes.AllRules() {
			if n, ok := res.ByRule[r]; ok {
				fmt.Fprintf(&sb, "%s rule %d %s: %d\n", name, int(r), r, n)
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden_apply.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("applied corpora drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
