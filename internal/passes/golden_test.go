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
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_apply.txt")

// TestGoldenApply pins what one analyze-and-apply round writes over each
// classifier's corpus: the sha256 of every file printed after the round, in
// corpus order, and the Result's changes per rule (every key of ByRule,
// zero counts included). Both refactoring paths must print the golden's
// lines: ApplyFixes over AnalyzeFiles of a writable parse, and Refactor over
// frozen parse masters. After Refactor every master must print as it did
// before, and a returned file, which shares nodes with the masters, must be
// refused by interp.Load.
//
// Regenerate (only after an intended change to a rule or a fix) with:
//
//	go test ./internal/passes -run GoldenApply -update
func TestGoldenApply(t *testing.T) {
	var sb strings.Builder
	for _, name := range corpus.Classifiers {
		files := parseCorpus(t, name)
		res := passes.ApplyFixes(files, passes.AnalyzeFiles(files))
		clonePath := goldenLines(name, files, res)

		masters := parseCorpus(t, name)
		before := make([]string, len(masters))
		for i, f := range masters {
			f.Freeze()
			before[i] = ast.Print(f)
		}
		refd, res := passes.Refactor(masters)
		if got := goldenLines(name, refd, res); got != clonePath {
			t.Errorf("%s: Refactor and the clone path disagree:\nRefactor:\n%s\nclone path:\n%s", name, got, clonePath)
		}
		for i, f := range masters {
			if ast.Print(f) != before[i] {
				t.Fatalf("%s: Refactor wrote master %s", name, f.Path)
			}
		}
		if !refusesLoad(refd[len(refd)-1]) {
			t.Errorf("%s: interp.Load accepted a file Refactor returned", name)
		}
		sb.WriteString(clonePath)
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

// goldenLines renders one classifier's golden lines from its refactored
// files and Result.
func goldenLines(name string, files []*ast.File, res *passes.Result) string {
	var sb strings.Builder
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
	return sb.String()
}

// refusesLoad reports whether interp.Load panics on the file, as it does on
// a frozen one.
func refusesLoad(f *ast.File) (refused bool) {
	defer func() { refused = recover() != nil }()
	interp.Load(f)
	return false
}
