package passes

import (
	"strings"
	"testing"

	"jepo/internal/corpus"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/parser"
)

// TestFixesNameTheirBody checks what the apply traversal relies on to skip
// bodies: over every classifier's corpus, each anchored fix names the method
// whose body holds its anchor, found here by walking every body, and a fix
// anchored in a field initializer names none. (The corpora hold no such
// fix; TestFieldInitializerFixApplies makes one.)
func TestFixesNameTheirBody(t *testing.T) {
	for _, name := range corpus.Classifiers {
		p, err := corpus.Generate(name, 20200518)
		if err != nil {
			t.Fatal(err)
		}
		files, err := p.Parse()
		if err != nil {
			t.Fatal(err)
		}
		owner := map[ast.Node]*ast.Method{}
		inField := map[ast.Node]bool{}
		for _, f := range files {
			for _, cl := range f.Classes {
				for _, fd := range cl.Fields {
					ast.Inspect(fd.Init, func(n ast.Node) bool {
						inField[n] = true
						return true
					})
				}
				for _, mt := range cl.Methods {
					if mt.Body != nil {
						ast.Inspect(mt.Body, func(n ast.Node) bool {
							owner[n] = mt
							return true
						})
					}
				}
			}
		}
		anchored := 0
		for _, d := range AnalyzeFiles(files) {
			fx := d.Fix
			if fx == nil || fx.anchor == nil {
				continue
			}
			anchored++
			switch mt := owner[fx.anchor]; {
			case inField[fx.anchor]:
				if fx.method != nil {
					t.Errorf("%s: %s: field-initializer fix names method %s", name, d, fx.method.Name)
				}
			case mt == nil:
				t.Errorf("%s: %s: anchor %T sits in no method body", name, d, fx.anchor)
			case fx.method != mt:
				t.Errorf("%s: %s: fix names %v, its anchor sits in %s", name, d, fx.method, mt.Name)
			}
		}
		if anchored == 0 {
			t.Errorf("%s: no anchored fix", name)
		}
	}
}

// TestFieldInitializerFixApplies checks that a fix anchored in a field
// initializer, which names no method, still fires: the apply traversal walks
// every field initializer.
func TestFieldInitializerFixApplies(t *testing.T) {
	f, err := parser.Parse("T.java",
		"class T { static double big = 25000000.0; int f() { return 1; } }")
	if err != nil {
		t.Fatal(err)
	}
	diags := AnalyzeFiles([]*ast.File{f})
	var sci *Fix
	for _, d := range diags {
		if d.Rule == RuleScientificNotation {
			sci = d.Fix
		}
	}
	if sci == nil || sci.anchor == nil || sci.method != nil {
		t.Fatalf("want an anchored scientific-notation fix naming no method, got %+v", sci)
	}
	res := ApplyFixes([]*ast.File{f}, diags)
	if res.ByRule[RuleScientificNotation] != 1 {
		t.Errorf("scientific notation changes = %d, want 1", res.ByRule[RuleScientificNotation])
	}
	if out := ast.Print(f); !strings.Contains(out, "2.5e+07") {
		t.Errorf("field initializer not rewritten:\n%s", out)
	}
}
