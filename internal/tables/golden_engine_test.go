package tables

import (
	"fmt"
	"testing"

	"jepo/internal/airlines"
	"jepo/internal/corpus"
	cache "jepo/internal/engine"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
)

// TestGoldenEnergyEngineCache is the tentpole acceptance gate in test form:
// the battery run through the artifact engine — cold, then again warm off the
// same store — must reproduce the golden energy file bit for bit. A cache hit
// may only change the cost of a record, never a charge, an op count or an
// output byte.
func TestGoldenEnergyEngineCache(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is regenerated by TestGoldenEnergyDeterminism")
	}
	want := readGolden(t)

	eng := cache.New(cache.Config{})

	battery := func() []goldenRecord {
		var recs []goldenRecord
		// Table I variants through eng.Program, linked from parse checkouts.
		driveF := func(in *interp.Interp) error {
			if err := in.InitStatics(); err != nil {
				return err
			}
			_, err := in.CallStatic("B", "f")
			return err
		}
		run := func(name, src string) {
			load := func() (*interp.Program, error) {
				return eng.Program([]cache.Source{{Path: "golden.java", Source: src}}, false)
			}
			rec, err := fingerprint(interp.EngineVM, name, 1, load, driveF)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			recs = append(recs, rec)
		}
		for _, b := range table1Benches {
			run(fmt.Sprintf("table1/%v/inefficient", b.rule), b.slow)
			run(fmt.Sprintf("table1/%v/efficient", b.rule), b.fast)
		}

		// Table IV kernel pair: original through eng.Program, refactored as
		// a memoized build from a live parse checkout.
		const kernelName = "RandomForest"
		proj, err := corpus.Generate(kernelName, 20200518)
		if err != nil {
			t.Fatal(err)
		}
		kernelSrc := ""
		kernelPath := ""
		for _, f := range proj.Files {
			if f.Path == "" {
				continue
			}
			if hasKernelSuffix(f.Path, kernelName) {
				kernelSrc, kernelPath = f.Source, f.Path
			}
		}
		if kernelSrc == "" {
			t.Fatalf("kernel source for %s not found", kernelName)
		}
		loadOrig := func() (*interp.Program, error) {
			return eng.Program([]cache.Source{{Path: kernelPath, Source: kernelSrc}}, false)
		}
		loadRefd := func() (*interp.Program, error) {
			kernel, err := eng.ParseFile(kernelPath, kernelSrc)
			if err != nil {
				return nil, err
			}
			files := []*ast.File{kernel}
			passes.ApplyFixes(files, passes.AnalyzeFiles(files))
			// Memoized on the refactored print — identity only; the build
			// loads the live AST.
			k := cache.NewKey("test/refactored-kernel").Str(ast.Print(kernel)).Key()
			v, err := eng.Memo(k, func() (any, error) { return interp.Load(kernel) })
			if err != nil {
				return nil, err
			}
			return v.(*interp.Program), nil
		}
		cases, err := goldenCases(interp.EngineVM, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Reuse the canonical battery's kernel driver so the fingerprint
		// protocol cannot drift from the golden definition.
		origCase := cases[len(cases)-2]
		refdCase := cases[len(cases)-1]
		data := kernelDriver(t, kernelName)
		for _, kc := range []struct {
			name string
			load func() (*interp.Program, error)
		}{{origCase.name, loadOrig}, {refdCase.name, loadRefd}} {
			rec, err := fingerprint(interp.EngineVM, kc.name, 1, kc.load, data)
			if err != nil {
				t.Fatalf("%s: %v", kc.name, err)
			}
			recs = append(recs, rec)
		}
		return recs
	}

	cold := battery()
	compareGolden(t, want, cold)
	h0, p0 := eng.Stats().Hits, eng.Stats().Parses
	warm := battery()
	compareGolden(t, want, warm)
	st := eng.Stats()
	if st.Hits <= h0 {
		t.Fatalf("warm battery produced no cache hits (hits %d → %d)", h0, st.Hits)
	}
	if st.Parses != p0 {
		t.Fatalf("warm battery re-parsed: parses %d → %d", p0, st.Parses)
	}
}

func hasKernelSuffix(path, name string) bool {
	want := corpus.KernelClass(name) + ".java"
	return len(path) >= len(want) && path[len(path)-len(want):] == want
}

// kernelDriver reproduces the canonical battery's kernel drive protocol:
// statics, DATA/LABELS binding, one run.
func kernelDriver(t *testing.T, kernelName string) func(in *interp.Interp) error {
	t.Helper()
	const kernelRows = 300
	data := airlines.Generate(kernelRows, 20200518)
	feats, labels := kernelData(data)
	kc := corpus.KernelClass(kernelName)
	return func(in *interp.Interp) error {
		if err := in.InitStatics(); err != nil {
			return err
		}
		if err := in.Bind(kc, "DATA", in.NewDoubleMatrix(feats)); err != nil {
			return err
		}
		if err := in.Bind(kc, "LABELS", in.NewIntArray(labels)); err != nil {
			return err
		}
		_, err := in.CallStatic(kc, "run", interp.IntVal(1))
		return err
	}
}
