package corpus

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/jmetrics"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/passes"
)

const testSeed = 20200518 // the paper's IPDPSW publication date

var (
	genOnce  sync.Once
	genCache map[string]*Project
	genErr   error
)

func projects(t *testing.T) map[string]*Project {
	t.Helper()
	genOnce.Do(func() {
		genCache = map[string]*Project{}
		for _, c := range Classifiers {
			p, err := Generate(c, testSeed)
			if err != nil {
				genErr = err
				return
			}
			genCache[c] = p
		}
	})
	if genErr != nil {
		t.Fatal(genErr)
	}
	return genCache
}

func TestGenerateUnknownClassifier(t *testing.T) {
	if _, err := Generate("C5.0", 1); err == nil {
		t.Fatal("unknown classifier accepted")
	}
}

func TestEveryProjectParsesAndLoads(t *testing.T) {
	for name, p := range projects(t) {
		files, err := p.Parse()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := interp.Load(files...); err != nil {
			t.Fatalf("%s does not load: %v", name, err)
		}
	}
}

func TestCoreSharedAcrossClassifiers(t *testing.T) {
	ps := projects(t)
	j48 := ps["J48"].Files
	ibk := ps["IBk"].Files
	// The first coreClasses files are the shared library and must be
	// byte-identical, as weka.core is for real WEKA classifiers.
	for i := 0; i < coreClasses; i++ {
		if j48[i].Path != ibk[i].Path || j48[i].Source != ibk[i].Source {
			t.Fatalf("core file %d differs between classifiers (%s vs %s)",
				i, j48[i].Path, ibk[i].Path)
		}
	}
}

// TestDeterministicGeneration generates each seed's corpus first on its own,
// then again from goroutines asking for interleaved seeds: the core memo
// holds one seed, so a memo that served the other seed's core, or a core
// built twice at once, would show as a file differing from its seed's first
// generation. Run under -race it also checks the memo's locking.
func TestDeterministicGeneration(t *testing.T) {
	seeds := []uint64{7, 8}
	first := map[uint64]*Project{}
	for _, seed := range seeds {
		p, err := Generate("SMO", seed)
		if err != nil {
			t.Fatal(err)
		}
		first[seed] = p
	}
	interleaved := []uint64{7, 8, 7, 8, 7, 8}
	got := make([]*Project, len(interleaved))
	errs := make([]error, len(interleaved))
	var wg sync.WaitGroup
	for i, seed := range interleaved {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Generate("SMO", seed)
		}()
	}
	wg.Wait()
	for i, seed := range interleaved {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, p := first[seed], got[i]
		if len(p.Files) != len(want.Files) {
			t.Fatalf("seed %d: %d files, first generation had %d", seed, len(p.Files), len(want.Files))
		}
		for j := range p.Files {
			if p.Files[j] != want.Files[j] {
				t.Fatalf("seed %d: file %s differs from the first generation", seed, want.Files[j].Path)
			}
		}
	}
	coresDiffer := false
	for i := 0; i < coreClasses; i++ {
		if first[7].Files[i].Source != first[8].Files[i].Source {
			coresDiffer = true
			break
		}
	}
	if !coresDiffer {
		t.Error("seeds 7 and 8 generated the same core")
	}
	// Each Project owns its Files slice: a caller's write stays its own.
	got[0].Files[0].Source = ""
	again, err := Generate("SMO", 7)
	if err != nil {
		t.Fatal(err)
	}
	if again.Files[0] != first[7].Files[0] {
		t.Error("a write to one project's core file reached a later generation")
	}
}

// tableII is the paper's Table II, used as shape targets.
var tableII = map[string]jmetrics.Metrics{
	"J48":          {Dependencies: 684, Attributes: 3263, Methods: 7746, Packages: 41, LOC: 101172},
	"RandomTree":   {Dependencies: 668, Attributes: 3235, Methods: 7611, Packages: 41, LOC: 99938},
	"RandomForest": {Dependencies: 673, Attributes: 3270, Methods: 7736, Packages: 42, LOC: 101812},
	"REPTree":      {Dependencies: 668, Attributes: 3235, Methods: 7619, Packages: 41, LOC: 100074},
	"NaiveBayes":   {Dependencies: 668, Attributes: 3229, Methods: 7582, Packages: 40, LOC: 99221},
	"Logistic":     {Dependencies: 666, Attributes: 3216, Methods: 7553, Packages: 40, LOC: 98812},
	"SMO":          {Dependencies: 677, Attributes: 3305, Methods: 7796, Packages: 43, LOC: 102250},
	"SGD":          {Dependencies: 669, Attributes: 3222, Methods: 7585, Packages: 40, LOC: 99304},
	"KStar":        {Dependencies: 671, Attributes: 3282, Methods: 7576, Packages: 41, LOC: 99421},
	"IBk":          {Dependencies: 671, Attributes: 3268, Methods: 7703, Packages: 41, LOC: 100339},
}

func TestMetricsMatchTableIIShape(t *testing.T) {
	for name, p := range projects(t) {
		files, err := p.Parse()
		if err != nil {
			t.Fatal(err)
		}
		srcs := make([]jmetrics.SourceFile, len(files))
		for i := range files {
			srcs[i] = jmetrics.SourceFile{AST: files[i], Source: p.Files[i].Source}
		}
		proj := jmetrics.NewProject(srcs)
		m, err := proj.Measure(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := tableII[name]
		check := func(metric string, got, target, tolPct float64) {
			if math.Abs(got-target)/target*100 > tolPct {
				t.Errorf("%s %s = %.0f, Table II reports %.0f (tolerance %.0f%%)",
					name, metric, got, target, tolPct)
			}
		}
		check("dependencies", float64(m.Dependencies), float64(want.Dependencies), 3)
		check("attributes", float64(m.Attributes), float64(want.Attributes), 10)
		check("methods", float64(m.Methods), float64(want.Methods), 10)
		check("packages", float64(m.Packages), float64(want.Packages), 10)
		check("LOC", float64(m.LOC), float64(want.LOC), 15)
		t.Logf("%-12s deps=%d attrs=%d methods=%d pkgs=%d loc=%d",
			name, m.Dependencies, m.Attributes, m.Methods, m.Packages, m.LOC)
	}
}

// tableIVChanges is the paper's Table IV "Changes" column.
var tableIVChanges = map[string]int{
	"J48": 877, "RandomTree": 709, "RandomForest": 719, "REPTree": 723,
	"NaiveBayes": 711, "Logistic": 711, "SMO": 713, "SGD": 713,
	"KStar": 711, "IBk": 711,
}

func TestRefactorChangeCountsMatchTableIVShape(t *testing.T) {
	for name, p := range projects(t) {
		files, err := p.Parse()
		if err != nil {
			t.Fatal(err)
		}
		res := passes.ApplyFixes(files, passes.AnalyzeFiles(files))
		want := tableIVChanges[name]
		if math.Abs(float64(res.Changes-want))/float64(want)*100 > 25 {
			t.Errorf("%s changes = %d, Table IV reports %d", name, res.Changes, want)
		}
		t.Logf("%-12s changes=%d (paper %d) byRule=%v", name, res.Changes, want, res.ByRule)
		// Refactored corpus must still parse and load.
		for i, f := range files {
			if _, err := parser.Parse(p.Files[i].Path, ast.Print(f)); err != nil {
				t.Fatalf("%s: refactored %s does not re-parse: %v", name, p.Files[i].Path, err)
			}
		}
		if _, err := interp.Load(files...); err != nil {
			t.Fatalf("%s: refactored corpus does not load: %v", name, err)
		}
	}
}

// runKernel executes a classifier's kernel over synthetic data and returns
// the checksum and consumed package energy.
func runKernel(t *testing.T, files []*ast.File, name string, reps int) (float64, energy.Joules) {
	t.Helper()
	prog, err := interp.Load(files...)
	if err != nil {
		t.Fatalf("%s kernel load: %v", name, err)
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(interp.DefaultMaxOps))
	if err := in.InitStatics(); err != nil {
		t.Fatal(err)
	}
	const n, f = 64, 7
	data := make([][]float64, n)
	labels := make([]int64, n)
	for i := range data {
		data[i] = make([]float64, f)
		for j := range data[i] {
			data[i][j] = float64((i*31+j*17)%97) / 97
		}
		labels[i] = int64(i % 2)
	}
	kc := KernelClass(name)
	if err := in.Bind(kc, "DATA", in.NewDoubleMatrix(data)); err != nil {
		t.Fatal(err)
	}
	if err := in.Bind(kc, "LABELS", in.NewIntArray(labels)); err != nil {
		t.Fatal(err)
	}
	before := in.Meter().Snapshot()
	v, err := in.CallStatic(kc, "run", interp.IntVal(int64(reps)))
	if err != nil {
		t.Fatalf("%s kernel run: %v", name, err)
	}
	return v.AsF64(), in.Meter().Snapshot().Sub(before).Package
}

// kernelFiles parses just the kernel file of a project.
func kernelFiles(t *testing.T, name string) []*ast.File {
	t.Helper()
	p := projects(t)[name]
	kpath := ""
	for _, f := range p.Files {
		if f.Path == pathOf("weka.classifiers."+specs[name].family, KernelClass(name)) {
			kpath = f.Path
			a, err := parser.Parse(kpath, f.Source)
			if err != nil {
				t.Fatal(err)
			}
			return []*ast.File{a}
		}
	}
	t.Fatalf("kernel for %s not found", name)
	return nil
}

func TestKernelsExecuteAndRefactorPreservesBehaviour(t *testing.T) {
	for _, name := range Classifiers {
		base := kernelFiles(t, name)
		sum0, e0 := runKernel(t, base, name, 10)

		refd := kernelFiles(t, name)
		res := passes.ApplyFixes(refd, passes.AnalyzeFiles(refd))
		sum1, e1 := runKernel(t, refd, name, 10)

		if sum0 == 0 {
			t.Errorf("%s kernel checksum is zero — degenerate computation", name)
		}
		rel := math.Abs(sum1-sum0) / (math.Abs(sum0) + 1)
		if rel > 1e-3 {
			t.Errorf("%s refactoring drifted checksum: %.10g → %.10g (rel %.2g)",
				name, sum0, sum1, rel)
		}
		improvement := 100 * (1 - float64(e1)/float64(e0))
		t.Logf("%-12s changes=%d improvement=%+.2f%% (energy %v → %v)",
			name, res.Changes, improvement, e0, e1)
		if improvement < -1 {
			t.Errorf("%s refactoring made energy worse by %.2f%%", name, -improvement)
		}
	}
}

// The ordering the paper's Table IV reports: Random Forest improves the most,
// RandomTree/Logistic/SMO essentially not at all.
func TestKernelImprovementOrdering(t *testing.T) {
	improvement := map[string]float64{}
	for _, name := range Classifiers {
		base := kernelFiles(t, name)
		_, e0 := runKernel(t, base, name, 10)
		refd := kernelFiles(t, name)
		passes.ApplyFixes(refd, passes.AnalyzeFiles(refd))
		_, e1 := runKernel(t, refd, name, 10)
		improvement[name] = 100 * (1 - float64(e1)/float64(e0))
	}
	for name, imp := range improvement {
		fmt.Printf("kernel improvement %-12s %+.2f%%\n", name, imp)
	}
	if improvement["RandomForest"] < 8 {
		t.Errorf("RandomForest improvement = %.2f%%, want the Table IV top spot (≈14%%)",
			improvement["RandomForest"])
	}
	for _, flat := range []string{"RandomTree", "Logistic", "SMO"} {
		if math.Abs(improvement[flat]) > 2 {
			t.Errorf("%s improvement = %.2f%%, want ≈0 as in Table IV", flat, improvement[flat])
		}
	}
	for _, mid := range []string{"J48", "REPTree", "NaiveBayes", "SGD", "KStar", "IBk"} {
		if improvement[mid] < 1 {
			t.Errorf("%s improvement = %.2f%%, want a clear positive mid-range value", mid, improvement[mid])
		}
		if improvement[mid] > improvement["RandomForest"] {
			t.Errorf("%s improvement %.2f%% exceeds RandomForest's %.2f%% — ordering broken",
				mid, improvement[mid], improvement["RandomForest"])
		}
	}
}

func TestHasKernel(t *testing.T) {
	for _, c := range Classifiers {
		if !HasKernel(c) {
			t.Errorf("%s missing kernel", c)
		}
	}
	if HasKernel("ZeroR") {
		t.Error("unexpected kernel")
	}
}
