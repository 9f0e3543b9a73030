package profile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/rapl"
)

const demoSrc = `
package weka.demo;

class Work {
	static int hot() {
		int s = 0;
		for (int i = 0; i < 3000; i++) { s += i % 7; }
		return s;
	}
	static int cold() {
		return 42;
	}
	public static void main(String[] args) {
		int a = hot();
		int b = cold();
		int c = cold();
		System.out.println(a + b + c);
	}
}
`

// setupProfiledRun instruments demoSrc, runs it, and returns the profiler.
func setupProfiledRun(t *testing.T) *Profiler {
	t.Helper()
	f, err := parser.Parse("Work.java", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	n := instrument.Inject(f)
	if n != 3 {
		t.Fatalf("instrumented %d methods, want 3", n)
	}
	prog, err := interp.Load(f)
	if err != nil {
		t.Fatalf("instrumented program fails to load: %v\n%s", err, ast.Print(f))
	}
	meter := energy.NewMeter(energy.DefaultCosts())
	src := rapl.NewSimSource(meter)
	prof := New(src, func() time.Duration { return meter.Snapshot().Elapsed })
	in := interp.New(prog, meter, interp.WithHook(prof), interp.WithMaxOps(50_000_000))
	if err := in.RunMain("Work"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := prof.Err(); err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestProfilerRecordsPerExecution(t *testing.T) {
	prof := setupProfiledRun(t)
	recs := prof.Records()
	// hot ×1, cold ×2, main ×1.
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	bySeq := map[string][]int{}
	for _, r := range recs {
		bySeq[r.Method] = append(bySeq[r.Method], r.Seq)
	}
	if got := bySeq["weka.demo.Work.cold"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("cold executions = %v, want [1 2]", got)
	}
	for _, r := range recs {
		// The RAPL energy unit is ~15.3 µJ; a trivial method can genuinely
		// read as zero counts, exactly as on hardware. Negative is a bug.
		if r.Package < 0 {
			t.Errorf("%s exec %d has negative package energy %v", r.Method, r.Seq, r.Package)
		}
		if r.Method == "weka.demo.Work.hot" && r.Package <= 0 {
			t.Errorf("hot method read zero energy %v", r.Package)
		}
	}
}

func TestProfilerFindsEnergyHungryMethod(t *testing.T) {
	prof := setupProfiledRun(t)
	sums := prof.Summaries()
	if len(sums) != 3 {
		t.Fatalf("summaries = %d, want 3", len(sums))
	}
	byName := map[string]Summary{}
	for _, s := range sums {
		byName[s.Method] = s
	}
	main, hot, cold := byName["weka.demo.Work.main"], byName["weka.demo.Work.hot"], byName["weka.demo.Work.cold"]
	// main is inclusive of hot, up to one RAPL count of quantization.
	unit := energy.Joules(1.0 / 65536.0)
	if main.Package+unit < hot.Package {
		t.Errorf("main inclusive (%v) below hot (%v)", main.Package, hot.Package)
	}
	// The energy-hungry method must dwarf the trivial one.
	if float64(hot.Package) < 10*(float64(cold.Package)+float64(unit)) {
		t.Errorf("hot (%v) must dwarf cold (%v)", hot.Package, cold.Package)
	}
	// The two heaviest rows must be main and hot, in either order.
	top2 := map[string]bool{sums[0].Method: true, sums[1].Method: true}
	if !top2["weka.demo.Work.main"] || !top2["weka.demo.Work.hot"] {
		t.Errorf("top-2 methods = %s, %s", sums[0].Method, sums[1].Method)
	}
}

func TestProfilerViewAndResultTxt(t *testing.T) {
	prof := setupProfiledRun(t)
	view := prof.View()
	for _, want := range []string{"Method", "weka.demo.Work.hot", "Package"} {
		if !strings.Contains(view, want) {
			t.Errorf("view missing %q:\n%s", want, view)
		}
	}
	path := filepath.Join(t.TempDir(), "result.txt")
	if err := prof.WriteResultTxt(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 { // header + 4 executions
		t.Errorf("result.txt lines = %d, want 5:\n%s", len(lines), data)
	}
}

func TestProfilerSurvivesExceptions(t *testing.T) {
	src := `class T {
		static int boom() { throw new RuntimeException("x"); }
		static int f() {
			try { return boom(); } catch (RuntimeException e) { return 7; }
		}
	}`
	f, _ := parser.Parse("T.java", src)
	instrument.Inject(f)
	prog, err := interp.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	meter := energy.NewMeter(energy.DefaultCosts())
	prof := New(rapl.NewSimSource(meter), func() time.Duration { return meter.Snapshot().Elapsed })
	in := interp.New(prog, meter, interp.WithHook(prof))
	v, err := in.CallStatic("T", "f")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 7 {
		t.Errorf("result = %d", v.I)
	}
	if err := prof.Err(); err != nil {
		t.Fatalf("probe stack corrupted by exception: %v", err)
	}
	// boom's exit probe must still have fired (finally semantics).
	found := false
	for _, r := range prof.Records() {
		if r.Method == "T.boom" {
			found = true
		}
	}
	if !found {
		t.Error("no record for method that threw — finally probe missing")
	}
}

func TestProfilerMismatchDetection(t *testing.T) {
	meter := energy.NewMeter(energy.DefaultCosts())
	prof := New(rapl.NewSimSource(meter), func() time.Duration { return 0 })
	prof.Exit("never.entered")
	if prof.Err() == nil {
		t.Error("exit without enter must set an error")
	}
	prof2 := New(rapl.NewSimSource(meter), func() time.Duration { return 0 })
	prof2.Enter("a")
	prof2.Exit("b")
	if prof2.Err() == nil {
		t.Error("mismatched exit must set an error")
	}
}

func TestIsInstrumentedAndMainClasses(t *testing.T) {
	f, _ := parser.Parse("T.java", demoSrc)
	m := f.Classes[0].Methods[0]
	if m.Probe != "" {
		t.Errorf("fresh method carries probe label %q", m.Probe)
	}
	body := ast.Print(f)
	instrument.Inject(f)
	if want := "weka.demo.Work.hot"; m.Probe != want {
		t.Errorf("probe label = %q, want %q", m.Probe, want)
	}
	if ast.Print(f) != body {
		t.Error("Inject rewrote a method body; it must only label methods")
	}
}

// failingSource errors after N successful reads, simulating a permission
// loss on /dev/cpu/*/msr mid-run.
type failingSource struct {
	inner rapl.Source
	after int
	reads int
}

func (f *failingSource) Snapshot() (rapl.Snapshot, error) {
	f.reads++
	if f.reads > f.after {
		return rapl.Snapshot{}, errFail
	}
	return f.inner.Snapshot()
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "msr read failed" }

func TestProfilerSurfacesCounterFailures(t *testing.T) {
	meter := energy.NewMeter(energy.DefaultCosts())
	src := &failingSource{inner: rapl.NewSimSource(meter), after: 1}
	prof := New(src, func() time.Duration { return 0 })
	prof.Enter("a") // read 1: ok
	prof.Exit("a")  // read 2: fails
	if prof.Err() == nil {
		t.Fatal("counter failure not surfaced")
	}
	if !strings.Contains(prof.Err().Error(), "msr read failed") {
		t.Errorf("error %q does not carry the cause", prof.Err())
	}
	// Failure at enter is also surfaced.
	src2 := &failingSource{inner: rapl.NewSimSource(meter), after: 0}
	prof2 := New(src2, func() time.Duration { return 0 })
	prof2.Enter("a")
	if prof2.Err() == nil {
		t.Fatal("enter-time failure not surfaced")
	}
}
