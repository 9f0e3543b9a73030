// Package jepo_test holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation:
//
//	BenchmarkTable1/*   — the component energy pairs behind Table I
//	BenchmarkTable2     — per-classifier WEKA metrics (Table II)
//	BenchmarkTable3     — airlines data generation (Table III)
//	BenchmarkTable4/*   — per-classifier kernel, original vs JEPO-refactored
//	BenchmarkFig2_...   — the dynamic suggestion view
//	BenchmarkFig4_...   — the method-granularity profiler
//	BenchmarkFig5_...   — the optimizer view over a whole corpus file
//	BenchmarkClassifiers/* — the WEKA substrate itself
//
// Each Table IV benchmark reports the simulated package energy per run as
// the custom metric "µJ/op" next to wall time, and its */Refactored variant
// shows the improvement the paper's Table IV reports. Shapes — who wins and
// by roughly what factor — are asserted in the test suite; the benchmarks
// exist to regenerate the numbers.
package jepo_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jepo/internal/airlines"
	"jepo/internal/classify"
	"jepo/internal/classify/eval"
	"jepo/internal/core"
	"jepo/internal/corpus"
	"jepo/internal/energy"
	"jepo/internal/jmetrics"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/passes"
	"jepo/internal/tables"
)

const benchSeed = 20200518

// --- Table I ---

// benchProgram measures one mini-Java program variant, reporting simulated
// package energy per iteration.
func benchProgram(b *testing.B, src string) {
	b.Helper()
	f, err := parser.Parse("bench.java", src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := interp.Load(f)
	if err != nil {
		b.Fatal(err)
	}
	var total energy.Joules
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(200_000_000))
		if err := in.InitStatics(); err != nil {
			b.Fatal(err)
		}
		if _, err := in.CallStatic("B", "f"); err != nil {
			b.Fatal(err)
		}
		total += in.Meter().Snapshot().Package
	}
	b.ReportMetric(total.Microjoules()/float64(b.N), "µJ/op")
}

func BenchmarkTable1(b *testing.B) {
	pairs := []struct {
		name       string
		slow, fast string
	}{
		{"PrimitiveTypes", benchSrcDouble, benchSrcInt},
		{"Modulus", benchSrcMod, benchSrcMul},
		{"Static", benchSrcStatic, benchSrcLocal},
		{"Ternary", benchSrcTernary, benchSrcIfElse},
		{"Concat", benchSrcConcat, benchSrcBuilder},
		{"CompareTo", benchSrcCompareTo, benchSrcEquals},
		{"Arraycopy", benchSrcManualCopy, benchSrcArraycopy},
		{"Traversal", benchSrcColumn, benchSrcRow},
	}
	for _, p := range pairs {
		b.Run(p.name+"/Inefficient", func(b *testing.B) { benchProgram(b, p.slow) })
		b.Run(p.name+"/Efficient", func(b *testing.B) { benchProgram(b, p.fast) })
	}
}

const (
	benchSrcDouble = `class B { static double f() { double s = 0.0; for (int i = 0; i < 5000; i++) { s = s + i; } return s; } }`
	benchSrcInt    = `class B { static double f() { int s = 0; for (int i = 0; i < 5000; i++) { s = s + i; } return s; } }`

	benchSrcMod = `class B { static double f() { int s = 0; for (int i = 1; i < 5000; i++) { s += i % 7; } return s; } }`
	benchSrcMul = `class B { static double f() { int s = 0; for (int i = 1; i < 5000; i++) { s += i * 7; } return s; } }`

	benchSrcStatic = `class B { static int acc; static double f() { for (int i = 0; i < 5000; i++) { acc += i; } return acc; } }`
	benchSrcLocal  = `class B { static double f() { int acc = 0; for (int i = 0; i < 5000; i++) { acc += i; } return acc; } }`

	benchSrcTernary = `class B { static double f() { int s = 0; for (int i = 0; i < 5000; i++) { s += i > 2500 ? 2 : 1; } return s; } }`
	benchSrcIfElse  = `class B { static double f() { int s = 0; for (int i = 0; i < 5000; i++) { if (i > 2500) { s += 2; } else { s += 1; } } return s; } }`

	benchSrcConcat  = `class B { static double f() { String s = ""; for (int i = 0; i < 200; i++) { s = s + "x"; } return s.length(); } }`
	benchSrcBuilder = `class B { static double f() { StringBuilder sb = new StringBuilder(); for (int i = 0; i < 200; i++) { sb.append("x"); } return sb.toString().length(); } }`

	benchSrcCompareTo = `class B { static double f() { String a = "airlinesData"; String b = "airlinesData"; int s = 0; for (int i = 0; i < 2000; i++) { if (a.compareTo(b) == 0) { s++; } } return s; } }`
	benchSrcEquals    = `class B { static double f() { String a = "airlinesData"; String b = "airlinesData"; int s = 0; for (int i = 0; i < 2000; i++) { if (a.equals(b)) { s++; } } return s; } }`

	benchSrcManualCopy = `class B { static double f() { int[] a = new int[3000]; int[] b = new int[3000]; for (int i = 0; i < 3000; i++) { b[i] = a[i]; } return b[2999]; } }`
	benchSrcArraycopy  = `class B { static double f() { int[] a = new int[3000]; int[] b = new int[3000]; System.arraycopy(a, 0, b, 0, 3000); return b[2999]; } }`

	benchSrcColumn = `class B { static double f() { int[][] m = new int[600][600]; int s = 0; for (int j = 0; j < 600; j++) { for (int i = 0; i < 600; i++) { s += m[i][j]; } } return s; } }`
	benchSrcRow    = `class B { static double f() { int[][] m = new int[600][600]; int s = 0; for (int i = 0; i < 600; i++) { for (int j = 0; j < 600; j++) { s += m[i][j]; } } return s; } }`
)

// --- Table II ---

func BenchmarkTable2_MetricsJ48(b *testing.B) {
	p, err := corpus.Generate("J48", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	files, err := p.Parse()
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]jmetrics.SourceFile, len(files))
	for i := range files {
		srcs[i] = jmetrics.SourceFile{AST: files[i], Source: p.Files[i].Source}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj := jmetrics.NewProject(srcs)
		m, err := proj.Measure("J48")
		if err != nil {
			b.Fatal(err)
		}
		if m.Dependencies == 0 {
			b.Fatal("empty closure")
		}
	}
}

// --- Table III ---

func BenchmarkTable3_Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := airlines.Generate(airlines.PaperSize, benchSeed)
		if d.NumInstances() != airlines.PaperSize {
			b.Fatal("bad size")
		}
	}
}

// --- Table IV: per-classifier kernels, original vs refactored ---

// table4KernelBench measures one kernel variant on airlines data.
func table4KernelBench(b *testing.B, name string, refactored bool) {
	b.Helper()
	proj, err := corpus.Generate(name, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	var kernel *ast.File
	for _, f := range proj.Files {
		if strings.HasSuffix(f.Path, corpus.KernelClass(name)+".java") {
			kernel, err = parser.Parse(f.Path, f.Source)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	if kernel == nil {
		b.Fatalf("kernel for %s missing", name)
	}
	if refactored {
		files := []*ast.File{kernel}
		passes.ApplyFixes(files, passes.AnalyzeFiles(files))
	}
	data := airlines.Generate(2000, benchSeed)
	feats := make([][]float64, data.NumInstances())
	labels := make([]int64, data.NumInstances())
	for i, row := range data.X {
		feats[i] = row[:7]
		labels[i] = int64(data.Class(i))
	}
	var total energy.Joules
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := interp.Load(kernel)
		if err != nil {
			b.Fatal(err)
		}
		in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(2_000_000_000))
		if err := in.InitStatics(); err != nil {
			b.Fatal(err)
		}
		kc := corpus.KernelClass(name)
		if err := in.Bind(kc, "DATA", in.NewDoubleMatrix(feats)); err != nil {
			b.Fatal(err)
		}
		if err := in.Bind(kc, "LABELS", in.NewIntArray(labels)); err != nil {
			b.Fatal(err)
		}
		if _, err := in.CallStatic(kc, "run", interp.IntVal(1)); err != nil {
			b.Fatal(err)
		}
		s := in.Meter().Snapshot()
		total += s.Package
		elapsed += s.Elapsed
	}
	b.ReportMetric(total.Microjoules()/float64(b.N), "µJ/op")
	b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "simµs/op")
}

func BenchmarkTable4(b *testing.B) {
	for _, name := range corpus.Classifiers {
		b.Run(name+"/Original", func(b *testing.B) { table4KernelBench(b, name, false) })
		b.Run(name+"/Refactored", func(b *testing.B) { table4KernelBench(b, name, true) })
	}
}

// --- Figures ---

// Fig. 2: the dynamic suggestion view while editing.
func BenchmarkFig2_DynamicSuggestions(b *testing.B) {
	p, err := corpus.Generate("J48", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	src := p.Files[0].Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sugs, err := core.SuggestProject(core.Project{p.Files[0].Path: src})
		if err != nil {
			b.Fatal(err)
		}
		if core.DynamicView(sugs, 20) == "" {
			b.Fatal("empty view")
		}
	}
}

// Fig. 4: the method-granularity profiler over an instrumented run.
func BenchmarkFig4_Profiler(b *testing.B) {
	project := core.Project{"Hot.java": `
		class Hot {
			static int work(int n) {
				int s = 0;
				for (int i = 0; i < n; i++) { s += i % 7; }
				return s;
			}
			public static void main(String[] args) {
				System.out.println(work(3000));
			}
		}`}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Profile(context.Background(), project, core.ProfileConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Profiler.Records()) != 2 {
			b.Fatal("unexpected record count")
		}
	}
}

// Fig. 5: the optimizer view over a whole project.
func BenchmarkFig5_OptimizerView(b *testing.B) {
	p, err := corpus.Generate("IBk", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	// A slice of the corpus keeps the benchmark meaningful but quick.
	files := make([]*ast.File, 0, 40)
	for i := 0; i < 40; i++ {
		f, err := parser.Parse(p.Files[i].Path, p.Files[i].Source)
		if err != nil {
			b.Fatal(err)
		}
		files = append(files, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sugs := passes.AnalyzeFiles(files)
		if len(sugs) == 0 {
			b.Fatal("no suggestions in seeded corpus")
		}
		_ = core.OptimizerView(sugs)
	}
}

// BenchmarkAblation measures the Random Forest kernel under each cost-model
// variant, regenerating the ablation study.
func BenchmarkAblation(b *testing.B) {
	cfg := tables.AblationConfig{Seed: benchSeed, Classifier: "RandomForest", Instances: 300, Reps: 2}
	for i := 0; i < b.N; i++ {
		rows, err := tables.Ablate(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no ablation rows")
		}
	}
}

// --- the WEKA substrate itself ---

func BenchmarkClassifiers(b *testing.B) {
	data := airlines.Generate(800, benchSeed)
	for _, name := range corpus.Classifiers {
		factory, err := tables.Factory(name, classify.Options{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := eval.CrossValidate(data, 3, benchSeed, factory)
				if err != nil {
					b.Fatal(err)
				}
				if res.Total == 0 {
					b.Fatal("empty evaluation")
				}
			}
		})
	}
}

// BenchmarkInterpreter measures raw interpreter throughput, the substrate
// every energy number in this repository flows through.
func BenchmarkInterpreter(b *testing.B) {
	src := `class B { static int f(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s += i * 3 - (i >> 1); }
		return s;
	} }`
	f, err := parser.Parse("b.java", src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := interp.Load(f)
	if err != nil {
		b.Fatal(err)
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CallStatic("B", "f", interp.IntVal(10000)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- interpreter hot-path micro-benchmarks ---
//
// Locals, Calls and Recursion isolate the costs the slot-resolved
// interpreter attacks: identifier resolution (locals vs fields vs statics),
// call dispatch, and per-invoke allocation. allocs/op is the headline metric
// for them — frame and argument pooling should hold it near zero once the
// pools warm. MixedArith times the arithmetic the int lanes do not take.

// benchInterpCall loads src once and measures repeated CallStatic invocations
// of B.f on a single interpreter, so pools and call-site caches stay warm
// across iterations exactly as they do inside one simulated measurement run.
func benchInterpCall(b *testing.B, src string, args ...interp.Value) {
	b.Helper()
	f, err := parser.Parse("micro.java", src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := interp.Load(f)
	if err != nil {
		b.Fatal(err)
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(2_000_000_000))
	if err := in.InitStatics(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CallStatic("B", "f", args...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpLocals is identifier-heavy straight-line code: every
// iteration of the loop touches several locals and an instance field.
func BenchmarkInterpLocals(b *testing.B) {
	benchInterpCall(b, `class B {
		int acc;
		static double f() {
			B o = new B();
			int a = 1; int c = 2; int d = 3; int e = 4;
			for (int i = 0; i < 2000; i++) {
				int tmp = a + c;
				o.acc = o.acc + tmp - d + e - c;
				a = tmp - e;
			}
			return o.acc + a;
		}
	}`)
}

// BenchmarkInterpCalls is call-dispatch-heavy: a tight loop of static and
// instance method invocations with arguments.
func BenchmarkInterpCalls(b *testing.B) {
	benchInterpCall(b, `class B {
		int bias;
		int step(int x) { return x + bias; }
		static int twice(int x) { return x + x; }
		static double f() {
			B o = new B();
			o.bias = 3;
			int s = 0;
			for (int i = 0; i < 1000; i++) {
				s += o.step(twice(i)) + twice(o.step(i));
			}
			return s;
		}
	}`)
}

// BenchmarkInterpRecursion stresses frame setup/teardown with deep recursion,
// the worst case for per-invoke allocation.
func BenchmarkInterpRecursion(b *testing.B) {
	benchInterpCall(b, `class B {
		static int fib(int n) {
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		static double f() { return fib(17); }
	}`)
}

// BenchmarkInterpStaticAndBuiltin is the call and select shapes that resolve
// through the load-time site table and take none of the VM's self, virtual
// or object lanes: a static call on a class name, a builtin static call, a
// static field, an array length and a builtin instance call.
func BenchmarkInterpStaticAndBuiltin(b *testing.B) {
	benchInterpCall(b, `class B {
		static int k = 2;
		static int twice(int x) { return x + x; }
		static double f() {
			int[] a = new int[4];
			StringBuilder sb = new StringBuilder();
			int s = 0;
			for (int i = 0; i < 1000; i++) {
				s += B.twice(i) + Math.max(i, 3) + B.k + a.length;
				sb.append('x');
			}
			return s;
		}
	}`)
}

// BenchmarkInterpMixedArith is non-int arithmetic: double, long and float
// operators and int operands mixed into them, none of which the VM's int
// lanes take, so every operator runs the interpreter's one binary path.
func BenchmarkInterpMixedArith(b *testing.B) {
	benchInterpCall(b, `class B {
		static double f() {
			double s = 0.0; long h = 7L; float g = 1.0f; int k = 3;
			for (int i = 0; i < 2000; i++) {
				s = s + i * 0.5;
				h = h * 31 + i;
				g = g * 0.5f + k;
				s = s - h % 7 + g / 2;
			}
			return s;
		}
	}`)
}

// A tiny sanity check so `go test .` is meaningful at the repo root too.
func TestBenchHarnessSmoke(t *testing.T) {
	rows, _, err := tables.Table1Jobs(context.Background(), interp.EngineVM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != passes.NumTableIRules {
		t.Fatalf("Table I rows = %d", len(rows))
	}
	out := fmt.Sprintf("%v", rows[0])
	if out == "" {
		t.Fatal("empty row")
	}
}
