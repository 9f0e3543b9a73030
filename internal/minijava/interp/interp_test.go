package interp

import (
	"strings"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/parser"
)

// runProgram parses and loads src, runs static method class.method with no
// args, and returns (result, interp).
func runProgram(t *testing.T, src, class, method string) (Value, *Interp) {
	t.Helper()
	f, err := parser.Parse("test.java", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(50_000_000))
	v, err := in.CallStatic(class, method)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, in
}

func evalInt(t *testing.T, body string) int64 {
	t.Helper()
	v, _ := runProgram(t, "class T { static int f() { "+body+" } }", "T", "f")
	if v.K != KInt {
		t.Fatalf("result kind = %v, want int", v.K)
	}
	return v.I
}

func evalDouble(t *testing.T, body string) float64 {
	t.Helper()
	v, _ := runProgram(t, "class T { static double f() { "+body+" } }", "T", "f")
	if v.K != KDouble {
		t.Fatalf("result kind = %v, want double", v.K)
	}
	return v.D
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		body string
		want int64
	}{
		{"return 2 + 3 * 4;", 14},
		{"return (2 + 3) * 4;", 20},
		{"return 17 % 5;", 2},
		{"return -17 % 5;", -2}, // Java remainder keeps dividend sign
		{"return 17 / 5;", 3},
		{"return -17 / 5;", -3},
		{"return 1 << 10;", 1024},
		{"return 1024 >> 3;", 128},
		{"return 12 & 10;", 8},
		{"return 12 | 10;", 14},
		{"return 12 ^ 10;", 6},
		{"return -5;", -5},
		{"int x = 2147483647; return x + 1;", -2147483648}, // int overflow wraps
		{"byte b = (byte) 200; return b;", -56},            // byte wraps
		{"short s = (short) 70000; return s;", 4464},
		{"char c = 'A'; return c + 1;", 66},
		{"return 'b' - 'a';", 1},
	}
	for _, c := range cases {
		if got := evalInt(t, c.body); got != c.want {
			t.Errorf("%q = %d, want %d", c.body, got, c.want)
		}
	}
}

func TestFloatingPoint(t *testing.T) {
	if got := evalDouble(t, "return 1.0 / 4.0;"); got != 0.25 {
		t.Errorf("1.0/4.0 = %v", got)
	}
	if got := evalDouble(t, "return 7.5 % 2.0;"); got != 1.5 {
		t.Errorf("7.5 %% 2.0 = %v", got)
	}
	if got := evalDouble(t, "double d = 1e-3; return d * 1000.0;"); got != 1.0 {
		t.Errorf("1e-3*1000 = %v", got)
	}
	// float arithmetic rounds through 32 bits.
	v, _ := runProgram(t, `class T { static boolean f() {
		float a = 0.1f;
		double d = 0.1;
		return a == d;
	} }`, "T", "f")
	if v.Bool() {
		t.Error("float 0.1f must differ from double 0.1 after promotion")
	}
	// double division by zero yields infinity, not an exception.
	if got := evalDouble(t, "double z = 0.0; return 1.0 / z;"); got <= 1e300 {
		t.Errorf("1.0/0.0 = %v, want +Inf", got)
	}
}

func TestControlFlow(t *testing.T) {
	body := `
		int s = 0;
		for (int i = 0; i < 10; i++) {
			if (i % 2 == 0) continue;
			s += i;
		}
		int j = 0;
		while (true) {
			j++;
			if (j >= 5) break;
		}
		return s * 100 + j;`
	if got := evalInt(t, body); got != 2505 {
		t.Errorf("control flow = %d, want 2505", got)
	}
}

func TestTernaryAndShortCircuit(t *testing.T) {
	if got := evalInt(t, "int a = 5; return a > 3 ? 1 : 2;"); got != 1 {
		t.Errorf("ternary = %d", got)
	}
	// Short circuit must not evaluate the right side.
	src := `class T {
		static int calls = 0;
		static boolean bump() { calls++; return true; }
		static int f() {
			boolean b = false && bump();
			boolean c = true || bump();
			return calls;
		}
	}`
	v, _ := runProgram(t, src, "T", "f")
	if v.I != 0 {
		t.Errorf("short-circuit evaluated rhs %d times", v.I)
	}
}

func TestStringsAndStringBuilder(t *testing.T) {
	src := `class T {
		static String f() {
			String a = "foo";
			String b = "bar";
			String c = a + "-" + b + 42 + true;
			StringBuilder sb = new StringBuilder();
			sb.append(c).append("!").append(1.5);
			return sb.toString();
		}
		static int g() {
			String a = "apple";
			String b = "apples";
			int r = 0;
			if (a.equals("apple")) r += 1;
			if (!a.equals(b)) r += 2;
			if (a.compareTo(b) < 0) r += 4;
			if ("b".compareTo("a") > 0) r += 8;
			if (a.length() == 5) r += 16;
			if (a.charAt(1) == 'p') r += 32;
			if (a.substring(1, 3).equals("pp")) r += 64;
			return r;
		}
	}`
	v, _ := runProgram(t, src, "T", "f")
	if got := v.Str(); got != "foo-bar42true!1.5" {
		t.Errorf("string ops = %q", got)
	}
	v2, _ := runProgram(t, src, "T", "g")
	if v2.I != 127 {
		t.Errorf("string predicates = %d, want 127", v2.I)
	}
}

func TestArrays(t *testing.T) {
	src := `class T {
		static int f() {
			int[] a = new int[10];
			for (int i = 0; i < a.length; i++) a[i] = i * i;
			int[] b = new int[10];
			System.arraycopy(a, 0, b, 0, 10);
			int[][] m = new int[3][4];
			m[2][3] = 7;
			int[] lit = {10, 20, 30};
			return b[9] + m[2][3] + lit[1];
		}
	}`
	v, _ := runProgram(t, src, "T", "f")
	if v.I != 81+7+20 {
		t.Errorf("arrays = %d, want 108", v.I)
	}
}

func TestObjectsAndInheritance(t *testing.T) {
	src := `class Animal {
		String name;
		int legs = 4;
		Animal(String n) { this.name = n; }
		String speak() { return "..."; }
		String describe() { return name + " says " + speak(); }
	}
	class Dog extends Animal {
		Dog(String n) { this.name = n; }
		String speak() { return "woof"; }
	}
	class Main {
		static String f() {
			Animal a = new Dog("Rex");
			return a.describe() + "/" + a.legs;
		}
	}`
	v, _ := runProgram(t, src, "Main", "f")
	if got := v.Str(); got != "Rex says woof/4" {
		t.Errorf("virtual dispatch = %q", got)
	}
}

func TestStaticFieldsAndMethods(t *testing.T) {
	src := `class Counter {
		static int count = 100;
		static int next() { count++; return count; }
	}
	class Main {
		static int f() {
			Counter.next();
			Counter.next();
			return Counter.count;
		}
	}`
	v, _ := runProgram(t, src, "Main", "f")
	if v.I != 102 {
		t.Errorf("static field = %d, want 102", v.I)
	}
}

func TestExceptions(t *testing.T) {
	src := `class T {
		static int f() {
			int r = 0;
			try {
				int z = 0;
				int q = 5 / z;
				r = 999;
			} catch (ArithmeticException e) {
				r = 1;
			} finally {
				r += 10;
			}
			try {
				int[] a = new int[2];
				a[5] = 1;
			} catch (ArrayIndexOutOfBoundsException e) {
				r += 100;
			}
			try {
				throw new IllegalStateException("boom");
			} catch (RuntimeException e) {
				if (e.getMessage().equals("boom")) r += 1000;
			}
			return r;
		}
		static int g() {
			try {
				throw new Exception("outer");
			} catch (ArithmeticException e) {
				return 1;
			}
		}
	}`
	v, _ := runProgram(t, src, "T", "f")
	if v.I != 1111 {
		t.Errorf("exceptions = %d, want 1111", v.I)
	}
	// Uncaught exception surfaces as an error.
	f, _ := parser.Parse("t.java", src)
	prog, _ := Load(f)
	in := New(prog, energy.NewMeter(energy.DefaultCosts()))
	if _, err := in.CallStatic("T", "g"); err == nil {
		t.Error("uncaught exception must return an error")
	} else if !strings.Contains(err.Error(), "outer") {
		t.Errorf("error %q missing message", err)
	}
}

func TestNullPointerAndCasts(t *testing.T) {
	src := `class P { int x; }
	class T {
		static int f() {
			int r = 0;
			P p = null;
			try { r = p.x; } catch (NullPointerException e) { r = 1; }
			double d = 3.99;
			int i = (int) d;
			r += i * 10;
			long big = 5000000000L;
			int trunc = (int) big;
			if (trunc != 5000000000L) r += 100;
			return r;
		}
	}`
	v, _ := runProgram(t, src, "T", "f")
	if v.I != 131 {
		t.Errorf("null/casts = %d, want 131", v.I)
	}
}

func TestWrappersAndBoxing(t *testing.T) {
	src := `class T {
		static int f() {
			Integer a = Integer.valueOf(5);
			Integer b = 7;
			int c = a + b;
			Double d = 2.5;
			double e = d * 2.0;
			Integer big = Integer.valueOf(1000);
			return c + (int) e + big.intValue();
		}
	}`
	v, in := runProgram(t, src, "T", "f")
	if v.I != 12+5+1000 {
		t.Errorf("boxing = %d, want 1017", v.I)
	}
	if in.Meter().OpCount(energy.OpBoxCached) == 0 {
		t.Error("small Integer boxing must hit the valueOf cache")
	}
	if in.Meter().OpCount(energy.OpBoxAlloc) == 0 {
		t.Error("Integer.valueOf(1000) and Double boxing must allocate")
	}
}

func TestMathAndSystem(t *testing.T) {
	src := `class T {
		static double f() {
			double a = Math.sqrt(16.0);
			double b = Math.pow(2.0, 10.0);
			double c = Math.abs(-2.5);
			int d = Math.max(3, 9);
			long e = Math.round(2.6);
			double g = Math.floor(2.9) + Math.ceil(2.1);
			return a + b + c + d + e + g; // 4+1024+2.5+9+3+5 = 1047.5
		}
	}`
	v, _ := runProgram(t, src, "T", "f")
	if v.D != 1047.5 {
		t.Errorf("math = %v, want 1047.5", v.D)
	}
}

func TestPrintlnAndMain(t *testing.T) {
	src := `class Hello {
		public static void main(String[] args) {
			System.out.println("hello " + (1 + 2));
			System.out.print("x");
			System.out.println();
		}
	}`
	f, err := parser.Parse("hello.java", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, energy.NewMeter(energy.DefaultCosts()))
	if err := in.RunMain(""); err != nil {
		t.Fatal(err)
	}
	if got := in.Output(); got != "hello 3\nx\n" {
		t.Errorf("output = %q", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `class T {
		static int fib(int n) {
			if (n < 2) return n;
			return fib(n - 1) + fib(n - 2);
		}
		static int f() { return fib(15); }
	}`
	v, _ := runProgram(t, src, "T", "f")
	if v.I != 610 {
		t.Errorf("fib(15) = %d, want 610", v.I)
	}
}

func TestInstanceOf(t *testing.T) {
	src := `class A { }
	class B extends A { }
	class T {
		static int f() {
			A x = new B();
			int r = 0;
			if (x instanceof B) r += 1;
			if (x instanceof A) r += 2;
			String s = "hi";
			if (s instanceof String) r += 4;
			return r;
		}
	}`
	v, _ := runProgram(t, src, "T", "f")
	if v.I != 7 {
		t.Errorf("instanceof = %d, want 7", v.I)
	}
}

func TestIncDecSemantics(t *testing.T) {
	body := `
		int i = 5;
		int a = i++;
		int b = ++i;
		int c = i--;
		int d = --i;
		int[] arr = new int[3];
		arr[1]++;
		return a * 1000 + b * 100 + c * 10 + d + arr[1];`
	// a=5, i=6; b=7, i=7; c=7, i=6; d=5, i=5; arr[1]=1
	if got := evalInt(t, body); got != 5000+700+70+5+1 {
		t.Errorf("inc/dec = %d, want 5776", got)
	}
}

func TestOpBudget(t *testing.T) {
	src := `class T { static int f() { while (true) { } } }`
	f, _ := parser.Parse("t.java", src)
	prog, _ := Load(f)
	in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(10_000))
	if _, err := in.CallStatic("T", "f"); err == nil {
		t.Fatal("infinite loop must trip the op budget")
	}
}

func TestBindAndHostArrays(t *testing.T) {
	src := `class Data {
		static double[][] X;
		static int n() { return X.length; }
		static double sum() {
			double s = 0.0;
			for (int i = 0; i < X.length; i++) {
				for (int j = 0; j < X[i].length; j++) {
					s += X[i][j];
				}
			}
			return s;
		}
	}`
	f, _ := parser.Parse("d.java", src)
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, energy.NewMeter(energy.DefaultCosts()))
	if err := in.Bind("Data", "X", in.NewDoubleMatrix([][]float64{{1, 2}, {3, 4.5}})); err != nil {
		t.Fatal(err)
	}
	v, err := in.CallStatic("Data", "sum")
	if err != nil {
		t.Fatal(err)
	}
	if v.D != 10.5 {
		t.Errorf("bound matrix sum = %v, want 10.5", v.D)
	}
}

func TestLoadErrors(t *testing.T) {
	parseOne := func(src string) *ast.File {
		f, err := parser.Parse("x.java", src)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if _, err := Load(parseOne(`class A { }`), parseOne(`class A { }`)); err == nil {
		t.Error("duplicate class must fail")
	}
	if _, err := Load(parseOne(`class A extends Missing { }`)); err == nil {
		t.Error("unknown superclass must fail")
	}
	if _, err := Load(parseOne(`class A extends B { } class B extends A { }`)); err == nil {
		t.Error("inheritance cycle must fail")
	}
	if _, err := Load(parseOne(`class A extends Exception { }`)); err != nil {
		t.Errorf("extending a builtin throwable must be allowed: %v", err)
	}
}

// TestMethodGranularProbes pins that both engines report a labelled
// method's entry and exit to the hook, nested in call order, and that an
// unlabelled method reports nothing.
func TestMethodGranularProbes(t *testing.T) {
	src := `class T {
		static int inner() { int r = 21 * 2; return r; }
		static int quiet() { return 0; }
		static int f() { int v = inner() + quiet(); return v; }
	}`
	for _, e := range []Engine{EngineVM, EngineAST} {
		f, _ := parser.Parse("t.java", src)
		instrument.Inject(f)
		f.Classes[0].Methods[1].Probe = ""
		prog, _ := Load(f)
		rec := &recordingHook{}
		in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithHook(rec), WithEngine(e))
		v, err := in.CallStatic("T", "f")
		if err != nil {
			t.Fatal(err)
		}
		if v.I != 42 {
			t.Errorf("%v: result = %d", e, v.I)
		}
		want := []string{"+T.f", "+T.inner", "-T.inner", "-T.f"}
		if strings.Join(rec.events, ",") != strings.Join(want, ",") {
			t.Errorf("%v: probe events = %v, want %v", e, rec.events, want)
		}
	}
}

type recordingHook struct{ events []string }

func (r *recordingHook) Enter(m string) { r.events = append(r.events, "+"+m) }
func (r *recordingHook) Exit(m string)  { r.events = append(r.events, "-"+m) }

// --- energy-model behaviour through real programs ---

func measure(t *testing.T, src, class, method string) energy.Sample {
	t.Helper()
	f, err := parser.Parse("bench.java", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(200_000_000))
	if err := in.InitStatics(); err != nil {
		t.Fatal(err)
	}
	before := in.Meter().Snapshot()
	if _, err := in.CallStatic(class, method); err != nil {
		t.Fatal(err)
	}
	return in.Meter().Snapshot().Sub(before)
}

func TestModulusCostsMoreThanMultiply(t *testing.T) {
	mod := measure(t, `class T { static int f() {
		int s = 0;
		for (int i = 1; i < 20000; i++) { s += i % 7; }
		return s;
	} }`, "T", "f")
	mul := measure(t, `class T { static int f() {
		int s = 0;
		for (int i = 1; i < 20000; i++) { s += i * 7; }
		return s;
	} }`, "T", "f")
	ratio := float64(mod.Package) / float64(mul.Package)
	if ratio < 2 {
		t.Errorf("modulus/multiply program ratio = %.2f, want substantially above 1", ratio)
	}
}

func TestStaticFieldCostsMoreThanLocal(t *testing.T) {
	static := measure(t, `class T { static int acc = 0; static int f() {
		for (int i = 0; i < 10000; i++) { acc += i; }
		return acc;
	} }`, "T", "f")
	local := measure(t, `class T { static int f() {
		int acc = 0;
		for (int i = 0; i < 10000; i++) { acc += i; }
		return acc;
	} }`, "T", "f")
	ratio := float64(static.Package) / float64(local.Package)
	if ratio < 3 {
		t.Errorf("static/local program ratio = %.2f, want well above 1", ratio)
	}
}

func TestConcatCostsMoreThanStringBuilder(t *testing.T) {
	concat := measure(t, `class T { static int f() {
		String s = "";
		for (int i = 0; i < 300; i++) { s = s + "x"; }
		return s.length();
	} }`, "T", "f")
	builder := measure(t, `class T { static int f() {
		StringBuilder sb = new StringBuilder();
		for (int i = 0; i < 300; i++) { sb.append("x"); }
		return sb.toString().length();
	} }`, "T", "f")
	if float64(concat.Package)/float64(builder.Package) < 5 {
		t.Errorf("concat/builder ratio = %.2f, want ≫1 (quadratic vs linear)",
			float64(concat.Package)/float64(builder.Package))
	}
}

func TestColumnTraversalCostsMoreThanRow(t *testing.T) {
	// The matrix must exceed the 32 KiB cache in the column direction
	// (rows × 64 B line > cache) for column-major order to thrash; 600 rows
	// touch 37.5 KiB of lines per column sweep.
	row := measure(t, `class T { static int f() {
		int[][] m = new int[600][600];
		int s = 0;
		for (int i = 0; i < 600; i++) { for (int j = 0; j < 600; j++) { s += m[i][j]; } }
		return s;
	} }`, "T", "f")
	col := measure(t, `class T { static int f() {
		int[][] m = new int[600][600];
		int s = 0;
		for (int j = 0; j < 600; j++) { for (int i = 0; i < 600; i++) { s += m[i][j]; } }
		return s;
	} }`, "T", "f")
	ratio := float64(col.Package) / float64(row.Package)
	if ratio < 2 {
		t.Errorf("column/row ratio = %.3f, want ≥2 via cache misses (paper: up to 8.9×)", ratio)
	}
}

func TestArraycopyBeatsManualLoop(t *testing.T) {
	manual := measure(t, `class T { static int f() {
		int[] a = new int[5000]; int[] b = new int[5000];
		for (int i = 0; i < a.length; i++) { b[i] = a[i]; }
		return b[4999];
	} }`, "T", "f")
	sys := measure(t, `class T { static int f() {
		int[] a = new int[5000]; int[] b = new int[5000];
		System.arraycopy(a, 0, b, 0, 5000);
		return b[4999];
	} }`, "T", "f")
	if float64(manual.Package)/float64(sys.Package) < 1.5 {
		t.Errorf("manual/arraycopy ratio = %.2f, want >1.5 (both pay the same cold misses)",
			float64(manual.Package)/float64(sys.Package))
	}
}

// newInterpFromSource parses, loads and wraps src in an interpreter.
func newInterpFromSource(t *testing.T, src string) (*Interp, error) {
	t.Helper()
	f, err := parser.Parse("t.java", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(10_000_000)), nil
}
