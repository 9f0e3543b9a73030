package interp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/parser"
)

// engines lists both execution engines; every property in this file, and the
// semantics tests that share these helpers, must hold on each.
var engines = []Engine{EngineVM, EngineAST}

// newOn parses and loads src and returns an interpreter for it on engine e.
func newOn(t *testing.T, e Engine, src string) *Interp {
	t.Helper()
	f, err := parser.Parse("p.java", src)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(1_000_000), WithEngine(e))
}

// evalIntExpr runs `return <expr>;` with int parameters a and b on engine e.
func evalIntExpr(t *testing.T, e Engine, expr string, a, b int32) (int64, error) {
	t.Helper()
	in := newOn(t, e, fmt.Sprintf("class P { static int f(int a, int b) { return %s; } }", expr))
	v, err := in.CallStatic("P", "f", IntVal(int64(a)), IntVal(int64(b)))
	if err != nil {
		return 0, err
	}
	return v.I, nil
}

// Property: int arithmetic matches Go's int32 semantics, including overflow
// wraparound and Java's truncated division/remainder.
func TestIntArithmeticMatchesInt32Semantics(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) { testIntArithmetic(t, e) })
	}
}

func testIntArithmetic(t *testing.T, e Engine) {
	ops := []struct {
		expr string
		ref  func(a, b int32) (int32, bool) // ok=false → expect exception
	}{
		{"a + b", func(a, b int32) (int32, bool) { return a + b, true }},
		{"a - b", func(a, b int32) (int32, bool) { return a - b, true }},
		{"a * b", func(a, b int32) (int32, bool) { return a * b, true }},
		{"a / b", func(a, b int32) (int32, bool) {
			if b == 0 {
				return 0, false
			}
			if a == math.MinInt32 && b == -1 {
				return math.MinInt32, true // JLS: overflow wraps
			}
			return a / b, true
		}},
		{"a % b", func(a, b int32) (int32, bool) {
			if b == 0 {
				return 0, false
			}
			if a == math.MinInt32 && b == -1 {
				return 0, true
			}
			return a % b, true
		}},
		{"a & b", func(a, b int32) (int32, bool) { return a & b, true }},
		{"a | b", func(a, b int32) (int32, bool) { return a | b, true }},
		{"a ^ b", func(a, b int32) (int32, bool) { return a ^ b, true }},
	}
	for _, op := range ops {
		op := op
		f := func(a, b int32) bool {
			got, err := evalIntExpr(t, e, op.expr, a, b)
			want, ok := op.ref(a, b)
			if !ok {
				return err != nil // division by zero must throw
			}
			if err != nil {
				t.Logf("%s with a=%d b=%d: unexpected error %v", op.expr, a, b, err)
				return false
			}
			return got == int64(want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", op.expr, err)
		}
	}
}

// Property: << and >> follow JLS §15.19 on both engines. Each operand
// promotes on its own, the result has the left operand's type, and the
// distance keeps its low 5 bits for an int and its low 6 bits for a long.
// Distances are drawn from -64..127, so both masks and negative distances
// show, with int and long on either side.
func TestShiftSemantics(t *testing.T) {
	for _, e := range engines {
		for _, left := range []string{"int", "long"} {
			for _, right := range []string{"int", "long"} {
				for _, op := range []string{"<<", ">>"} {
					name := fmt.Sprintf("%v/%s%s%s", e, left, op, right)
					t.Run(name, func(t *testing.T) { testShift(t, e, left, op, right) })
				}
			}
		}
	}
}

func testShift(t *testing.T, e Engine, left, op, right string) {
	in := newOn(t, e, fmt.Sprintf(
		"class P { static %s f(%s a, %s b) { return a %s b; } }", left, left, right, op))
	val := func(typ string, v int64) Value {
		if typ == "long" {
			return LongVal(v)
		}
		return IntVal(v)
	}
	f := func(a int64, d uint8) bool {
		dist := int64(d%192) - 64
		var want int64
		if left == "long" {
			s := uint(dist) & 63
			want = a << s
			if op == ">>" {
				want = a >> s
			}
		} else {
			x, s := int32(a), uint(dist)&31
			want = int64(x << s)
			if op == ">>" {
				want = int64(x >> s)
			}
		}
		got, err := in.CallStatic("P", "f", val(left, a), val(right, dist))
		if err != nil || got.I != want {
			t.Logf("%v %s %d %s %d (%s): got %d, %v; want %d", e, left, a, op, dist, right, got.I, err, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: float arithmetic in the dialect rounds exactly like float32.
func TestFloatRoundsLikeFloat32(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) { testFloatRounding(t, e) })
	}
}

func testFloatRounding(t *testing.T, e Engine) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		src := fmt.Sprintf(
			"class P { static boolean f() { float x = %g f; float y = %g f; return x * y + x == %g f; } }",
			a, b, a*b+a)
		// The lexer needs the f suffix attached; rebuild without the space.
		src = fmt.Sprintf(
			"class P { static float f() { float x = (float) %g; float y = (float) %g; return x * y + x; } }",
			a, b)
		file, err := parser.Parse("p.java", src)
		if err != nil {
			return true // extreme spellings (e.g. 1e-45) may not lex; skip
		}
		prog, err := Load(file)
		if err != nil {
			return false
		}
		in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(1_000_000), WithEngine(e))
		v, err := in.CallStatic("P", "f")
		if err != nil {
			return false
		}
		want := a*b + a
		got := float32(v.D)
		return got == want || (math.IsNaN(float64(got)) && math.IsNaN(float64(want))) ||
			(math.IsInf(float64(got), 0) && math.IsInf(float64(want), 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: narrowing stores wrap exactly like Go's fixed-width casts.
func TestNarrowingMatchesGoCasts(t *testing.T) {
	for _, e := range engines {
		f := func(v int32) bool {
			gotB, err := evalIntExpr(t, e, "(byte) (a + b)", v, 0)
			if err != nil || gotB != int64(int8(v)) {
				return false
			}
			gotS, err := evalIntExpr(t, e, "(short) (a + b)", v, 0)
			if err != nil || gotS != int64(int16(v)) {
				return false
			}
			gotC, err := evalIntExpr(t, e, "(char) (a + b)", v, 0)
			return err == nil && gotC == int64(uint16(v))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", e, err)
		}
	}
}

// Property: energy accounting is additive — running a method twice charges
// exactly twice the energy of one run (the interpreter has no hidden state
// besides the cache, which this program does not touch).
func TestEnergyAdditivity(t *testing.T) {
	src := `class P { static int f(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s += i * 3; }
		return s;
	} }`
	file, err := parser.Parse("p.java", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) { testAdditivity(t, e, file) })
	}
}

func testAdditivity(t *testing.T, e Engine, file *ast.File) {
	f := func(nRaw uint8) bool {
		n := int64(nRaw%50) + 1
		prog, err := Load(file)
		if err != nil {
			return false
		}
		in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(10_000_000), WithEngine(e))
		if err := in.InitStatics(); err != nil {
			return false
		}
		s0 := in.Meter().Snapshot()
		if _, err := in.CallStatic("P", "f", IntVal(n)); err != nil {
			return false
		}
		s1 := in.Meter().Snapshot()
		if _, err := in.CallStatic("P", "f", IntVal(n)); err != nil {
			return false
		}
		s2 := in.Meter().Snapshot()
		first := float64(s1.Sub(s0).Core)
		second := float64(s2.Sub(s1).Core)
		return math.Abs(first-second) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the printer/parser round trip preserves interpreter results for
// the whole generated corpus kernel set (behavioural round-trip, stronger
// than textual stability).
func TestStringConcatAssociativity(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) { testConcat(t, e) })
	}
}

func testConcat(t *testing.T, e Engine) {
	f := func(a, b uint8) bool {
		src := fmt.Sprintf(`class P { static String f() {
			return "" + %d + %d;
		} }`, a, b)
		file, err := parser.Parse("p.java", src)
		if err != nil {
			return false
		}
		prog, err := Load(file)
		if err != nil {
			return false
		}
		in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(1_000_000), WithEngine(e))
		v, err := in.CallStatic("P", "f")
		if err != nil {
			return false
		}
		// Java: ("" + a) + b concatenates left to right.
		return v.Str() == fmt.Sprintf("%d%d", a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
