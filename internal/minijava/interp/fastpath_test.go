package interp

import (
	"math"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/parser"
)

// fastpathProbeSrc exercises every fused metering lane the engines share:
// indexed loads and stores (ArrayAccess), instance fields (FieldAccess),
// statics (StaticAccess), constant and branch charges and the int ++/--
// lane — in loops long enough that a single misplaced or reordered charge
// shifts the accumulated joule bits.
const fastpathProbeSrc = `class T {
	static int acc = 0;
	int field = 3;
	static double f() {
		int[] a = new int[64];
		T o = new T();
		double s = 0.5;
		for (int i = 0; i < 500; i++) {
			a[i % 64] = a[(i + 1) % 64] + i;
			o.field = o.field + a[i % 64];
			acc = acc + o.field;
			s = s + acc * 0.25 - i;
		}
		return s;
	}
}`

// fastpathRun executes T.f() with the given engine and cost table and
// returns the result and the package-energy bits.
func fastpathRun(t *testing.T, e Engine, costs energy.CostTable) (res Value, pkgBits uint64) {
	t.Helper()
	f, err := parser.Parse("fastpath.java", fastpathProbeSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	in := New(prog, energy.NewMeter(costs), WithMaxOps(1_000_000), WithEngine(e))
	if err := in.InitStatics(); err != nil {
		t.Fatalf("init: %v", err)
	}
	v, err := in.CallStatic("T", "f")
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	return v, math.Float64bits(float64(in.Meter().Snapshot().Package))
}

// TestEngineEnergyParityAcrossMeterPaths runs the probe on both engines
// under the default cost table and under a custom one, whose unit deltas the
// meter folds at construction like any other table, and demands one joule
// answer from both engines on each.
func TestEngineEnergyParityAcrossMeterPaths(t *testing.T) {
	custom := energy.DefaultCosts()
	custom.Ops[energy.OpArithInt].Picojoules *= 1.5
	custom.Ops[energy.OpLocal].Cycles += 0.25

	type cfg struct {
		name  string
		costs energy.CostTable
	}
	cfgs := []cfg{
		{"fastpath on", energy.DefaultCosts()},
		{"custom costs", custom},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			astV, astBits := fastpathRun(t, EngineAST, c.costs)
			vmV, vmBits := fastpathRun(t, EngineVM, c.costs)
			if astV != vmV {
				t.Errorf("result differs: ast=%+v vm=%+v", astV, vmV)
			}
			if astBits != vmBits {
				t.Errorf("package energy bits differ: ast=%#x vm=%#x", astBits, vmBits)
			}
		})
	}
}
