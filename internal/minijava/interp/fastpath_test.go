package interp

import (
	"math"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/parser"
)

// fastpathProbeSrc exercises every fused metering lane the engines share:
// indexed loads and stores (ArrayAccess), instance fields (FieldAccess),
// statics (StaticAccess), block charge replay (StepRun vs StepList) and the
// int ++/-- lane — in loops long enough that a single misplaced or reordered
// charge shifts the accumulated joule bits.
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
// returns the result bits, printed output and package-energy bits. unbound
// forces the VM's charge runs onto the StepList replay even when the meter's
// table is the one the program bound its deltas against.
func fastpathRun(t *testing.T, e Engine, costs energy.CostTable, unbound bool) (res Value, pkgBits uint64) {
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
	if unbound {
		in.runFast = false
	}
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
// under three charge-run replays — the bound deltas (fast path on), the
// StepList replay forced on the same table (fast path off), and a custom
// cost table that defeats the bound replay (Costs() no longer matches the
// program's bound table, so OpRunCharge must fall back to StepList) — and
// demands one joule answer from all six runs.
func TestEngineEnergyParityAcrossMeterPaths(t *testing.T) {
	custom := energy.DefaultCosts()
	custom.Ops[energy.OpArithInt].Picojoules *= 1.5
	custom.Ops[energy.OpLocal].Cycles += 0.25

	type cfg struct {
		name    string
		unbound bool
		costs   energy.CostTable
	}
	cfgs := []cfg{
		{"fastpath on", false, energy.DefaultCosts()},
		{"fastpath off", true, energy.DefaultCosts()},
		{"custom costs defeat bound replay", false, custom},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			astV, astBits := fastpathRun(t, EngineAST, c.costs, c.unbound)
			vmV, vmBits := fastpathRun(t, EngineVM, c.costs, c.unbound)
			if astV != vmV {
				t.Errorf("result differs: ast=%+v vm=%+v", astV, vmV)
			}
			if astBits != vmBits {
				t.Errorf("package energy bits differ: ast=%#x vm=%#x", astBits, vmBits)
			}
		})
	}

	// The bound and the unbound replay must also agree with each other on
	// the same cost table: that is the bound deltas' whole contract.
	t.Run("on and off land identical bits", func(t *testing.T) {
		_, onBits := fastpathRun(t, EngineVM, energy.DefaultCosts(), false)
		_, offBits := fastpathRun(t, EngineVM, energy.DefaultCosts(), true)
		if onBits != offBits {
			t.Errorf("bound replay changed the joule bits: on=%#x off=%#x", onBits, offBits)
		}
	})
}
