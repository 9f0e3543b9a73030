package interp

import (
	"math"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/parser"
)

// meterProbeSrc exercises every fused metering lane the engines share:
// indexed loads and stores (ArrayAccess), instance fields (FieldAccess),
// statics (StaticAccess), constant and branch charges and the int ++/--
// lane — in loops long enough that a single missing or extra charge, or a
// reordered access, shows in the counts and the cache statistics.
const meterProbeSrc = `class T {
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

// meterProbeRun executes T.f() with the given engine and cost table and
// returns the result and the meter it charged.
func meterProbeRun(t *testing.T, e Engine, costs energy.CostTable) (Value, *energy.Meter) {
	t.Helper()
	f, err := parser.Parse("meterprobe.java", meterProbeSrc)
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
	return v, in.Meter()
}

// TestEngineEnergyParity runs the probe on both engines under the default
// cost table and under a custom one, and demands one answer from both: the
// same op counts, the same cache hits and misses, and so the same package
// energy bits. Counts are compared first, so a divergence names the op.
func TestEngineEnergyParity(t *testing.T) {
	custom := energy.DefaultCosts()
	custom.Ops[energy.OpArithInt].Picojoules *= 1.5
	custom.Ops[energy.OpLocal].Cycles += 0.25

	cfgs := []struct {
		name  string
		costs energy.CostTable
	}{
		{"default costs", energy.DefaultCosts()},
		{"custom costs", custom},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			astV, astM := meterProbeRun(t, EngineAST, c.costs)
			vmV, vmM := meterProbeRun(t, EngineVM, c.costs)
			if astV != vmV {
				t.Errorf("result differs: ast=%+v vm=%+v", astV, vmV)
			}
			for op := 0; op < energy.NumOps; op++ {
				if a, v := astM.OpCount(energy.Op(op)), vmM.OpCount(energy.Op(op)); a != v {
					t.Errorf("op %v count: ast=%d vm=%d", energy.Op(op), a, v)
				}
			}
			ah, am := astM.CacheStats()
			vh, vm := vmM.CacheStats()
			if ah != vh || am != vm {
				t.Errorf("cache hits/misses: ast=%d/%d vm=%d/%d", ah, am, vh, vm)
			}
			astBits := math.Float64bits(float64(astM.Snapshot().Package))
			vmBits := math.Float64bits(float64(vmM.Snapshot().Package))
			if astBits != vmBits {
				t.Errorf("package energy bits differ: ast=%#x vm=%#x", astBits, vmBits)
			}
		})
	}
}
