// RAPL example: the measurement substrate on its own. The probes JEPO
// injects read energy counters through the same protocol real hardware
// exposes — 32-bit energy-status registers scaled by the energy-status unit,
// unwrapped by a sampler. This example shows both back ends:
//
//  1. the real Linux powercap interface, when the host exposes
//     /sys/class/powercap/intel-rapl* (run as root on an Intel machine);
//  2. the simulated MSR file over the calibrated energy model, otherwise.
package main

import (
	"fmt"
	"log"

	"jepo/internal/energy"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/rapl"
)

func main() {
	if src := rapl.Detect(); src != nil {
		fmt.Println("real RAPL counters detected via powercap:")
		a, err := src.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		// Burn a little CPU so the counters move.
		x := 0.0
		for i := 0; i < 50_000_000; i++ {
			x += float64(i % 7)
		}
		b, err := src.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		d := b.Sub(a)
		fmt.Printf("  busy loop (checksum %g): package=%v core=%v dram=%v\n",
			x, d.Package, d.Core, d.DRAM)
	} else {
		fmt.Println("no powercap RAPL on this host; using the simulator")
	}

	// The simulated path, end to end: meter → MSR registers → sampler.
	meter := energy.NewMeter(energy.DefaultCosts())
	msr := rapl.NewSimMSR(meter)
	pu, err := msr.ReadMSR(rapl.MSRPowerUnit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated MSR_RAPL_POWER_UNIT = %#x (energy unit %v per count)\n",
		pu, rapl.EnergyUnit(pu))

	sampler, err := rapl.NewSampler(msr)
	if err != nil {
		log.Fatal(err)
	}
	before, err := sampler.Snapshot()
	if err != nil {
		log.Fatal(err)
	}

	// Run a mini-Java workload against the meter the registers expose.
	f, err := parser.Parse("work.java", `class W {
		static int f() {
			int s = 0;
			for (int i = 0; i < 50000; i++) { s += i % 7; }
			return s;
		}
	}`)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := interp.Load(f)
	if err != nil {
		log.Fatal(err)
	}
	in := interp.New(prog, meter, interp.WithEngine(interp.EngineVM))
	v, err := in.CallStatic("W", "f")
	if err != nil {
		log.Fatal(err)
	}
	after, err := sampler.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	d := after.Sub(before)
	fmt.Printf("mini-Java workload (result %d):\n", v.I)
	fmt.Printf("  package=%v core=%v dram=%v (read through the MSR protocol)\n",
		d.Package, d.Core, d.DRAM)
	fmt.Printf("  raw meter says package=%v — the difference is counter quantization\n",
		meter.Snapshot().Package)

	// The tree-walking engine charges the same op counts and issues the
	// same memory accesses in the same order as the bytecode VM, so an
	// independent run reads identical energy — the determinism invariant
	// the golden tests pin.
	astMeter := energy.NewMeter(energy.DefaultCosts())
	astIn := interp.New(prog, astMeter, interp.WithEngine(interp.EngineAST))
	if _, err := astIn.CallStatic("W", "f"); err != nil {
		log.Fatal(err)
	}
	match := "bit-identical"
	if astMeter.Snapshot().Package != meter.Snapshot().Package {
		match = "MISMATCH — engine divergence"
	}
	fmt.Printf("  tree-walker cross-check: package=%v (%s)\n",
		astMeter.Snapshot().Package, match)
}
