package main

import (
	"os"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/interp"
)

// TestGoldenDisasm pins the compiled bytecode of the example program byte
// for byte. Any compiler change — new fusions, operand layout, charge
// folding — shows up here as a reviewable diff instead of a silent shift in
// what the VM executes. Regenerate after auditing with:
//
//	go run ./cmd/jperf disasm examples/java/EnergyDemo.java > examples/java/golden_disasm.txt
func TestGoldenDisasm(t *testing.T) {
	files, err := parseArgs([]string{"../../examples/java/EnergyDemo.java"})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := interp.Load(files...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../examples/java/golden_disasm.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Disasm(); got != string(want) {
		t.Errorf("disassembly drifted from examples/java/golden_disasm.txt\n--- got ---\n%s", got)
	}
}

// TestGoldenDisasmWarm pins that running never writes the compiled stream:
// after one full main execution, which fills the instance's site cache, the
// program's disassembly must still match examples/java/golden_disasm.txt.
// The VM picks its lanes by inline guard, so that stream is what runs on the
// first run and on every later one.
func TestGoldenDisasmWarm(t *testing.T) {
	files, err := parseArgs([]string{"../../examples/java/EnergyDemo.java"})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := interp.Load(files...)
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(2_000_000_000))
	if err := in.RunMain(""); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../examples/java/golden_disasm.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Disasm(); got != string(want) {
		t.Errorf("the run wrote the shared program: its disassembly no longer matches examples/java/golden_disasm.txt\n--- got ---\n%s", got)
	}
}
