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

// TestGoldenDisasmWarm pins the warm (quickened) stream the same way: after
// one full main execution, the instance's patched code copies must land on
// exactly the checked-in quick forms. A drift here means runtime quickening
// changed which specializations install — reviewable, never silent. The
// shared program must come out of the run untouched: quickening patches only
// the instance's private copies, so the cold disassembly still matches its
// own golden. Regenerate with:
//
//	go run ./cmd/jperf disasm -warm examples/java/EnergyDemo.java > examples/java/golden_disasm_warm.txt
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
	want, err := os.ReadFile("../../examples/java/golden_disasm_warm.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := in.DisasmWarm(); got != string(want) {
		t.Errorf("warm disassembly drifted from examples/java/golden_disasm_warm.txt\n--- got ---\n%s", got)
	}
	cold, err := os.ReadFile("../../examples/java/golden_disasm.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Disasm(); got != string(cold) {
		t.Errorf("the warm run patched the shared program: its disassembly no longer matches examples/java/golden_disasm.txt\n--- got ---\n%s", got)
	}
}
