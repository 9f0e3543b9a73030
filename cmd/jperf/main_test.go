package main

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"jepo/internal/minijava/interp"
)

func writeDemo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := `class Demo {
	public static void main(String[] args) {
		int s = 0;
		for (int i = 0; i < 2000; i++) { s += i % 7; }
		System.out.println(s);
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "Demo.java"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunMeasures(t *testing.T) {
	dir := writeDemo(t)
	if err := run(context.Background(), "", 4, true, interp.EngineVM, 2, []string{dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "", 3, false, interp.EngineAST, 1, []string{filepath.Join(dir, "Demo.java")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	// A run count below the protocol's minimum is refused before the
	// sources are read: the missing file must not be what reports.
	if err := run(context.Background(), "", 2, true, interp.EngineVM, 1, []string{"missing.java"}); err == nil || !strings.Contains(err.Error(), "-r 2") {
		t.Errorf("runs=2 with a missing file: err = %v, want the -r error", err)
	}
	if err := run(context.Background(), "", 3, true, interp.EngineVM, 1, nil); err == nil {
		t.Error("no input accepted")
	}
	if err := run(context.Background(), "", 3, true, interp.EngineVM, 1, []string{"missing.java"}); err == nil {
		t.Error("missing file accepted")
	}
	dir := writeDemo(t)
	if err := run(context.Background(), "NoSuchClass", 3, true, interp.EngineVM, 1, []string{dir}); err == nil {
		t.Error("unknown main class accepted")
	}
	bad := t.TempDir()
	os.WriteFile(filepath.Join(bad, "Bad.java"), []byte("class {"), 0o644)
	if err := run(context.Background(), "", 3, true, interp.EngineVM, 1, []string{bad}); err == nil {
		t.Error("syntax error accepted")
	}
	empty := t.TempDir()
	if err := run(context.Background(), "", 3, true, interp.EngineVM, 1, []string{empty}); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestRunCancelsInFlight: an interrupt stops a measurement run in flight.
// The program loops far past a second; cancelling about 100 ms in must end
// the run with context.Canceled within 2 s, not after it finishes or
// exhausts its op budget.
func TestRunCancelsInFlight(t *testing.T) {
	dir := t.TempDir()
	src := `class Spin {
	public static void main(String[] args) {
		int s = 0;
		for (int i = 0; i < 100000; i++) {
			for (int j = 0; j < 100000; j++) { s += j % 7; }
		}
		System.out.println(s);
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "Spin.java"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() { done <- run(ctx, "", 3, true, interp.EngineVM, 1, []string{dir}) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run still going 2 s after a cancel ~100 ms in")
	}
}

func TestRunOnceDeterministic(t *testing.T) {
	dir := writeDemo(t)
	files, err := parseArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := interp.Load(files...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runOnce(context.Background(), prog, "", interp.EngineVM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOnce(context.Background(), prog, "", interp.EngineVM)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pkg != b.Pkg || a.Cycles != b.Cycles {
		t.Errorf("simulated runs diverged: %+v vs %+v", a, b)
	}
	if a.Pkg <= 0 || a.Elapsed <= 0 {
		t.Errorf("degenerate measurement: %+v", a)
	}
	// Both engines must report bit-identical simulated energy.
	c, err := runOnce(context.Background(), prog, "", interp.EngineAST)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pkg != c.Pkg || a.Cycles != c.Cycles {
		t.Errorf("engines diverged: vm %+v vs ast %+v", a, c)
	}
}

// TestMeasureKindPlacements: measurement runs on the pool carry the same
// counter bits as runs made inline.
func TestMeasureKindPlacements(t *testing.T) {
	files, err := parseArgs([]string{writeDemo(t)})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := interp.Load(files...)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := measureRuns(context.Background(), prog, "", interp.EngineVM, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, tel, err := measureRuns(context.Background(), prog, "", interp.EngineVM, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pool measurements diverge:\n got %+v\nwant %+v", got, want)
	}
	for i, m := range got {
		if math.Float64bits(float64(m.Pkg)) != math.Float64bits(float64(want[i].Pkg)) {
			t.Errorf("run %d: pkg bits diverge", i)
		}
	}
	if tel.Jobs != 2 {
		t.Errorf("telemetry jobs=%d, want 2", tel.Jobs)
	}
}
