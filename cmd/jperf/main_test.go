package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"jepo/internal/cliconfig"
	"jepo/internal/dist"
	cache "jepo/internal/engine"
	"jepo/internal/minijava/interp"
	"jepo/internal/sched"
)

// testShared parses a cliconfig set with the given pool width; the dist
// group stays at its defaults (workers=1) so runs stay in-process.
func testShared(t *testing.T, jobs int) *cliconfig.Set {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := cliconfig.Register(fs, cliconfig.FeatEngine|cliconfig.FeatJobs|cliconfig.FeatDist)
	if err := fs.Parse([]string{"-jobs", strconv.Itoa(jobs)}); err != nil {
		t.Fatal(err)
	}
	return s
}

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
	if err := run(context.Background(), "", 4, true, interp.EngineVM, testShared(t, 2), []string{dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "", 3, false, interp.EngineAST, testShared(t, 1), []string{filepath.Join(dir, "Demo.java")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	// A run count below the protocol's minimum is refused before the
	// sources are read: the missing file must not be what reports.
	if err := run(context.Background(), "", 2, true, interp.EngineVM, testShared(t, 1), []string{"missing.java"}); err == nil || !strings.Contains(err.Error(), "-r 2") {
		t.Errorf("runs=2 with a missing file: err = %v, want the -r error", err)
	}
	if err := run(context.Background(), "", 3, true, interp.EngineVM, testShared(t, 1), nil); err == nil {
		t.Error("no input accepted")
	}
	if err := run(context.Background(), "", 3, true, interp.EngineVM, testShared(t, 1), []string{"missing.java"}); err == nil {
		t.Error("missing file accepted")
	}
	dir := writeDemo(t)
	if err := run(context.Background(), "NoSuchClass", 3, true, interp.EngineVM, testShared(t, 1), []string{dir}); err == nil {
		t.Error("unknown main class accepted")
	}
	bad := t.TempDir()
	os.WriteFile(filepath.Join(bad, "Bad.java"), []byte("class {"), 0o644)
	if err := run(context.Background(), "", 3, true, interp.EngineVM, testShared(t, 1), []string{bad}); err == nil {
		t.Error("syntax error accepted")
	}
	empty := t.TempDir()
	if err := run(context.Background(), "", 3, true, interp.EngineVM, testShared(t, 1), []string{empty}); err == nil {
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
	go func() { done <- run(ctx, "", 3, true, interp.EngineVM, testShared(t, 1), []string{dir}) }()
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

// TestMeasureKindPlacements: a measurement run on a pipe worker carries the
// same counter bits, health tally included, as one run in process.
func TestMeasureKindPlacements(t *testing.T) {
	p := measureParams{
		Files: []cache.Source{{Path: "Work.java", Source: `class Work {
	public static void main(String[] args) {
		long total = 0;
		for (int i = 0; i < 200; i++) {
			total = total + i % 8;
		}
		System.out.println(total);
	}
}`}},
		Engine: interp.EngineVM,
	}
	want, _, err := measureKind.Map(context.Background(), sched.Config{Jobs: 1}, p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := sched.Config{Workers: 2, Deadline: 10 * time.Second, Spawn: dist.PipeSpawner(sched.Handle)}
	got, tel, err := measureKind.Map(context.Background(), ex, p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("placed measurements diverge:\n got %+v\nwant %+v", got, want)
	}
	for i, m := range got {
		if math.Float64bits(float64(m.Pkg)) != math.Float64bits(float64(want[i].Pkg)) {
			t.Errorf("run %d: pkg bits diverge", i)
		}
	}
	if tel.Workers != 2 || tel.Jobs != 2 {
		t.Errorf("telemetry workers=%d jobs=%d, want 2 nodes", tel.Workers, tel.Jobs)
	}
}
