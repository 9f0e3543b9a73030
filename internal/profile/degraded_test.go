package profile

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/rapl"
	"jepo/internal/tables"
)

// windowFailSource fails exactly the scripted read indices (0-based) and
// succeeds everywhere else. Failing every index from some read on scripts
// a source that dies mid-run.
type windowFailSource struct {
	inner  rapl.Source
	fail   map[int]bool
	reads  int
	failed int // reads that failed so far
}

func (w *windowFailSource) Snapshot() (rapl.Snapshot, error) {
	idx := w.reads
	w.reads++
	if w.fail[idx] {
		w.failed++
		return rapl.Snapshot{}, errFail
	}
	return w.inner.Snapshot()
}

func TestProfilerDegradedRecordInsteadOfPoison(t *testing.T) {
	meter := energy.NewMeter(energy.DefaultCosts())
	// Reads 0,1 (first execution) succeed; read 2 (enter of the second)
	// fails; everything later succeeds.
	src := &windowFailSource{inner: rapl.NewSimSource(meter), fail: map[int]bool{2: true}}
	prof := New(src, func() time.Duration { return meter.Snapshot().Elapsed })

	prof.Enter("a")
	prof.Exit("a")  // clean record
	prof.Enter("b") // enter read fails → last-known-good stands in
	meter.Step(energy.OpModInt, 100_000)
	prof.Exit("b") // exit read succeeds → record completes, estimated

	recs := prof.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 — a failed read must not lose the execution", len(recs))
	}
	if recs[0].Degraded || recs[0].Estimated {
		t.Errorf("clean record flagged: %+v", recs[0])
	}
	if !recs[1].Estimated || !recs[1].Degraded {
		t.Errorf("record across failed read not flagged: %+v", recs[1])
	}
	if recs[1].Package < 0 {
		t.Errorf("estimated record went negative: %+v", recs[1])
	}
	h := prof.Health()
	if h.ReadErrors != 1 || h.Estimated != 1 || h.Degraded != 1 {
		t.Errorf("health = %s", h)
	}
	if prof.Err() == nil {
		t.Error("first read error must still be surfaced via Err()")
	}
}

func TestProfilerRecoversFromUnwoundFrames(t *testing.T) {
	meter := energy.NewMeter(energy.DefaultCosts())
	prof := New(rapl.NewSimSource(meter), func() time.Duration { return meter.Snapshot().Elapsed })

	// An exception unwinds through b and c whose exit probes never fire.
	prof.Enter("a")
	prof.Enter("b")
	prof.Enter("c")
	prof.Exit("a")
	// The run continues balanced afterwards.
	prof.Enter("d")
	prof.Exit("d")

	recs := prof.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (a recovered, d clean)", len(recs))
	}
	if recs[0].Method != "a" || !recs[0].Degraded {
		t.Errorf("recovered record wrong: %+v", recs[0])
	}
	if recs[1].Method != "d" || recs[1].Degraded {
		t.Errorf("post-recovery record wrong: %+v", recs[1])
	}
	h := prof.Health()
	if h.DroppedFrames != 2 {
		t.Errorf("dropped frames = %d, want 2 (b and c)", h.DroppedFrames)
	}
	if h.UnbalancedExits != 0 {
		t.Errorf("unbalanced exits = %d, want 0", h.UnbalancedExits)
	}
	if prof.Err() == nil {
		t.Error("the mismatch must still be surfaced via Err()")
	}
}

// TestHealthStringAndClean pins the health line for a clean run and checks
// that a degraded run's tallies show in it.
func TestHealthStringAndClean(t *testing.T) {
	clean := Health{Enters: 4, Exits: 4}
	if got, want := clean.String(), "probes: enters=4 exits=4 read_errors=0 unbalanced_exits=0 dropped_frames=0 degraded=0 estimated=0"; got != want {
		t.Errorf("clean health string = %q, want %q", got, want)
	}
	h := Health{Enters: 4, Exits: 4, ReadErrors: 1, Degraded: 1, Estimated: 1}
	s := h.String()
	for _, want := range []string{"enters=4", "read_errors=1", "degraded=1", "estimated=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("health string %q missing %q", s, want)
		}
	}
}

func TestResultTxtFlagsColumn(t *testing.T) {
	prof := setupProfiledRun(t)
	txt := prof.ResultTxt()
	if !strings.Contains(txt, "flags") {
		t.Errorf("header missing flags column:\n%s", txt)
	}
	for _, line := range strings.Split(strings.TrimSpace(txt), "\n")[1:] {
		if !strings.HasSuffix(line, "\tok") {
			t.Errorf("clean run row not flagged ok: %q", line)
		}
	}
}

// driveBench instruments one Table I program and profiles reps calls of
// B.f() through the given source.
func driveBench(t *testing.T, src rapl.Source, meter *energy.Meter, bsrc string, reps int) *Profiler {
	t.Helper()
	f, err := parser.Parse("bench.java", bsrc)
	if err != nil {
		t.Fatal(err)
	}
	instrument.Inject(f)
	prog, err := interp.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	prof := New(src, func() time.Duration { return meter.Snapshot().Elapsed })
	in := interp.New(prog, meter, interp.WithHook(prof), interp.WithMaxOps(interp.DefaultMaxOps))
	if err := in.InitStatics(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reps; i++ {
		if _, err := in.CallStatic("B", "f"); err != nil {
			t.Fatal(err)
		}
	}
	return prof
}

// TestProfiledCorpusSurvivesMidRunSourceDeath profiles every Table I
// program over a source that fails one read and then dies mid-run, as a
// flaky powercap does. The run completes with every record and a balanced
// probe stack, exactly the records measured across a failed read are
// flagged, none goes negative, every failed read is counted, and Err
// reports the failure.
func TestProfiledCorpusSurvivesMidRunSourceDeath(t *testing.T) {
	benches := tables.InterpBenches()
	if len(benches) < 10 {
		t.Fatalf("Table I corpus too small: %d programs", len(benches))
	}
	const reps = 4 // 8 counter reads per program: faults land mid-run
	// Read 2 (the second enter) fails once; the source dies at read 5 (the
	// third exit). So the first record is clean and the other three are
	// estimated.
	fail := map[int]bool{2: true, 5: true, 6: true, 7: true}
	wantEstimated := []bool{false, true, true, true}
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			meter := energy.NewMeter(energy.DefaultCosts())
			src := &windowFailSource{inner: rapl.NewSimSource(meter), fail: fail}
			prof := driveBench(t, src, meter, b.Src, reps)

			recs := prof.Records()
			if len(recs) != reps {
				t.Fatalf("records = %d, want %d — the run must complete through the source death", len(recs), reps)
			}
			for i, r := range recs {
				if r.Package < 0 || r.Core < 0 {
					t.Errorf("record %d went negative: %+v", i, r)
				}
				if r.Estimated != wantEstimated[i] || r.Degraded != wantEstimated[i] {
					t.Errorf("record %d flags = estimated %v degraded %v, want %v", i, r.Estimated, r.Degraded, wantEstimated[i])
				}
			}
			if recs[0].Package <= 0 {
				t.Errorf("record before the faults lost its energy: %+v", recs[0])
			}
			h := prof.Health()
			if h.Enters != reps || h.Exits != reps {
				t.Errorf("probes unbalanced: %s", h)
			}
			if h.ReadErrors != src.failed || src.failed != len(fail) {
				t.Errorf("read errors = %d, source failed %d reads, want %d: %s", h.ReadErrors, src.failed, len(fail), h)
			}
			if prof.Err() == nil {
				t.Error("the failed reads must be surfaced via Err()")
			}
		})
	}
}

// TestProfiledRunSurvivesSysfsTreeLoss profiles against a real powercap
// tempdir tree that disappears mid-run. The reader serves the lost zone
// frozen until it quarantines it, and from then on every read fails. The
// profiler keeps every record, charges no energy after the loss, flags the
// records measured across failed reads, and reports the failure via Err.
func TestProfiledRunSurvivesSysfsTreeLoss(t *testing.T) {
	root := t.TempDir()
	zoneDir := filepath.Join(root, "intel-rapl:0")
	if err := os.MkdirAll(zoneDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(file, content string) {
		if err := os.WriteFile(filepath.Join(zoneDir, file), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("name", "package-0\n")
	write("energy_uj", "1000000\n")
	sys, err := rapl.NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}

	meter := energy.NewMeter(energy.DefaultCosts())
	prof := New(sys, func() time.Duration { return meter.Snapshot().Elapsed })

	prof.Enter("warm")
	write("energy_uj", "1500000\n")
	prof.Exit("warm")
	if err := os.RemoveAll(zoneDir); err != nil {
		t.Fatal(err)
	}
	const after = 4
	for i := 0; i < after; i++ {
		m := fmt.Sprintf("after.loss.%d", i)
		prof.Enter(m)
		meter.Step(energy.OpModInt, 50_000)
		prof.Exit(m)
	}
	recs := prof.Records()
	if len(recs) != 1+after {
		t.Fatalf("records = %d, want %d", len(recs), 1+after)
	}
	if got := recs[0].Package.Microjoules(); math.Abs(got-500_000) > 1e-6 || recs[0].Degraded {
		t.Errorf("pre-loss record = %v µJ (%+v), want a clean 500000", got, recs[0])
	}
	for _, r := range recs[1:] {
		if r.Package != 0 {
			t.Errorf("record %s charged %v after the tree was lost", r.Method, r.Package)
		}
	}
	if last := recs[after]; !last.Estimated {
		t.Errorf("record after the source died not flagged: %+v", last)
	}
	h := prof.Health()
	if h.ReadErrors == 0 || prof.Err() == nil {
		t.Errorf("quarantining the only package zone must fail reads: %s, err %v", h, prof.Err())
	}
	if h.Enters != h.Exits {
		t.Errorf("probes unbalanced: %s", h)
	}
}
