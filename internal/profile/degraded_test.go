package profile

import (
	"fmt"
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

// noBackoff disables the resilient wrapper's retry sleep in tests.
var noBackoff = rapl.WithBackoff(func(int) {})

// windowFailSource fails exactly the scripted read indices (0-based) and
// succeeds everywhere else — a transient permission flip, not a death.
type windowFailSource struct {
	inner rapl.Source
	fail  map[int]bool
	reads int
}

func (w *windowFailSource) Snapshot() (rapl.Snapshot, error) {
	idx := w.reads
	w.reads++
	if w.fail[idx] {
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

func TestHealthStringAndClean(t *testing.T) {
	h := Health{Enters: 4, Exits: 4}
	if !h.Clean() {
		t.Error("balanced fault-free run must be clean")
	}
	h.ReadErrors = 1
	h.Source = rapl.Health{Reads: 8, Retries: 2}
	if h.Clean() {
		t.Error("read errors are not clean")
	}
	s := h.String()
	for _, want := range []string{"enters=4", "read_errors=1", "retries=2"} {
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

// TestProfiledCorpusSurvivesMidRunSourceDeath is the end-to-end acceptance
// test: a profiled run over the Table I corpus with a scripted mid-run
// source failure (transient faults, then the primary dying as a flaky
// powercap does) completes, reports energy from the fallback source, and
// Health() records the retry/fallback/discontinuity tallies.
func TestProfiledCorpusSurvivesMidRunSourceDeath(t *testing.T) {
	benches := tables.InterpBenches()
	if len(benches) < 10 {
		t.Fatalf("Table I corpus too small: %d programs", len(benches))
	}
	const reps = 4 // 8 counter reads per program: faults land mid-run
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			meter := energy.NewMeter(energy.DefaultCosts())
			primary := rapl.NewFaultySource(rapl.NewSimSource(meter),
				rapl.Script{2: rapl.FaultTransient, 5: rapl.FaultPermanent})
			res := rapl.NewResilient(primary,
				rapl.WithFallback(rapl.NewSimSource(meter)),
				rapl.WithRetries(2), noBackoff)
			prof := driveBench(t, res, meter, b.Src, reps)

			recs := prof.Records()
			if len(recs) != reps {
				t.Fatalf("records = %d, want %d — the run must complete through the source death", len(recs), reps)
			}
			var degraded int
			for i, r := range recs {
				if r.Package < 0 || r.Core < 0 {
					t.Errorf("record %d went negative: %+v", i, r)
				}
				if r.Degraded {
					degraded++
				}
			}
			if degraded == 0 {
				t.Error("no record flagged degraded despite injected faults")
			}
			h := prof.Health()
			if h.Source.Retries == 0 {
				t.Errorf("no retries recorded: %s", h)
			}
			if h.Source.Discontinuities != 1 || h.Source.Fallbacks == 0 {
				t.Errorf("fallback not recorded: %s", h)
			}
			if h.ReadErrors != 0 {
				t.Errorf("resilient source leaked %d read errors: %s", h.ReadErrors, h)
			}
			if prof.Err() != nil {
				t.Errorf("degraded run must not poison the profiler: %v", prof.Err())
			}
			// Energy from the fallback region is still real: the heaviest
			// records carry positive package energy.
			sums := prof.Summaries()
			if len(sums) != 1 || sums[0].Package <= 0 {
				t.Errorf("fallback region lost the energy: %+v", sums)
			}
		})
	}
}

// TestProfiledRunSurvivesSysfsTreeLoss profiles against a real powercap
// tempdir tree that disappears mid-run, falling back to the simulator.
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
	sys.QuarantineAfter = 1

	meter := energy.NewMeter(energy.DefaultCosts())
	res := rapl.NewResilient(sys, rapl.WithFallback(rapl.NewSimSource(meter)),
		rapl.WithRetries(0), rapl.WithMaxMisses(0), noBackoff)
	prof := New(res, func() time.Duration { return meter.Snapshot().Elapsed })

	prof.Enter("warm")
	prof.Exit("warm")
	if err := os.RemoveAll(zoneDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m := fmt.Sprintf("after.loss.%d", i)
		prof.Enter(m)
		meter.Step(energy.OpModInt, 50_000)
		prof.Exit(m)
	}
	if got := len(prof.Records()); got != 4 {
		t.Fatalf("records = %d, want 4", got)
	}
	h := prof.Health()
	if h.Source.Discontinuities != 1 || h.Source.Quarantined != 1 {
		t.Errorf("sysfs death not recorded: %s", h)
	}
	last := prof.Records()[3]
	if !last.Degraded && last.Package < 0 {
		t.Errorf("post-loss record inconsistent: %+v", last)
	}
}
