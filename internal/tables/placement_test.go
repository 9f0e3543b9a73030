package tables

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"jepo/internal/dist"
	"jepo/internal/minijava/interp"
	"jepo/internal/sched"
)

// pipeWorkers places a map on in-process pipe workers with a chaos plan,
// mirroring how the CLIs run minus the process boundary.
func pipeWorkers(workers int, plan *dist.FaultPlan) sched.Config {
	return sched.Config{
		Workers:  workers,
		Seed:     20200518,
		Deadline: 30 * time.Second,
		Spawn:    dist.PipeSpawner(sched.Handle),
		Plan:     plan,
	}
}

// TestTable2Placements: Table II on pipe workers — one of which is killed
// mid-map — produces exactly the rows of the in-process pool.
func TestTable2Placements(t *testing.T) {
	want, _, err := Table2Parallel(context.Background(), 20200518, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{1: {1: dist.FaultKill}}}
	got, tel, err := Table2Map(context.Background(), pipeWorkers(3, plan), 20200518)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("placed rows diverge from in-process:\n got %+v\nwant %+v", got, want)
	}
	if tel.Quarantines != 1 || tel.Deaths != 1 {
		t.Errorf("expected the killed worker quarantined: %s", tel)
	}
}

// TestTable1Placements runs the full Table I on pipe workers with one kill
// and compares every measured bit against the in-process pool. Skipped
// under -short: it executes all 22 benchmark variants twice.
func TestTable1Placements(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 measurement is slow")
	}
	want, _, err := Table1Jobs(context.Background(), interp.EngineVM, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{0: {2: dist.FaultKill}}}
	got, tel, err := Table1Map(context.Background(), pipeWorkers(2, plan), interp.EngineVM)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("placed Table I rows diverge from in-process")
	}
	for i := range got {
		if math.Float64bits(got[i].MeasuredPct) != math.Float64bits(want[i].MeasuredPct) {
			t.Errorf("row %d: measured pct bits diverge", i)
		}
	}
	if tel.Quarantines != 1 {
		t.Errorf("expected one quarantine: %s", tel)
	}
}
