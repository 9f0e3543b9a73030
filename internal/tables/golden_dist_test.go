package tables

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jepo/internal/dist"
	"jepo/internal/minijava/interp"
	"jepo/internal/sched"
)

// goldenKind runs one golden battery case; the battery is the kind's setup,
// built once per map and once per worker.
var goldenKind = sched.NewSetupKind("golden",
	func(engine interp.Engine) ([]goldenCase, error) { return goldenCases(engine, 1) },
	func(_ context.Context, t sched.Task, cases []goldenCase) (goldenRecord, error) {
		if t.Index < 0 || t.Index >= len(cases) {
			return goldenRecord{}, fmt.Errorf("case %d out of range", t.Index)
		}
		return cases[t.Index].run()
	})

// TestGoldenEnergyDistWorkers runs the golden energy battery through the
// executor's process placement against the same golden file: every record —
// charge bits, op counts, program output — must survive the JSON worker
// protocol and a mid-map worker kill untouched. This is the process half of
// the parallel-determinism acceptance gate that TestGoldenEnergySchedJobs
// pins for the in-process pool.
func TestGoldenEnergyDistWorkers(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is regenerated by TestGoldenEnergyDeterminism")
	}
	want := readGolden(t)
	n := len(want)
	for _, tc := range []struct {
		workers int
		plan    *dist.FaultPlan
	}{
		{1, nil},
		{4, &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{2: {1: dist.FaultKill}}}},
	} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			// The workers are in-process pipe workers; the records still
			// ride the full JSON task/result protocol.
			cfg := sched.Config{
				Jobs:     1,
				Workers:  tc.workers,
				Seed:     20200518,
				Deadline: 30 * time.Second,
				Spawn:    dist.PipeSpawner(sched.Handle),
				Plan:     tc.plan,
			}
			got, tel, err := goldenKind.Map(context.Background(), cfg, interp.EngineVM, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, want, got)
			if tc.plan != nil && tel.Quarantines != 1 {
				t.Errorf("expected the killed worker quarantined: %s", tel)
			}
		})
	}
}
