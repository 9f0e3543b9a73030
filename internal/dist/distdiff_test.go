//go:build distdiff

// Differential fuzz for the executor's process placement over this
// package's transport, gated behind -tags distdiff (wired into
// scripts/check.sh and `make distdiff`), the process counterpart of the
// sched pool's scheddiff fuzz. Every round draws a random task count,
// worker count and chaos plan (kills, hangs, slow-walks, corrupted replies
// at seeded random rates), then runs the same measurement kind in process
// and on pipe workers: every task rebuilds a ScriptedMSR counter stream
// from task.Seed, with wraps and backward jumps, and reads it through the
// unwrapping sampler (sampleScripted) — a pure function of the task seed,
// so reassigned tasks replay identically. The per-task results, the
// index-ordered commit ledger and the joules summed in commit order must be
// bit-identical to the in-process run at every worker count, no matter
// which nodes the chaos plan takes down. Rounds where chaos kills every
// worker must fail with ErrNoWorkers and leave an exact prefix of the
// in-process ledger.
package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"jepo/internal/dist"
	"jepo/internal/sched"
)

// ddMix advances a splitmix64 stream; every round parameter derives from
// it so failures reproduce from the master seed alone.
func ddMix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ddParams is the per-round parameter block shipped to workers.
type ddParams struct {
	Snaps int `json:"snaps"`
}

// ddResult is one task's complete observable outcome: the float64 bit
// patterns of its last snapshot.
type ddResult struct {
	Pkg  uint64 `json:"pkg"`
	Core uint64 `json:"core"`
	DRAM uint64 `json:"dram"`
}

var ddKind = sched.NewKind("ddmeasure", func(_ context.Context, t sched.Task, p ddParams) (ddResult, error) {
	snap, err := sampleScripted(t.Seed, p.Snaps)
	if err != nil {
		return ddResult{}, err
	}
	return ddResult{
		Pkg:  math.Float64bits(float64(snap.Package)),
		Core: math.Float64bits(float64(snap.Core)),
		DRAM: math.Float64bits(float64(snap.DRAM)),
	}, nil
})

// ddLedger is the order-sensitive commit reduction: the per-task lines and
// the joules summed in commit order.
type ddLedger struct {
	Lines []string
	Total float64
}

// TestDistDifferentialFuzz runs randomized in-process-vs-placed rounds.
func TestDistDifferentialFuzz(t *testing.T) {
	const master = uint64(20200518)
	const rounds = 20
	var chaosRounds, deadRounds int
	for round := 0; round < rounds; round++ {
		r := sched.TaskSeed(master, round)
		tasks := 1 + int(ddMix(r)%24)
		workers := 2 + int(ddMix(r^1)%3)
		params := ddParams{Snaps: 2 + int(ddMix(r^2)%5)}
		var plan *dist.FaultPlan
		if round%4 != 3 { // some rounds run chaos-free as a control
			plan = &dist.FaultPlan{
				Seed:   ddMix(r ^ 5),
				Rates:  dist.FaultRates{Kill: 0.03, Hang: 0.02, Slow: 0.05, Corrupt: 0.05},
				SlowBy: time.Millisecond,
			}
			chaosRounds++
		}

		run := func(cfg sched.Config) ([]ddResult, ddLedger, error) {
			var ledger ddLedger
			out, _, err := ddKind.Map(context.Background(), cfg, params, tasks,
				func(task sched.Task, res ddResult) {
					ledger.Lines = append(ledger.Lines, fmt.Sprintf("#%d %x/%x/%x", task.Index, res.Pkg, res.Core, res.DRAM))
					for _, bits := range []uint64{res.Pkg, res.Core, res.DRAM} {
						ledger.Total += math.Float64frombits(bits)
					}
				})
			return out, ledger, err
		}

		seqOut, seqLedger, err := run(sched.Config{Jobs: 1, Seed: r})
		if err != nil {
			t.Fatalf("round %d in process: %v", round, err)
		}

		out, ledger, err := run(sched.Config{
			Workers:  workers,
			Seed:     r,
			Deadline: 150 * time.Millisecond,
			Spawn:    dist.ChaosSpawner(dist.PipeSpawner(sched.Handle), plan),
		})
		if err != nil {
			if !errors.Is(err, sched.ErrNoWorkers) {
				t.Fatalf("round %d workers=%d: %v", round, workers, err)
			}
			// Chaos consumed every node: the committed prefix must still be
			// an exact prefix of the sequential ledger.
			deadRounds++
			if len(ledger.Lines) > len(seqLedger.Lines) {
				t.Errorf("round %d workers=%d: partial ledger longer than sequential", round, workers)
				continue
			}
			for i := range ledger.Lines {
				if ledger.Lines[i] != seqLedger.Lines[i] {
					t.Errorf("round %d workers=%d: partial ledger diverges at %d:\n  dist %s\n  seq  %s",
						round, workers, i, ledger.Lines[i], seqLedger.Lines[i])
				}
			}
			continue
		}
		if !reflect.DeepEqual(out, seqOut) {
			for i := range out {
				if out[i] != seqOut[i] {
					t.Errorf("round %d (tasks=%d workers=%d) task %d diverged:\n  dist %+v\n  seq  %+v",
						round, tasks, workers, i, out[i], seqOut[i])
				}
			}
		}
		if !reflect.DeepEqual(ledger, seqLedger) {
			t.Errorf("round %d workers=%d: commit ledger diverged:\n  dist total %v\n  seq  total %v",
				round, workers, ledger.Total, seqLedger.Total)
		}
	}
	if chaosRounds == 0 {
		t.Fatal("no chaos rounds ran")
	}
	if deadRounds == rounds {
		t.Fatal("every round lost all workers; comparisons never ran")
	}
	t.Logf("distdiff: %d rounds, %d with chaos, %d lost all workers", rounds, chaosRounds, deadRounds)
}
