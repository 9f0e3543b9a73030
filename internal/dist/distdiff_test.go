//go:build distdiff

// Differential fuzz for the executor's process placement over this
// package's transport, gated behind -tags distdiff (wired into
// scripts/check.sh and `make distdiff`), the process counterpart of the
// sched pool's scheddiff fuzz. Every round draws a random task count,
// worker count and chaos plan (kills, hangs, slow-walks, corrupted replies
// at seeded random rates), then runs the same measurement kind in process
// and on pipe workers: every task rebuilds a ScriptedMSR counter stream
// from task.Seed, corrupts it with a seeded fault injector, and reads it
// through the resilient wrapper — a pure function of the task seed, so
// reassigned tasks replay identically. The per-task results, the
// index-ordered commit ledger and the Health tally merged in commit order
// must be bit-identical to the in-process run at every worker count, no
// matter which nodes the chaos plan takes down. Rounds where chaos kills
// every worker must fail with ErrNoWorkers and leave an exact prefix of
// the in-process ledger.
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
	"jepo/internal/rapl"
	"jepo/internal/sched"
)

func ddMix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ddParams is the per-round campaign parameter block shipped to workers.
type ddParams struct {
	Snaps     int     `json:"snaps"`
	Transient float64 `json:"transient"`
	Stale     float64 `json:"stale"`
	Permanent float64 `json:"permanent"`
}

// ddResult is one task's complete observable outcome; errors ride as
// strings so dead-source rounds still produce comparable records.
type ddResult struct {
	Pkg    uint64      `json:"pkg"`
	Core   uint64      `json:"core"`
	DRAM   uint64      `json:"dram"`
	Health rapl.Health `json:"health"`
	Err    string      `json:"err"`
}

// ddMeasure mirrors scheddiff's workload: a scripted counter stream derived
// from the task seed, random read faults, resilient retries.
func ddMeasure(seed uint64, p ddParams) ddResult {
	s := seed
	seq := map[uint32][]uint64{}
	for _, reg := range []uint32{rapl.MSRPkgEnergyStatus, rapl.MSRPP0EnergyStatus, rapl.MSRDRAMEnergyStatus} {
		n := p.Snaps*4 + 8
		vals := make([]uint64, 0, n)
		c := ddMix(s) & 0xFFFFFFFF
		for i := 0; i < n; i++ {
			s = ddMix(s)
			step := s % 50_000
			if s%97 == 0 {
				step = s % (1 << 33)
			}
			c = (c + step) & 0xFFFFFFFF
			vals = append(vals, c)
		}
		seq[reg] = vals
	}
	rates := rapl.FaultRates{Transient: p.Transient, Stale: p.Stale, Permanent: p.Permanent}
	faulty := rapl.NewRandomFaultyMSR(&rapl.ScriptedMSR{Seq: seq}, ddMix(seed^0xfeedface), rates)
	sampler, err := rapl.NewSampler(faulty)
	if err != nil {
		return ddResult{Err: err.Error()}
	}
	res := rapl.NewResilient(sampler, rapl.WithRetries(2), rapl.WithBackoff(func(int) {}))
	var last rapl.Snapshot
	for i := 0; i < p.Snaps; i++ {
		snap, err := res.Snapshot()
		if err != nil {
			return ddResult{Health: res.Health(), Err: err.Error()}
		}
		last = snap
	}
	return ddResult{
		Pkg:    math.Float64bits(float64(last.Package)),
		Core:   math.Float64bits(float64(last.Core)),
		DRAM:   math.Float64bits(float64(last.DRAM)),
		Health: res.Health(),
	}
}

var ddKind = sched.NewKind("ddmeasure", func(_ context.Context, t sched.Task, p ddParams) (ddResult, error) {
	return ddMeasure(t.Seed, p), nil
})

// ddLedger is the order-sensitive commit reduction.
type ddLedger struct {
	Lines []string
	Total rapl.Health
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
		params := ddParams{
			Snaps:     2 + int(ddMix(r^2)%5),
			Transient: float64(ddMix(r^3)%30) / 100,
			Stale:     float64(ddMix(r^4)%25) / 100,
		}
		if round%5 == 4 {
			params.Permanent = 0.05
		}
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
					ledger.Lines = append(ledger.Lines,
						fmt.Sprintf("#%d %x/%x/%x %s err=%q", task.Index, res.Pkg, res.Core, res.DRAM, res.Health, res.Err))
					ledger.Total = ledger.Total.Add(res.Health)
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
			Spawn:    dist.PipeSpawner(sched.Handle),
			Plan:     plan,
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
				if !reflect.DeepEqual(out[i], seqOut[i]) {
					t.Errorf("round %d (tasks=%d workers=%d) task %d diverged:\n  dist %+v\n  seq  %+v",
						round, tasks, workers, i, out[i], seqOut[i])
				}
			}
		}
		if !reflect.DeepEqual(ledger, seqLedger) {
			t.Errorf("round %d workers=%d: commit ledger diverged:\n  dist total %s\n  seq  total %s",
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
