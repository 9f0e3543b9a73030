//go:build scheddiff

// Differential fuzz for the deterministic pool, gated behind -tags scheddiff
// (wired into scripts/check.sh and `make scheddiff`). Every round draws a
// random task count, random worker counts and a random fault plan, then runs
// the same measurement workload sequentially and at each worker count: every
// task builds its own ScriptedMSR counter stream from task.Seed, corrupts it
// with a seeded random fault injector, reads it through the unwrapping
// sampler and the resilient wrapper, and returns the final snapshot bits plus
// the source's Health ledger. The merged results — per-task records, the
// index-ordered commit ledger, and the accumulated Health tally — must be
// identical at every worker count, including rounds where permanent faults
// kill sources mid-run.
package sched_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"jepo/internal/rapl"
	"jepo/internal/sched"
)

// diffMix advances a splitmix64 stream; the fuzz derives every round
// parameter from it so failures reproduce from the master seed alone.
func diffMix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// diffResult is one task's complete observable outcome. Errors are carried as
// strings rather than returned, so every round produces a full-length result
// slice to compare regardless of how many sources died.
type diffResult struct {
	Pkg, Core, DRAM uint64 // float64 bit patterns of the final snapshot
	Health          rapl.Health
	Err             string
}

// diffMeasure is the per-task workload: a scripted counter stream derived
// from seed, random faults at the round's rates, sampler unwrap, resilient
// retry. Rebuilding the whole pipeline from the seed makes the task a pure
// function — a retried attempt replays identically.
func diffMeasure(seed uint64, snaps int, rates rapl.FaultRates) diffResult {
	s := seed
	seq := map[uint32][]uint64{}
	for _, reg := range []uint32{rapl.MSRPkgEnergyStatus, rapl.MSRPP0EnergyStatus, rapl.MSRDRAMEnergyStatus} {
		// Enough values to survive per-read retries; the script holds its
		// final value once exhausted, like a counter between increments.
		n := snaps*4 + 8
		vals := make([]uint64, 0, n)
		c := diffMix(s) & 0xFFFFFFFF
		for i := 0; i < n; i++ {
			s = diffMix(s)
			// Small increments with an occasional wraparound-sized jump so the
			// sampler's unwrap and stale-delta paths both get exercised.
			step := s % 50_000
			if s%97 == 0 {
				step = s % (1 << 33)
			}
			c = (c + step) & 0xFFFFFFFF
			vals = append(vals, c)
		}
		seq[reg] = vals
	}
	faulty := rapl.NewRandomFaultyMSR(&rapl.ScriptedMSR{Seq: seq}, diffMix(seed^0xfeedface), rates)
	sampler, err := rapl.NewSampler(faulty)
	if err != nil {
		return diffResult{Err: err.Error()}
	}
	res := rapl.NewResilient(sampler, rapl.WithRetries(2), rapl.WithBackoff(func(int) {}))
	var last rapl.Snapshot
	for i := 0; i < snaps; i++ {
		snap, err := res.Snapshot()
		if err != nil {
			return diffResult{Health: res.Health(), Err: err.Error()}
		}
		last = snap
	}
	return diffResult{
		Pkg:    math.Float64bits(float64(last.Package)),
		Core:   math.Float64bits(float64(last.Core)),
		DRAM:   math.Float64bits(float64(last.DRAM)),
		Health: res.Health(),
	}
}

// diffLedger is the order-sensitive reduction committed on the caller
// goroutine: the concatenated per-task lines and the accumulated Health
// tally, both of which depend on commit order.
type diffLedger struct {
	Lines []string
	Total rapl.Health
}

// TestSchedDifferentialFuzz runs 48 rounds of the sequential-vs-parallel
// comparison.
func TestSchedDifferentialFuzz(t *testing.T) {
	const master = uint64(20200518)
	const rounds = 48
	for round := 0; round < rounds; round++ {
		r := sched.TaskSeed(master, round)
		tasks := 1 + int(diffMix(r)%40)
		snaps := 2 + int(diffMix(r^1)%6)
		rates := rapl.FaultRates{
			Transient: float64(diffMix(r^2)%30) / 100,
			Stale:     float64(diffMix(r^3)%25) / 100,
		}
		if round%5 == 4 {
			rates.Permanent = 0.05 // some rounds kill sources outright
		}
		workerSets := []int{2, 3, 1 + int(diffMix(r^4)%8)}

		run := func(jobs int) ([]diffResult, diffLedger, sched.Telemetry) {
			var ledger diffLedger
			out, tel, err := sched.MapCommit(
				context.Background(),
				sched.Config{Jobs: jobs, Seed: r},
				make([]struct{}, tasks),
				func(task sched.Task, _ struct{}) (diffResult, error) {
					return diffMeasure(task.Seed, snaps, rates), nil
				},
				func(task sched.Task, res diffResult) {
					ledger.Lines = append(ledger.Lines,
						fmt.Sprintf("#%d %x/%x/%x %s err=%q", task.Index, res.Pkg, res.Core, res.DRAM, res.Health, res.Err))
					ledger.Total = ledger.Total.Add(res.Health)
				})
			if err != nil {
				t.Fatalf("round %d jobs=%d: %v", round, jobs, err)
			}
			return out, ledger, tel
		}

		seqOut, seqLedger, seqTel := run(1)
		for _, jobs := range workerSets {
			out, ledger, tel := run(jobs)
			if !reflect.DeepEqual(out, seqOut) {
				for i := range out {
					if out[i] != seqOut[i] {
						t.Errorf("round %d (tasks=%d rates=%+v) jobs=%d: task %d diverged:\n  par %+v\n  seq %+v",
							round, tasks, rates, jobs, i, out[i], seqOut[i])
					}
				}
			}
			if !reflect.DeepEqual(ledger, seqLedger) {
				t.Errorf("round %d jobs=%d: commit ledger diverged:\n  par total %s\n  seq total %s",
					round, jobs, ledger.Total, seqLedger.Total)
			}
			if tel.Tasks != seqTel.Tasks || tel.Attempts != seqTel.Attempts || tel.Panics != seqTel.Panics {
				t.Errorf("round %d jobs=%d: telemetry counts diverged: tasks %d/%d attempts %d/%d panics %d/%d",
					round, jobs, tel.Tasks, seqTel.Tasks, tel.Attempts, seqTel.Attempts, tel.Panics, seqTel.Panics)
			}
		}
	}
}
