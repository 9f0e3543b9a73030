//go:build scheddiff

// Differential fuzz for the deterministic pool, gated behind -tags scheddiff
// (wired into scripts/check.sh and `make scheddiff`). Every round draws a
// random task count, snapshot count and worker counts, then runs the same
// measurement workload sequentially and at each worker count: every task
// builds its own ScriptedMSR counter stream from task.Seed, with wraps and
// backward jumps, reads it through the unwrapping sampler, and returns the
// final snapshot bits. The merged results — per-task records, the
// index-ordered commit ledger, and the joules summed in commit order — must
// be identical at every worker count.
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

// diffResult is one task's complete observable outcome: the float64 bit
// patterns of the final snapshot.
type diffResult struct {
	Pkg, Core, DRAM uint64
}

// diffMeasure is the per-task workload: a scripted counter stream derived
// from seed, read through the unwrapping sampler. Rebuilding the whole
// pipeline from the seed makes the task a pure function — a retried attempt
// replays identically.
func diffMeasure(seed uint64, snaps int) (diffResult, error) {
	s := seed
	seq := map[uint32][]uint64{}
	for _, reg := range []uint32{rapl.MSRPkgEnergyStatus, rapl.MSRPP0EnergyStatus, rapl.MSRDRAMEnergyStatus} {
		vals := make([]uint64, 0, snaps)
		c := diffMix(s) & 0xFFFFFFFF
		for i := 0; i < snaps; i++ {
			s = diffMix(s)
			// Small increments with an occasional wraparound-sized jump so the
			// sampler's unwrap and its half-range guard both get exercised.
			step := s % 50_000
			if s%97 == 0 {
				step = s % (1 << 33)
			}
			c = (c + step) & 0xFFFFFFFF
			vals = append(vals, c)
		}
		seq[reg] = vals
	}
	sampler, err := rapl.NewSampler(&rapl.ScriptedMSR{Seq: seq})
	if err != nil {
		return diffResult{}, err
	}
	var last rapl.Snapshot
	for i := 0; i < snaps; i++ {
		if last, err = sampler.Snapshot(); err != nil {
			return diffResult{}, err
		}
	}
	return diffResult{
		Pkg:  math.Float64bits(float64(last.Package)),
		Core: math.Float64bits(float64(last.Core)),
		DRAM: math.Float64bits(float64(last.DRAM)),
	}, nil
}

// diffLedger is the order-sensitive reduction committed on the caller
// goroutine: the concatenated per-task lines and the joules summed in commit
// order, both of which depend on commit order.
type diffLedger struct {
	Lines []string
	Total float64
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
		workerSets := []int{2, 3, 1 + int(diffMix(r^4)%8)}

		run := func(jobs int) ([]diffResult, diffLedger, sched.Telemetry) {
			var ledger diffLedger
			out, tel, err := sched.MapCommit(
				context.Background(),
				sched.Config{Jobs: jobs, Seed: r},
				make([]struct{}, tasks),
				func(task sched.Task, _ struct{}) (diffResult, error) {
					return diffMeasure(task.Seed, snaps)
				},
				func(task sched.Task, res diffResult) {
					ledger.Lines = append(ledger.Lines, fmt.Sprintf("#%d %x/%x/%x", task.Index, res.Pkg, res.Core, res.DRAM))
					for _, bits := range []uint64{res.Pkg, res.Core, res.DRAM} {
						ledger.Total += math.Float64frombits(bits)
					}
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
						t.Errorf("round %d (tasks=%d snaps=%d) jobs=%d: task %d diverged:\n  par %+v\n  seq %+v",
							round, tasks, snaps, jobs, i, out[i], seqOut[i])
					}
				}
			}
			if !reflect.DeepEqual(ledger, seqLedger) {
				t.Errorf("round %d jobs=%d: commit ledger diverged:\n  par total %v\n  seq total %v",
					round, jobs, ledger.Total, seqLedger.Total)
			}
			if tel.Tasks != seqTel.Tasks || tel.Attempts != seqTel.Attempts || tel.Panics != seqTel.Panics {
				t.Errorf("round %d jobs=%d: telemetry counts diverged: tasks %d/%d attempts %d/%d panics %d/%d",
					round, jobs, tel.Tasks, seqTel.Tasks, tel.Attempts, seqTel.Attempts, tel.Panics, seqTel.Panics)
			}
		}
	}
}
