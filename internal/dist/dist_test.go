package dist_test

// These tests drive the executor's process placement (internal/sched) over
// this package's transport: in-process pipe workers speaking the full wire
// protocol, with the chaos harness injecting node faults.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jepo/internal/dist"
	"jepo/internal/rapl"
	"jepo/internal/sched"
)

// mixResult is the test kind's task result: a splitmix-style digest of the
// task seed and the package energy sampled from the task's scripted counter
// stream, both pure functions of the task.
type mixResult struct {
	Index int     `json:"index"`
	Bits  uint64  `json:"bits"`
	Joule float64 `json:"joule"`
}

func mix(seed uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sampleScripted reads snaps snapshots through the unwrapping sampler over a
// ScriptedMSR counter stream derived from seed and returns the last one.
// The stream takes small steps with an occasional wrap-sized jump, so the
// sampler unwraps counters and its half-range guard skips backward jumps.
// Rebuilding it from the seed makes a task a pure function: a reassigned
// task replays identically.
func sampleScripted(seed uint64, snaps int) (rapl.Snapshot, error) {
	s := seed
	seq := map[uint32][]uint64{}
	for _, reg := range []uint32{rapl.MSRPkgEnergyStatus, rapl.MSRPP0EnergyStatus, rapl.MSRDRAMEnergyStatus} {
		vals := make([]uint64, 0, snaps)
		c := mix(s) & 0xFFFFFFFF
		for i := 0; i < snaps; i++ {
			s = mix(s)
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
		return rapl.Snapshot{}, err
	}
	var last rapl.Snapshot
	for i := 0; i < snaps; i++ {
		if last, err = sampler.Snapshot(); err != nil {
			return rapl.Snapshot{}, err
		}
	}
	return last, nil
}

type mixParams struct {
	Label string `json:"label"`
}

// mixGate, when set, holds tasks from index from until ch closes. It is
// package state rather than a param so a gated run keeps the ledger
// identity of an ungated one.
type gate struct {
	from int
	ch   <-chan struct{}
}

var mixGate atomic.Pointer[gate]

var mixKind = sched.NewKind("mix", func(_ context.Context, t sched.Task, _ mixParams) (mixResult, error) {
	if g := mixGate.Load(); g != nil && t.Index >= g.from {
		<-g.ch
	}
	snap, err := sampleScripted(t.Seed, 4)
	if err != nil {
		return mixResult{}, err
	}
	return mixResult{Index: t.Index, Bits: mix(t.Seed), Joule: float64(snap.Package)}, nil
})

// pipes places tasks on in-process pipe workers, with the chaos harness
// injecting plan's node faults (none when plan is nil).
func pipes(workers int, seed uint64, plan *dist.FaultPlan) sched.Config {
	return sched.Config{Workers: workers, Seed: seed, Spawn: dist.ChaosSpawner(dist.PipeSpawner(sched.Handle), plan)}
}

// runMix runs an n-task mix map and returns the results, the commit order,
// the joules summed in commit order (float addition does not reassociate,
// so the sum depends on that order), and the telemetry.
func runMix(t *testing.T, cfg sched.Config, n int) ([]mixResult, []int, float64, sched.Telemetry) {
	t.Helper()
	var order []int
	var total float64
	out, tel, err := mixKind.Map(context.Background(), cfg, mixParams{Label: "t"}, n,
		func(task sched.Task, r mixResult) {
			order = append(order, task.Index)
			total += r.Joule
		})
	if err != nil {
		t.Fatalf("map failed: %v", err)
	}
	return out, order, total, tel
}

// TestDispatcherFaultCampaign is the robustness acceptance test: four
// pipe workers, a fault plan that kills two and hangs one mid-map, and the
// requirement that the merged output is bit-identical to the in-process run
// while the node tallies match the plan exactly. Run under -race by
// scripts/check.sh.
func TestDispatcherFaultCampaign(t *testing.T) {
	const n = 24
	seq, seqOrder, seqTotal, _ := runMix(t, sched.Config{Jobs: 1, Seed: 20200518}, n)

	// Node 0 is slowed on every assignment so nodes 1 and 3 are always
	// handed the second tasks their faults are scripted on: unslowed, node
	// 0 could drain the queue first on a loaded host.
	slow := map[int]dist.FaultKind{}
	for i := 0; i < n; i++ {
		slow[i] = dist.FaultSlow
	}
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{
		0: slow,
		1: {1: dist.FaultKill}, // node 1 crashes taking its 2nd task
		2: {0: dist.FaultKill}, // node 2 crashes taking its 1st task
		3: {1: dist.FaultHang}, // node 3 goes silent on its 2nd task
	}, SlowBy: 20 * time.Millisecond}
	cfg := pipes(4, 20200518, plan)
	cfg.Deadline = 250 * time.Millisecond
	got, order, total, tel := runMix(t, cfg, n)

	if len(got) != len(seq) {
		t.Fatalf("result count %d, in-process %d", len(got), len(seq))
	}
	for i := range got {
		if got[i] != seq[i] {
			t.Errorf("task %d drifted: placed %+v, in-process %+v", i, got[i], seq[i])
		}
	}
	for i := range order {
		if order[i] != i || seqOrder[i] != i {
			t.Fatalf("commit order broken at %d: placed %d, in-process %d", i, order[i], seqOrder[i])
		}
	}
	wantBlob, _ := json.Marshal(seq)
	gotBlob, _ := json.Marshal(got)
	if string(wantBlob) != string(gotBlob) {
		t.Errorf("serialized output drifted:\n placed %s\n    seq %s", gotBlob, wantBlob)
	}

	// Node tallies must match the fault plan: two deaths, one deadline
	// timeout, three nodes quarantined, three tasks reassigned.
	if tel.Deaths != 2 {
		t.Errorf("deaths = %d, want 2", tel.Deaths)
	}
	if tel.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", tel.Timeouts)
	}
	if tel.Quarantines != 3 {
		t.Errorf("quarantines = %d, want 3", tel.Quarantines)
	}
	if tel.Reassigned != 3 {
		t.Errorf("reassigned = %d, want 3", tel.Reassigned)
	}
	if !strings.Contains(tel.String(), "quarantined=3") {
		t.Errorf("telemetry %q does not surface the quarantine tally", tel.String())
	}

	// The sum taken in commit order must match the in-process run bit for
	// bit despite the reassignments.
	if math.Float64bits(total) != math.Float64bits(seqTotal) {
		t.Errorf("commit-order sum drifted: placed %v, in-process %v", total, seqTotal)
	}
}

// TestDispatcherCorruptReplies: corrupt result payloads strike the node and
// put its task back; the third strike quarantines it. The output stays
// bit-identical throughout.
func TestDispatcherCorruptReplies(t *testing.T) {
	const n = 12
	seq, _, _, _ := runMix(t, sched.Config{Jobs: 1, Seed: 99}, n)

	// Node 0 is slowed on every assignment so node 1 is always handed three
	// tasks: unslowed, node 0 could drain the queue before node 1's third
	// corrupt reply is read.
	slow := map[int]dist.FaultKind{}
	for i := 0; i < n; i++ {
		slow[i] = dist.FaultSlow
	}
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{
		0: slow,
		1: {0: dist.FaultCorrupt, 1: dist.FaultCorrupt, 2: dist.FaultCorrupt},
	}, SlowBy: 20 * time.Millisecond}
	got, _, _, tel := runMix(t, pipes(2, 99, plan), n)
	for i := range got {
		if got[i] != seq[i] {
			t.Errorf("task %d drifted: %+v vs %+v", i, got[i], seq[i])
		}
	}
	if tel.Corrupt != 3 {
		t.Errorf("corrupt = %d, want 3", tel.Corrupt)
	}
	if tel.Quarantines != 1 {
		t.Errorf("quarantines = %d, want 1 (three strikes)", tel.Quarantines)
	}
	if tel.Reassigned != 3 {
		t.Errorf("reassigned = %d, want 3", tel.Reassigned)
	}
}

var boomKind = sched.NewKind("boom", func(_ context.Context, t sched.Task, _ struct{}) (int, error) {
	if t.Index == 1 {
		panic("kaboom")
	}
	return t.Index, nil
})

// TestDispatcherPanicIsTaskError: a panicking task fails itself, not its
// node — no quarantine, and the error carries the panic.
func TestDispatcherPanicIsTaskError(t *testing.T) {
	got, tel, err := boomKind.Map(context.Background(), pipes(2, 1, nil), struct{}{}, 3, nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic surfaced as task error, got %v", err)
	}
	if tel.Quarantines != 0 || tel.Deaths != 0 {
		t.Errorf("panic cost a node: %s", tel)
	}
	if got[0] != 0 || got[2] != 2 {
		t.Errorf("the other tasks did not finish: %v", got)
	}
}

// TestDispatcherAllWorkersGone: when every node dies with work remaining
// the map errors with ErrNoWorkers instead of hanging, and what it
// committed is an exact index prefix.
func TestDispatcherAllWorkersGone(t *testing.T) {
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{
		0: {1: dist.FaultKill},
		1: {1: dist.FaultKill},
	}}
	var committed []int
	_, _, err := mixKind.Map(context.Background(), pipes(2, 5, plan), mixParams{}, 20,
		func(task sched.Task, _ mixResult) { committed = append(committed, task.Index) })
	if !errors.Is(err, sched.ErrNoWorkers) {
		t.Fatalf("want ErrNoWorkers, got %v", err)
	}
	if len(committed) >= 20 {
		t.Fatalf("committed all %d tasks despite losing every node", len(committed))
	}
	for i, idx := range committed {
		if idx != i {
			t.Fatalf("commit %d has index %d — not an exact prefix: %v", i, idx, committed)
		}
	}
}

// TestDispatcherCheckpointResume: a map that loses every node leaves an
// atomic ledger; the rerun replays what finished and only runs the
// remainder, and the merged output is still bit-identical. A truncated
// ledger is ignored, not trusted.
func TestDispatcherCheckpointResume(t *testing.T) {
	const n = 16
	seq, _, _, _ := runMix(t, sched.Config{Jobs: 1, Seed: 42}, n)

	dir := t.TempDir()
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{
		0: {4: dist.FaultKill},
		1: {4: dist.FaultKill},
	}}
	cfg := pipes(2, 42, plan)
	cfg.Checkpoint = dir
	_, _, err := mixKind.Map(context.Background(), cfg, mixParams{Label: "t"}, n, nil)
	if !errors.Is(err, sched.ErrNoWorkers) {
		t.Fatalf("want first run to lose all workers, got %v", err)
	}
	ledger := filepath.Join(dir, "mix.json")
	if _, err := os.Stat(ledger); err != nil {
		t.Fatalf("no ledger written: %v", err)
	}

	cfg.Spawn = dist.PipeSpawner(sched.Handle)
	got, _, _, tel := runMix(t, cfg, n)
	if tel.Replayed == 0 {
		t.Error("resume replayed nothing; ledger was not used")
	}
	if tel.Replayed+tel.Attempts < n {
		t.Errorf("replayed %d + attempted %d < %d tasks", tel.Replayed, tel.Attempts, n)
	}
	for i := range got {
		if got[i] != seq[i] {
			t.Errorf("task %d drifted after resume: %+v vs %+v", i, got[i], seq[i])
		}
	}

	if err := os.WriteFile(ledger, []byte(`{"kind":"mix","seed":42,"ta`), 0o644); err != nil {
		t.Fatal(err)
	}
	got2, _, _, tel2 := runMix(t, cfg, n)
	if tel2.Replayed != 0 {
		t.Errorf("corrupt ledger replayed %d tasks", tel2.Replayed)
	}
	for i := range got2 {
		if got2[i] != seq[i] {
			t.Errorf("task %d drifted after corrupt-ledger rerun", i)
		}
	}
}

var seedKind = sched.NewKind("seed", func(_ context.Context, t sched.Task, _ struct{}) (uint64, error) {
	return t.Seed, nil
})

// TestWorkerSeedDerivation pins the wire protocol to sched's TaskSeed: a
// worker must see exactly the seed the in-process path computes.
func TestWorkerSeedDerivation(t *testing.T) {
	inline, _, err := seedKind.Map(context.Background(), sched.Config{Jobs: 1, Seed: 20200518}, struct{}{}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	piped, _, err := seedKind.Map(context.Background(), pipes(3, 20200518, nil), struct{}{}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inline {
		if inline[i] != piped[i] || inline[i] != sched.TaskSeed(20200518, i) {
			t.Errorf("task %d seed drifted across the wire: %d vs %d", i, piped[i], inline[i])
		}
	}
}
