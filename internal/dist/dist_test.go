package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jepo/internal/dist"
	"jepo/internal/rapl"
)

// mixResult is the test workload's task result: a splitmix-style digest of
// the task seed plus a synthetic health tally, so both the result bytes
// and the wire-carried Health are pure functions of the task.
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

type mixParams struct {
	Label string `json:"label"`
}

// newMixRegistry serves the "mix" kind: deterministic result and health
// from (index, seed), with an optional induced first-attempt failure for
// tasks whose seed is divisible by failEvery.
func newMixRegistry(failEvery uint64) *dist.Registry {
	reg := dist.NewRegistry()
	var mu sync.Mutex
	tries := make(map[int]int)
	dist.RegisterFuncHealth(reg, "mix", func(task dist.Task, p mixParams) (mixResult, rapl.Health, error) {
		if failEvery > 0 && task.Seed%failEvery == 0 {
			mu.Lock()
			tries[task.Index]++
			first := tries[task.Index] == 1
			mu.Unlock()
			if first {
				return mixResult{}, rapl.Health{}, fmt.Errorf("induced failure on task %d", task.Index)
			}
		}
		r, h := mixTask(task)
		return r, h, nil
	})
	return reg
}

// mixTask is the "mix" kind's result and health for one task.
func mixTask(task dist.Task) (mixResult, rapl.Health) {
	bits := mix(task.Seed)
	return mixResult{
		Index: task.Index,
		Bits:  bits,
		Joule: float64(bits%1000) / 997,
	}, rapl.Health{Reads: 2, Retries: int(task.Seed % 3)}
}

// runMix runs an n-task mix campaign and returns the committed results in
// commit order plus the report.
func runMix(t *testing.T, cfg dist.Config, reg *dist.Registry, n int) ([]mixResult, []int, dist.Report) {
	t.Helper()
	var order []int
	out, rep, err := dist.Map(context.Background(), cfg, reg, "mix", mixParams{Label: "t"}, n,
		func(task dist.Task, r mixResult) { order = append(order, task.Index) })
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	return out, order, rep
}

// TestDispatcherFaultCampaign is the robustness acceptance test: four
// in-process workers, a fault plan that kills two and hangs one
// mid-campaign, and the requirement that the merged output is
// bit-identical to the sequential run while the quarantine tallies match
// the plan exactly. Run under -race by scripts/check.sh.
func TestDispatcherFaultCampaign(t *testing.T) {
	const n = 24
	reg := newMixRegistry(0)
	seq, seqOrder, seqRep := runMix(t, dist.Config{Workers: 1, Seed: 20200518}, reg, n)

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
	cfg := dist.Config{
		Workers:   4,
		Seed:      20200518,
		Deadline:  250 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
		Spawn:     dist.PipeSpawner(reg),
		Plan:      plan,
	}
	got, order, rep := runMix(t, cfg, reg, n)

	if len(got) != len(seq) {
		t.Fatalf("result count %d, sequential %d", len(got), len(seq))
	}
	for i := range got {
		if got[i] != seq[i] {
			t.Errorf("task %d drifted: distributed %+v, sequential %+v", i, got[i], seq[i])
		}
	}
	for i := range order {
		if order[i] != i || seqOrder[i] != i {
			t.Fatalf("commit order broken at %d: dist %d, seq %d", i, order[i], seqOrder[i])
		}
	}
	wantBlob, _ := json.Marshal(seq)
	gotBlob, _ := json.Marshal(got)
	if string(wantBlob) != string(gotBlob) {
		t.Errorf("serialized campaign output drifted:\n dist %s\n  seq %s", gotBlob, wantBlob)
	}

	// Quarantine tallies must match the fault plan: two deaths, one
	// deadline timeout, three nodes quarantined, three tasks reassigned.
	if rep.Deaths != 2 {
		t.Errorf("deaths = %d, want 2", rep.Deaths)
	}
	if rep.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", rep.Timeouts)
	}
	if rep.Quarantines != 3 {
		t.Errorf("quarantines = %d, want 3", rep.Quarantines)
	}
	if rep.Reassigned != 3 {
		t.Errorf("reassigned = %d, want 3", rep.Reassigned)
	}
	quarantined := 0
	for _, nd := range rep.Nodes {
		if nd.Quarantined {
			quarantined++
		}
	}
	if quarantined != 3 {
		t.Errorf("%d nodes marked quarantined, want 3", quarantined)
	}
	if !strings.Contains(rep.String(), "quarantined=3") {
		t.Errorf("report summary %q does not surface the quarantine tally", rep.String())
	}

	// The campaign-wide measurement health merges in commit order, so it
	// must match the sequential run exactly despite the reassignments.
	if rep.Measurement != seqRep.Measurement {
		t.Errorf("merged health drifted: dist %+v, seq %+v", rep.Measurement, seqRep.Measurement)
	}
}

// TestDispatcherTaskRetry: an induced first-attempt task failure must be
// retried within budget and still merge bit-identically; with no retry
// budget the error must surface by lowest index.
func TestDispatcherTaskRetry(t *testing.T) {
	const n = 10
	seqReg := newMixRegistry(0)
	seq, _, _ := runMix(t, dist.Config{Workers: 1, Seed: 7}, seqReg, n)

	reg := newMixRegistry(2) // roughly half the tasks fail once
	cfg := dist.Config{Workers: 3, Seed: 7, Retries: 2, Spawn: dist.PipeSpawner(reg)}
	got, _, rep := runMix(t, cfg, reg, n)
	for i := range got {
		if got[i] != seq[i] {
			t.Errorf("task %d drifted after retry: %+v vs %+v", i, got[i], seq[i])
		}
	}
	if rep.Retried == 0 {
		t.Error("expected induced failures to consume retries")
	}

	noBudget := newMixRegistry(2)
	_, _, err := dist.Map(context.Background(), dist.Config{Workers: 3, Seed: 7, Spawn: dist.PipeSpawner(noBudget)},
		noBudget, "mix", mixParams{}, n, func(dist.Task, mixResult) {})
	if err == nil || !strings.Contains(err.Error(), "induced failure") {
		t.Errorf("want surfaced task error without retry budget, got %v", err)
	}
}

// TestDispatcherCorruptReplies: corrupt result payloads strike the node
// and reassign the task; enough strikes quarantine it. The output stays
// bit-identical throughout.
func TestDispatcherCorruptReplies(t *testing.T) {
	const n = 12
	reg := newMixRegistry(0)
	seq, _, _ := runMix(t, dist.Config{Workers: 1, Seed: 99}, reg, n)

	// Node 0 is slowed on every assignment so node 1 is always handed a
	// second task: unslowed, node 0 could drain the queue before node 1's
	// first corrupt reply is read, leaving one strike and no quarantine.
	slow := map[int]dist.FaultKind{}
	for i := 0; i < n; i++ {
		slow[i] = dist.FaultSlow
	}
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{
		0: slow,
		1: {0: dist.FaultCorrupt, 1: dist.FaultCorrupt},
	}, SlowBy: 20 * time.Millisecond}
	cfg := dist.Config{Workers: 2, Seed: 99, Strikes: 2, Spawn: dist.PipeSpawner(reg), Plan: plan}
	got, _, rep := runMix(t, cfg, reg, n)
	for i := range got {
		if got[i] != seq[i] {
			t.Errorf("task %d drifted: %+v vs %+v", i, got[i], seq[i])
		}
	}
	if rep.Corrupt != 2 {
		t.Errorf("corrupt = %d, want 2", rep.Corrupt)
	}
	if rep.Quarantines != 1 {
		t.Errorf("quarantines = %d, want 1 (strikes=2)", rep.Quarantines)
	}
}

// TestDispatcherPanicIsTaskError: a panicking runner fails the task, not
// the node — no quarantine, and the error carries the panic.
func TestDispatcherPanicIsTaskError(t *testing.T) {
	reg := dist.NewRegistry()
	dist.RegisterFunc(reg, "boom", func(task dist.Task, _ struct{}) (int, error) {
		if task.Index == 1 {
			panic("kaboom")
		}
		return task.Index, nil
	})
	_, rep, err := dist.Map[struct{}, int](context.Background(), dist.Config{Workers: 2, Seed: 1, Spawn: dist.PipeSpawner(reg)},
		reg, "boom", struct{}{}, 3, nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic surfaced as task error, got %v", err)
	}
	if rep.Quarantines != 0 || rep.Deaths != 0 {
		t.Errorf("panic cost a node: %s", rep)
	}
}

// TestDispatcherAllWorkersGone: when every node dies with work remaining
// the campaign errors with ErrNoWorkers instead of hanging.
func TestDispatcherAllWorkersGone(t *testing.T) {
	reg := newMixRegistry(0)
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{
		0: {1: dist.FaultKill},
		1: {1: dist.FaultKill},
	}}
	cfg := dist.Config{Workers: 2, Seed: 5, Spawn: dist.PipeSpawner(reg), Plan: plan}
	_, _, err := dist.Map[mixParams, mixResult](context.Background(), cfg, reg, "mix", mixParams{}, 20, nil)
	if !errors.Is(err, dist.ErrNoWorkers) {
		t.Fatalf("want ErrNoWorkers, got %v", err)
	}
}

// TestDispatcherCheckpointResume: a campaign that dies with every node
// leaves an atomic ledger; the rerun replays the completed prefix and only
// measures the remainder, and the merged output is still bit-identical.
func TestDispatcherCheckpointResume(t *testing.T) {
	const n = 16
	reg := newMixRegistry(0)
	seq, _, _ := runMix(t, dist.Config{Workers: 1, Seed: 42}, reg, n)

	ledger := filepath.Join(t.TempDir(), "campaign.json")
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{
		0: {4: dist.FaultKill},
		1: {4: dist.FaultKill},
	}}
	cfg := dist.Config{Workers: 2, Seed: 42, Checkpoint: ledger, Spawn: dist.PipeSpawner(reg), Plan: plan}
	_, _, err := dist.Map[mixParams, mixResult](context.Background(), cfg, reg, "mix", mixParams{Label: "t"}, n, nil)
	if !errors.Is(err, dist.ErrNoWorkers) {
		t.Fatalf("want first run to lose all workers, got %v", err)
	}
	if _, err := os.Stat(ledger); err != nil {
		t.Fatalf("no ledger written: %v", err)
	}

	cfg.Plan = nil
	got, _, rep := runMix(t, cfg, reg, n)
	if rep.Replayed == 0 {
		t.Error("resume replayed nothing; ledger was not used")
	}
	if rep.Replayed+rep.Assigned < n {
		t.Errorf("replayed %d + assigned %d < %d tasks", rep.Replayed, rep.Assigned, n)
	}
	for i := range got {
		if got[i] != seq[i] {
			t.Errorf("task %d drifted after resume: %+v vs %+v", i, got[i], seq[i])
		}
	}

	// A truncated ledger must be ignored, not trusted.
	if err := os.WriteFile(ledger, []byte(`{"kind":"mix","seed":42,"ta`), 0o644); err != nil {
		t.Fatal(err)
	}
	got2, _, rep2 := runMix(t, cfg, reg, n)
	if rep2.Replayed != 0 {
		t.Errorf("corrupt ledger replayed %d tasks", rep2.Replayed)
	}
	for i := range got2 {
		if got2[i] != seq[i] {
			t.Errorf("task %d drifted after corrupt-ledger rerun", i)
		}
	}
}

// TestAtomicWriteFile: the write lands complete under the final name and
// leaves no temp litter behind.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := dist.AtomicWriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dist.AtomicWriteFile(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil || string(blob) != "second" {
		t.Fatalf("read %q, %v; want %q", blob, err, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter left behind: %v", entries)
	}
}

// TestParseFaultPlan covers the scripted spec grammar.
func TestParseFaultPlan(t *testing.T) {
	plan, err := dist.ParseFaultPlan("1:kill@1; 2:hang@0;3:corrupt@2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]map[int]dist.FaultKind{
		1: {1: dist.FaultKill},
		2: {0: dist.FaultHang},
		3: {2: dist.FaultCorrupt},
	}
	for node, faults := range want {
		for nth, kind := range faults {
			if plan.Script[node][nth] != kind {
				t.Errorf("node %d nth %d = %v, want %v", node, nth, plan.Script[node][nth], kind)
			}
		}
	}
	for _, bad := range []string{"", "x", "1:frob@0", "a:kill@0", "1:kill@-1", "1:kill"} {
		if _, err := dist.ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q parsed; want error", bad)
		}
	}
}

// TestWorkerSeedDerivation pins the wire protocol to sched's TaskSeed: a
// worker must see exactly the seed the inline path computes.
func TestWorkerSeedDerivation(t *testing.T) {
	reg := dist.NewRegistry()
	dist.RegisterFunc(reg, "seed", func(task dist.Task, _ struct{}) (uint64, error) {
		return task.Seed, nil
	})
	inline, _, err := dist.Map[struct{}, uint64](context.Background(), dist.Config{Workers: 1, Seed: 20200518}, reg, "seed", struct{}{}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	piped, _, err := dist.Map[struct{}, uint64](context.Background(), dist.Config{Workers: 3, Seed: 20200518, Spawn: dist.PipeSpawner(reg)},
		reg, "seed", struct{}{}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inline {
		if inline[i] != piped[i] {
			t.Errorf("task %d seed drifted across the wire: %d vs %d", i, piped[i], inline[i])
		}
	}
}
