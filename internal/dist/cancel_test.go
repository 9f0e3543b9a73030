package dist_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"jepo/internal/dist"
	"jepo/internal/rapl"
)

// gatedMixRegistry serves "mix" like newMixRegistry(0), except that tasks
// from index from on wait for gate to close before they run.
func gatedMixRegistry(from int, gate <-chan struct{}) *dist.Registry {
	reg := dist.NewRegistry()
	dist.RegisterFuncHealth(reg, "mix", func(task dist.Task, _ mixParams) (mixResult, rapl.Health, error) {
		if task.Index >= from {
			<-gate
		}
		r, h := mixTask(task)
		return r, h, nil
	})
	return reg
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDispatchCancelMidCampaign cancels an in-process (PipeSpawner)
// campaign mid-flight and asserts the dispatcher contract: ctx's error
// comes back, the committed set is an exact index prefix, the worker
// goroutines drain, and the checkpoint ledger left behind resumes to a
// final merge — and final ledger — byte-identical to an uninterrupted run.
func TestDispatchCancelMidCampaign(t *testing.T) {
	const n = 32
	reg := newMixRegistry(0)

	// Uninterrupted checkpointed reference run.
	refLedger := filepath.Join(t.TempDir(), "ref.json")
	want, _, _ := runMix(t, dist.Config{Workers: 2, Seed: 42, Checkpoint: refLedger, Spawn: dist.PipeSpawner(reg)}, reg, n)
	refBytes, err := os.ReadFile(refLedger)
	if err != nil {
		t.Fatalf("reference run left no ledger: %v", err)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Tasks past the fifth wait for the cancel, so the campaign cannot have
	// finished by the time the fifth commit cancels it: ungated, one node
	// could run every later task while the other still held task 4, and
	// the commit that cancels would then also commit the rest.
	gated := gatedMixRegistry(5, ctx.Done())
	ledger := filepath.Join(t.TempDir(), "campaign.json")
	cfg := dist.Config{Workers: 2, Seed: 42, Checkpoint: ledger, Spawn: dist.PipeSpawner(gated)}
	var mu sync.Mutex
	var committed []int
	_, _, err = dist.Map(ctx, cfg, gated, "mix", mixParams{Label: "t"}, n,
		func(task dist.Task, r mixResult) {
			mu.Lock()
			committed = append(committed, task.Index)
			if len(committed) == 5 {
				cancel()
			}
			mu.Unlock()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)

	mu.Lock()
	got := append([]int(nil), committed...)
	mu.Unlock()
	if len(got) == n {
		t.Fatal("cancel did not stop the campaign")
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("commit %d has index %d — not an exact prefix: %v", i, idx, got)
		}
	}

	// The cancellation saved a valid, resumable ledger.
	if _, err := os.Stat(ledger); err != nil {
		t.Fatalf("cancel saved no checkpoint ledger: %v", err)
	}
	resumed, _, rep := runMix(t, dist.Config{Workers: 2, Seed: 42, Checkpoint: ledger, Spawn: dist.PipeSpawner(reg)}, reg, n)
	if rep.Replayed == 0 {
		t.Error("resume replayed nothing from the cancelled run's ledger")
	}
	for i := range resumed {
		if resumed[i] != want[i] {
			t.Errorf("task %d drifted after cancel+resume: %+v vs %+v", i, resumed[i], want[i])
		}
	}
	gotBytes, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(refBytes) {
		t.Error("final ledger after cancel+resume is not byte-identical to the uninterrupted run's")
	}
}

// TestRunInlineCancel cancels the Workers<=1 inline path and asserts the
// same prefix + resumable-ledger contract without any processes involved.
func TestRunInlineCancel(t *testing.T) {
	const n = 20
	reg := newMixRegistry(0)
	want, _, _ := runMix(t, dist.Config{Workers: 1, Seed: 7}, reg, n)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ledger := filepath.Join(t.TempDir(), "inline.json")
	var committed []int
	_, _, err := dist.Map(ctx, dist.Config{Workers: 1, Seed: 7, Checkpoint: ledger}, reg, "mix", mixParams{Label: "t"}, n,
		func(task dist.Task, r mixResult) {
			committed = append(committed, task.Index)
			if len(committed) == 3 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled inline run returned %v", err)
	}
	if len(committed) >= n {
		t.Fatal("cancel did not stop the inline run")
	}
	for i, idx := range committed {
		if idx != i {
			t.Fatalf("inline commit %d has index %d: %v", i, idx, committed)
		}
	}
	resumed, _, rep := runMix(t, dist.Config{Workers: 1, Seed: 7, Checkpoint: ledger}, reg, n)
	if rep.Replayed == 0 {
		t.Error("inline resume replayed nothing")
	}
	for i := range resumed {
		if resumed[i] != want[i] {
			t.Errorf("task %d drifted after inline cancel+resume", i)
		}
	}
}

// TestDispatchPreCancelled asserts an already-dead context spawns nothing.
func TestDispatchPreCancelled(t *testing.T) {
	reg := newMixRegistry(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := dist.Map(ctx, dist.Config{Workers: 2, Seed: 1, Spawn: dist.PipeSpawner(reg)}, reg, "mix", mixParams{}, 8,
		func(dist.Task, mixResult) { t.Error("pre-cancelled campaign committed a task") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled campaign returned %v", err)
	}
}
