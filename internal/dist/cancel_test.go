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

	"jepo/internal/sched"
)

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

// TestDispatchCancelMidCampaign cancels a map on pipe workers mid-flight
// and asserts the executor contract: ctx's error comes back, the committed
// set is an exact index prefix, the worker goroutines drain, and the ledger
// left behind resumes to a final merge — and final ledger — byte-identical
// to an uninterrupted run.
func TestDispatchCancelMidCampaign(t *testing.T) {
	const n = 32

	// Uninterrupted checkpointed reference run.
	refDir := t.TempDir()
	refCfg := pipes(2, 42, nil)
	refCfg.Checkpoint = refDir
	want, _, _, _ := runMix(t, refCfg, n)
	refBytes, err := os.ReadFile(filepath.Join(refDir, "mix.json"))
	if err != nil {
		t.Fatalf("reference run left no ledger: %v", err)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Tasks past the fifth wait for the cancel, so the map cannot have
	// finished by the time the fifth commit cancels it: ungated, one node
	// could run every later task while the other still held task 4, and
	// the commit that cancels would then also commit the rest.
	mixGate.Store(&gate{from: 5, ch: ctx.Done()})
	defer mixGate.Store(nil)
	dir := t.TempDir()
	cfg := pipes(2, 42, nil)
	cfg.Checkpoint = dir
	var mu sync.Mutex
	var committed []int
	_, _, err = mixKind.Map(ctx, cfg, mixParams{Label: "t"}, n,
		func(task sched.Task, r mixResult) {
			mu.Lock()
			committed = append(committed, task.Index)
			if len(committed) == 5 {
				cancel()
			}
			mu.Unlock()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled map returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
	mixGate.Store(nil)

	mu.Lock()
	got := append([]int(nil), committed...)
	mu.Unlock()
	if len(got) == n {
		t.Fatal("cancel did not stop the map")
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("commit %d has index %d — not an exact prefix: %v", i, idx, got)
		}
	}

	// The cancellation saved a valid, resumable ledger.
	ledger := filepath.Join(dir, "mix.json")
	if _, err := os.Stat(ledger); err != nil {
		t.Fatalf("cancel saved no checkpoint ledger: %v", err)
	}
	resumed, _, _, tel := runMix(t, cfg, n)
	if tel.Replayed == 0 {
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

// TestRunInlineCancel cancels the same kind mapped in process (one job,
// inline on the caller) and asserts the same prefix + resumable-ledger
// contract without any worker processes involved.
func TestRunInlineCancel(t *testing.T) {
	const n = 20
	want, _, _, _ := runMix(t, sched.Config{Jobs: 1, Seed: 7}, n)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := sched.Config{Jobs: 1, Seed: 7, Checkpoint: t.TempDir()}
	var committed []int
	_, _, err := mixKind.Map(ctx, cfg, mixParams{Label: "t"}, n,
		func(task sched.Task, r mixResult) {
			committed = append(committed, task.Index)
			if len(committed) == 3 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled in-process map returned %v", err)
	}
	if len(committed) >= n {
		t.Fatal("cancel did not stop the in-process map")
	}
	for i, idx := range committed {
		if idx != i {
			t.Fatalf("in-process commit %d has index %d: %v", i, idx, committed)
		}
	}
	resumed, _, _, tel := runMix(t, cfg, n)
	if tel.Replayed != len(committed) {
		t.Errorf("in-process resume replayed %d tasks, want the %d committed", tel.Replayed, len(committed))
	}
	for i := range resumed {
		if resumed[i] != want[i] {
			t.Errorf("task %d drifted after in-process cancel+resume", i)
		}
	}
}

// TestDispatchPreCancelled asserts an already-dead context spawns and
// commits nothing.
func TestDispatchPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := mixKind.Map(ctx, pipes(2, 1, nil), mixParams{}, 8,
		func(sched.Task, mixResult) { t.Error("pre-cancelled map committed a task") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled map returned %v", err)
	}
}
