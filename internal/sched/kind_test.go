package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// squareParams parameterizes the test kind. Which tasks fail is package
// state (squareFail), not a param, so a rerun with the same params — and so
// the same ledger identity — can stop failing.
type squareParams struct {
	Offset int `json:"offset"`
}

var (
	squareMu    sync.Mutex
	squareFail  = map[int]bool{}
	squareCalls []int
)

var squareKind = NewSetupKind("sched-test-square", func(p squareParams) (squareParams, error) { return p, nil },
	func(_ context.Context, t Task, p squareParams) (uint64, error) {
		squareMu.Lock()
		squareCalls = append(squareCalls, t.Index)
		fail := squareFail[t.Index]
		squareMu.Unlock()
		if fail {
			return 0, fmt.Errorf("task %d: induced failure", t.Index)
		}
		return uint64(t.Index+p.Offset)*uint64(t.Index+p.Offset) ^ t.Seed, nil
	})

// resetSquare sets which tasks fail and clears the call log.
func resetSquare(fail ...int) {
	squareMu.Lock()
	defer squareMu.Unlock()
	squareFail = map[int]bool{}
	for _, i := range fail {
		squareFail[i] = true
	}
	squareCalls = nil
}

func squareCallsSorted() []int {
	squareMu.Lock()
	defer squareMu.Unlock()
	out := append([]int(nil), squareCalls...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestKindMatchesMapCommit: a kind returns what the same function mapped as
// a closure returns, commits in index order, and renders the pool's
// telemetry line.
func TestKindMatchesMapCommit(t *testing.T) {
	resetSquare()
	const n = 23
	p := squareParams{Offset: 3}
	want, _, err := MapCommit(context.Background(), Config{Jobs: 1, Seed: 9}, make([]struct{}, n),
		func(task Task, _ struct{}) (uint64, error) {
			return uint64(task.Index+3)*uint64(task.Index+3) ^ task.Seed, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		var order []int
		got, tel, err := squareKind.Map(context.Background(), Config{Jobs: jobs, Seed: 9}, p, n,
			func(task Task, _ uint64) { order = append(order, task.Index) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d: kind results diverge from MapCommit", jobs)
		}
		for i, idx := range order {
			if idx != i {
				t.Fatalf("jobs=%d: commit order %v", jobs, order)
			}
		}
		if s := tel.String(); !strings.Contains(s, fmt.Sprintf("tasks=%d attempts=%d panics=0", n, n)) {
			t.Errorf("jobs=%d: telemetry line changed: %q", jobs, s)
		}
	}
}

// TestKindLedgerRetriesExactlyTheFailures: a checkpointed map records only
// the tasks that finished without error, so the rerun over its ledger runs
// exactly the failed tasks and replays the rest, ending byte-identical to a
// clean run.
func TestKindLedgerRetriesExactlyTheFailures(t *testing.T) {
	const n = 12
	p := squareParams{Offset: 1}
	resetSquare()
	want, _, err := squareKind.Map(context.Background(), Config{Jobs: 3, Seed: 4}, p, n, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{Jobs: 3, Seed: 4, Checkpoint: dir}
	resetSquare(2, 7)
	_, _, err = squareKind.Map(context.Background(), cfg, p, n, nil)
	var failed Errors
	if !errors.As(err, &failed) || failed[2] == nil || failed[7] == nil || !strings.Contains(err.Error(), "task 2") {
		t.Fatalf("first run: err = %v, want task errors for 2 and 7 reading as task 2's", err)
	}
	resetSquare()
	got, tel, err := squareKind.Map(context.Background(), cfg, p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls := squareCallsSorted(); !reflect.DeepEqual(calls, []int{2, 7}) {
		t.Errorf("rerun ran tasks %v, want exactly the failures [2 7]", calls)
	}
	if tel.Replayed != n-2 {
		t.Errorf("replayed = %d, want %d", tel.Replayed, n-2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed results diverge from a clean run:\n got %v\nwant %v", got, want)
	}
}

// cancelResult carries a float, so a result replayed from the ledger must
// round-trip its bits through the ledger's JSON.
type cancelResult struct {
	Bits  uint64  `json:"bits"`
	Joule float64 `json:"joule"`
}

var cancelKind = NewSetupKind("sched-test-cancel", func(p squareParams) (squareParams, error) { return p, nil },
	func(_ context.Context, t Task, p squareParams) (cancelResult, error) {
		return cancelResult{Bits: t.Seed, Joule: float64(t.Seed>>11) / (1 << 53) * float64(t.Index+p.Offset)}, nil
	})

// TestRunInlineCancel cancels a kind mapped inline (one job) at its third
// commit and asserts the contract: ctx's error comes back, the committed
// set is an exact index prefix, and a rerun over the ledger the cancelled
// map saved replays exactly that prefix, ending with results (float bits
// included) and a final ledger byte-identical to an uninterrupted run's.
func TestRunInlineCancel(t *testing.T) {
	const n = 20
	p := squareParams{Offset: 5}
	refDir := t.TempDir()
	want, _, err := cancelKind.Map(context.Background(), Config{Jobs: 1, Seed: 7, Checkpoint: refDir}, p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	refLedger, err := os.ReadFile(filepath.Join(refDir, "sched-test-cancel.json"))
	if err != nil {
		t.Fatalf("reference run left no ledger: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	cfg := Config{Jobs: 1, Seed: 7, Checkpoint: dir}
	var committed []int
	_, _, err = cancelKind.Map(ctx, cfg, p, n, func(task Task, _ cancelResult) {
		committed = append(committed, task.Index)
		if len(committed) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled map returned %v, want context.Canceled", err)
	}
	if len(committed) >= n {
		t.Fatal("cancel did not stop the map")
	}
	for i, idx := range committed {
		if idx != i {
			t.Fatalf("commit %d has index %d: %v", i, idx, committed)
		}
	}

	resumed, tel, err := cancelKind.Map(context.Background(), cfg, p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Replayed != len(committed) {
		t.Errorf("resume replayed %d tasks, want the %d committed", tel.Replayed, len(committed))
	}
	if !reflect.DeepEqual(resumed, want) {
		t.Errorf("results drifted after cancel+resume:\n got %v\nwant %v", resumed, want)
	}
	gotLedger, err := os.ReadFile(filepath.Join(dir, "sched-test-cancel.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLedger, refLedger) {
		t.Error("final ledger after cancel+resume is not byte-identical to the uninterrupted run's")
	}
}

// TestLedgerRejectsBadFiles: a truncated ledger, one written by a map with a
// different identity (seed, params or task count), and a missing one all
// replay nothing; an entry that does not decode is re-run, not trusted.
func TestLedgerRejectsBadFiles(t *testing.T) {
	const n = 6
	p := squareParams{Offset: 2}
	dir := t.TempDir()
	path := filepath.Join(dir, "sched-test-square.json")
	var events []string
	cfg := Config{Jobs: 1, Seed: 11, Checkpoint: dir, OnEvent: func(s string) { events = append(events, s) }}

	resetSquare()
	if _, _, err := squareKind.Map(context.Background(), cfg, p, n, nil); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no ledger written: %v", err)
	}
	rerun := func(cfg Config, p squareParams, n int) int {
		t.Helper()
		resetSquare()
		if _, _, err := squareKind.Map(context.Background(), cfg, p, n, nil); err != nil {
			t.Fatal(err)
		}
		return len(squareCallsSorted())
	}
	if ran := rerun(cfg, p, n); ran != 0 {
		t.Errorf("intact ledger: ran %d tasks, want 0", ran)
	}

	for _, tc := range []struct {
		name string
		cfg  Config
		p    squareParams
		n    int
	}{
		{"seed", Config{Jobs: 1, Seed: 12, Checkpoint: dir, OnEvent: cfg.OnEvent}, p, n},
		{"params", cfg, squareParams{Offset: 3}, n},
		{"tasks", cfg, p, n + 1},
	} {
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		events = nil
		if ran := rerun(tc.cfg, tc.p, tc.n); ran != tc.n {
			t.Errorf("mismatched %s: ran %d tasks, want all %d", tc.name, ran, tc.n)
		}
		if len(events) == 0 || !strings.Contains(events[0], "does not match") {
			t.Errorf("mismatched %s: no note, events %q", tc.name, events)
		}
	}

	if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if ran := rerun(cfg, p, n); ran != n {
		t.Errorf("truncated ledger: ran %d tasks, want all %d", ran, n)
	}

	if err := os.WriteFile(path, []byte(strings.Replace(string(good), `"0":`, `"0": "not a number", "x":`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if ran := rerun(cfg, p, n); ran != 1 {
		t.Errorf("ledger with one undecodable entry: ran %d tasks, want 1", ran)
	}

	os.Remove(path)
	if ran := rerun(cfg, p, n); ran != n {
		t.Errorf("missing ledger: ran %d tasks, want all %d", ran, n)
	}
}

// TestKindCheckpointDirInfraError: a checkpoint directory that cannot be
// created fails the map up front instead of running unrecorded.
func TestKindCheckpointDirInfraError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	resetSquare()
	_, _, err := squareKind.Map(context.Background(), Config{Checkpoint: filepath.Join(file, "sub")}, squareParams{}, 3, nil)
	if err == nil {
		t.Fatal("unusable checkpoint dir must fail the map")
	}
	if calls := squareCallsSorted(); len(calls) != 0 {
		t.Errorf("tasks ran despite the unusable checkpoint dir: %v", calls)
	}
}

// TestAtomicWriteFile: the write lands complete under the final name and
// leaves no temp litter behind.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := atomicWriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("second"), 0o644); err != nil {
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
