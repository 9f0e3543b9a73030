package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestTaskSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := TaskSeed(20200518, i)
		if s2 := TaskSeed(20200518, i); s2 != s {
			t.Fatalf("TaskSeed not deterministic at %d: %#x vs %#x", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("TaskSeed collision: indices %d and %d both map to %#x", prev, i, s)
		}
		seen[s] = i
	}
	if TaskSeed(7, 0) == 7 {
		t.Error("index 0 must not collapse onto the base seed")
	}
	if TaskSeed(7, 3) == TaskSeed(8, 3) {
		t.Error("different base seeds must produce different streams")
	}
}

func TestMapOrderAndSeeds(t *testing.T) {
	items := make([]int, 57)
	for i := range items {
		items[i] = i * 10
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		got, tel, err := Map(context.Background(), Config{Jobs: jobs, Seed: 99}, items, func(task Task, item int) (string, error) {
			if want := TaskSeed(99, task.Index); task.Seed != want {
				return "", fmt.Errorf("task %d seed %#x, want %#x", task.Index, task.Seed, want)
			}
			return fmt.Sprintf("%d:%d", task.Index, item), nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, s := range got {
			if want := fmt.Sprintf("%d:%d", i, i*10); s != want {
				t.Errorf("jobs=%d: result[%d] = %q, want %q", jobs, i, s, want)
			}
		}
		if tel.Tasks != len(items) || tel.Attempts != len(items) {
			t.Errorf("jobs=%d: telemetry tasks=%d attempts=%d, want %d/%d",
				jobs, tel.Tasks, tel.Attempts, len(items), len(items))
		}
		if tel.Jobs > len(items) {
			t.Errorf("jobs=%d: pool started %d workers for %d tasks", jobs, tel.Jobs, len(items))
		}
	}
}

// TestMapCommitStrictOrder pins the index-ordered commit invariant at every
// worker count: no matter which worker finishes first, commit observes task
// 0, 1, 2, ... in sequence on the caller's goroutine.
func TestMapCommitStrictOrder(t *testing.T) {
	items := make([]int, 41)
	for _, jobs := range []int{1, 3, 8} {
		var order []int
		_, _, err := MapCommit(context.Background(), Config{Jobs: jobs}, items, func(task Task, _ int) (int, error) {
			// Skew work so later tasks tend to finish before earlier ones.
			n := 0
			for i := 0; i < (len(items)-task.Index)*2000; i++ {
				n += i
			}
			return n, nil
		}, func(task Task, _ int) {
			order = append(order, task.Index)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range order {
			if idx != i {
				t.Fatalf("jobs=%d: commit order %v, want strictly increasing from 0", jobs, order)
			}
		}
		if len(order) != len(items) {
			t.Fatalf("jobs=%d: %d commits for %d tasks", jobs, len(order), len(items))
		}
	}
}

// TestMapBitIdenticalReduction drives an order-sensitive float reduction
// (summation order changes the bits) through MapCommit and demands the exact
// same bit pattern at every worker count.
func TestMapBitIdenticalReduction(t *testing.T) {
	items := make([]int, 100)
	run := func(jobs int) float64 {
		sum := 0.0
		_, _, err := MapCommit(context.Background(), Config{Jobs: jobs, Seed: 5}, items, func(task Task, _ int) (float64, error) {
			// A value scaled so the summation is not associative in float64.
			return 0.1 * float64(task.Seed%1000) / float64(task.Index+1), nil
		}, func(_ Task, v float64) {
			sum += v
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	want := run(1)
	for _, jobs := range []int{2, 4, 8} {
		if got := run(jobs); got != want {
			t.Errorf("jobs=%d: sum %x, sequential %x", jobs, got, want)
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 20)
	for _, jobs := range []int{1, 4} {
		got, _, err := Map(context.Background(), Config{Jobs: jobs}, items, func(task Task, _ int) (int, error) {
			if task.Index == 7 || task.Index == 3 {
				return 0, fmt.Errorf("task %d: %w", task.Index, boom)
			}
			return task.Index, nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: err = %v, want wrapped boom", jobs, err)
		}
		if !strings.Contains(err.Error(), "task 3") {
			t.Errorf("jobs=%d: err = %v, want the lowest-index failure (task 3)", jobs, err)
		}
		// Non-failing tasks still ran and reported.
		if got[19] != 19 {
			t.Errorf("jobs=%d: trailing task skipped after error", jobs)
		}
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	items := make([]int, 5)
	for _, jobs := range []int{1, 3} {
		_, tel, err := Map(context.Background(), Config{Jobs: jobs}, items, func(task Task, _ int) (int, error) {
			if task.Index == 2 {
				panic("kaboom")
			}
			return 0, nil
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("jobs=%d: err = %v, want recovered panic", jobs, err)
		}
		if tel.Panics != 1 {
			t.Errorf("jobs=%d: panics = %d, want 1", jobs, tel.Panics)
		}
	}
}

func TestMapEmptyAndTelemetryRender(t *testing.T) {
	got, tel, err := Map(context.Background(), Config{Jobs: 4}, nil, func(Task, struct{}) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %d results", err, len(got))
	}
	if s := tel.String(); !strings.Contains(s, "tasks=0") {
		t.Errorf("telemetry render: %q", s)
	}
	// A populated run renders utilization and the straggler.
	_, tel, err = Map(context.Background(), Config{Jobs: 2}, make([]int, 6), func(task Task, _ int) (int, error) {
		n := 0
		for i := 0; i < 10000; i++ {
			n += i
		}
		return n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tel.String()
	for _, want := range []string{"jobs=", "attempts=6", "panics=0", "straggler=#"} {
		if !strings.Contains(s, want) {
			t.Errorf("telemetry render %q missing %q", s, want)
		}
	}
	if u := tel.Utilization(); u < 0 || u > 1.5 {
		t.Errorf("utilization = %v, implausible", u)
	}
}

// TestMapResultsIndependentOfJobs is the package-level determinism contract:
// a deterministic per-task function merged through MapCommit produces a
// deeply equal result set and reduction at any worker count.
func TestMapResultsIndependentOfJobs(t *testing.T) {
	items := make([]int, 33)
	run := func(jobs int) ([]uint64, []int) {
		var committed []int
		res, _, err := MapCommit(context.Background(), Config{Jobs: jobs, Seed: 41}, items, func(task Task, _ int) (uint64, error) {
			// A mini per-task RNG stream: results depend only on the seed.
			s := task.Seed
			for i := 0; i < 10; i++ {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
			}
			return s, nil
		}, func(task Task, _ uint64) {
			committed = append(committed, task.Index)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, committed
	}
	wantRes, wantCommit := run(1)
	for _, jobs := range []int{2, 5, 16} {
		gotRes, gotCommit := run(jobs)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("jobs=%d: results diverge from sequential", jobs)
		}
		if !reflect.DeepEqual(gotCommit, wantCommit) {
			t.Errorf("jobs=%d: commit order diverges from sequential", jobs)
		}
	}
}
