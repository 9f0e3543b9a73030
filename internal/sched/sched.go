// Package sched is the one executor behind every fan-out in the
// reproduction: Table I/II/IV rows, cross-validation folds, the corpus-wide
// pass analysis and jperf's repeated measurement runs. A map runs inline on
// the caller at one job or on a goroutine pool, and both share one code
// path for index-ordered commit, first error, cancellation, the checkpoint
// ledger and telemetry. Measurement campaigns are embarrassingly parallel
// *only if* per-task accounting stays isolated and the reduction order is
// fixed, so the executor enforces three invariants:
//
//  1. Per-task isolation. Every task receives its own derived RNG seed
//     (a splitmix64 mix of the base seed and the task index, see TaskSeed)
//     and is expected to build its own energy.Meter / interpreter instances
//     from it. Nothing about a task's inputs depends on which worker runs it
//     or when.
//
//  2. Index-ordered commit. Results are delivered to the caller in task-index
//     order, and the optional commit callback runs on the caller's goroutine
//     strictly in that order, as completed results become available. Any
//     order-sensitive reduction (float summation, ledger concatenation,
//     progress output) therefore produces bit-identical output at any worker
//     count.
//
//  3. Sequential degeneration. Jobs == 1 runs every task inline on the
//     calling goroutine in index order — exactly the pre-pool code path, with
//     no goroutines, channels or scheduling involved.
//
// Closures map through MapCommit. A task function whose finished tasks must
// survive an interrupted run is declared once as a Kind (kind.go): mapped
// with Checkpoint set, it records finished tasks in a ledger a rerun resumes
// from (ledger.go). Together these make `-jobs N` a pure wall-clock knob:
// output, profiles and Joule totals are bit-identical to the sequential run
// at any width.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// TaskSeed derives the RNG seed for one task from the pool's base seed: a
// splitmix64 finalizer over the base advanced by (index+1) golden-ratio
// steps. Streams for distinct indices are statistically independent, the
// derivation is pure (no shared generator to race on or to make task i's
// stream depend on task j having run first), and index 0 does not collapse
// onto the base seed.
func TaskSeed(base uint64, index int) uint64 {
	z := base + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Task identifies one unit of work handed to a worker.
type Task struct {
	Index int    // position in the input slice; also the commit order
	Seed  uint64 // TaskSeed(cfg.Seed, Index) — the task's private RNG stream
}

// Config parameterizes a map: its width, its seed and its ledger.
// MapCommit reads only Jobs and Seed; the rest apply to kind maps.
type Config struct {
	// Jobs is the in-process worker count. <= 0 means runtime.GOMAXPROCS(0);
	// the pool never runs more workers than there are tasks.
	Jobs int
	// Seed is the base seed every task's private stream derives from.
	Seed uint64
	// Checkpoint, when set, is the directory holding the map's ledger: a
	// kind's finished tasks persist there and a rerun resumes from them.
	Checkpoint string
	// OnEvent receives human-readable ledger events (stderr material; never
	// part of determinism-pinned stdout).
	OnEvent func(string)
}

func (c Config) say(format string, args ...any) {
	if c.OnEvent != nil {
		c.OnEvent(fmt.Sprintf(format, args...))
	}
}

// Errors is the error a map returns when tasks failed: Errors[i] is task i's
// error, nil for every task that succeeded. It reads as the lowest-index
// failure, so a caller that wants only the first error treats it as that
// one; a caller that must account for every task (Table IV renders each
// failed row) unpacks it with errors.As.
type Errors []error

func (e Errors) first() error {
	for _, err := range e {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e Errors) Error() string { return e.first().Error() }
func (e Errors) Unwrap() error { return e.first() }

// Telemetry records what one map did. Timing fields are informational —
// they vary run to run and must never feed a determinism-pinned output
// stream; the CLIs print them to stderr.
type Telemetry struct {
	Jobs     int             // workers actually started
	Tasks    int             // tasks in the map
	Attempts int             // task executions
	Panics   int             // executions that ended in a recovered panic
	Replayed int             // tasks restored from the checkpoint ledger
	Wall     time.Duration   // run wall-clock
	Busy     []time.Duration // per-worker time spent executing tasks
	// Straggler is the task whose execution consumed the most wall-clock.
	StragglerIndex int
	StragglerTime  time.Duration
}

// Utilization is the busy fraction of the pool: Σ busy / (jobs × wall).
func (t Telemetry) Utilization() float64 {
	if t.Jobs == 0 || t.Wall <= 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range t.Busy {
		busy += b
	}
	return float64(busy) / (float64(t.Jobs) * float64(t.Wall))
}

// String renders the compact one-line form the CLIs log to stderr.
func (t Telemetry) String() string {
	s := fmt.Sprintf("sched: jobs=%d tasks=%d attempts=%d panics=%d wall=%v util=%.0f%%",
		t.Jobs, t.Tasks, t.Attempts, t.Panics, t.Wall.Round(time.Millisecond), 100*t.Utilization())
	if t.StragglerIndex >= 0 {
		s += fmt.Sprintf(" straggler=#%d(%v)", t.StragglerIndex, t.StragglerTime.Round(time.Millisecond))
	}
	return s
}

// Map runs fn over every item on a bounded worker pool and returns the
// results in item order. Every task runs; a failed one leaves its result at
// the zero value and the map returns Errors, read as the lowest-index
// failure. See MapCommit for the ordered-commit variant.
//
// Cancelling ctx stops the pool cleanly: no new tasks are claimed, in-flight
// tasks drain to completion (workers are never abandoned mid-task), the
// committed prefix stays an exact index prefix, and ctx.Err() is returned.
func Map[T, R any](ctx context.Context, cfg Config, items []T, fn func(Task, T) (R, error)) ([]R, Telemetry, error) {
	return MapCommit(ctx, cfg, items, fn, nil)
}

// MapCommit is Map plus an in-order commit hook: commit runs on the calling
// goroutine once per successful task, in strict task-index order, as results
// become final. It is the seam for order-sensitive reductions — summing
// Joules, concatenating per-task lines, emitting output — that must be
// bit-identical at any worker count.
func MapCommit[T, R any](ctx context.Context, cfg Config, items []T, fn func(Task, T) (R, error), commit func(Task, R)) ([]R, Telemetry, error) {
	results := make([]R, len(items))
	tel, err := execute(ctx, cfg, len(items), nil,
		func(t Task) error {
			r, err := fn(t, items[t.Index])
			if err == nil {
				results[t.Index] = r
			}
			return err
		},
		func(t Task) {
			if commit != nil {
				commit(t, results[t.Index])
			}
		})
	return results, tel, err
}

// execute is the one executor loop behind every map. It runs tasks 0..n-1
// through run, skipping those a ledger already holds, on cfg.Jobs workers
// (never more than there are tasks to run), commits finished tasks in index
// order on the caller's goroutine, and stops claiming on cancellation. One
// worker is the plain inline loop; more claim the next index from a shared
// counter. It returns ctx.Err() when cancelled before every task committed,
// and Errors when tasks failed.
func execute(ctx context.Context, cfg Config, n int, skip []bool, run func(Task) error, commit func(Task)) (Telemetry, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	skipped := func(i int) bool { return skip != nil && skip[i] }
	replayed := 0
	for i := 0; i < n; i++ {
		if skipped(i) {
			replayed++
		}
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	width := max(1, min(jobs, n-replayed))
	tel := Telemetry{Jobs: width, Tasks: n, Replayed: replayed, Busy: make([]time.Duration, width), StragglerIndex: -1}
	if n == 0 {
		return tel, nil
	}
	start := time.Now()
	task := func(i int) Task { return Task{Index: i, Seed: TaskSeed(cfg.Seed, i)} }
	errs := make([]error, n)
	taskNS := make([]int64, n) // execution time per task
	var panics, attempts atomic.Int64

	// attempt runs one task, turning a panic into the task's error: a
	// poisoned task fails itself, never its worker.
	attempt := func(w, i int) (err error) {
		attempts.Add(1)
		t0 := time.Now()
		defer func() {
			if r := recover(); r != nil {
				panics.Add(1)
				err = panicked(i, r)
			}
			d := time.Since(t0)
			tel.Busy[w] += d // each worker owns its slot
			taskNS[i] = int64(d)
		}()
		return run(task(i))
	}

	completed := 0 // index prefix the commit loop got through
	if width == 1 {
		// Sequential degeneration: inline, in index order, commit after each
		// task. A cancelled context stops before the next task; the finished
		// prefix stands.
		for ; completed < n; completed++ {
			i := completed
			if !skipped(i) {
				if ctx.Err() != nil {
					break
				}
				if errs[i] = attempt(0, i); errs[i] != nil {
					continue
				}
			}
			commit(task(i))
		}
	} else {
		done := make([]chan struct{}, n)
		for i := range done {
			done[i] = make(chan struct{})
			if skipped(i) {
				close(done[i])
			}
		}
		var next atomic.Int64 // next index to claim
		var workers sync.WaitGroup
		for w := 0; w < width; w++ {
			workers.Add(1)
			go func(w int) {
				defer workers.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if !skipped(i) {
						errs[i] = attempt(w, i)
						close(done[i])
					}
				}
			}(w)
		}
		// Index-ordered commit on the caller's goroutine: task i+1's result
		// may already be done, but it is not committed before task i's. On
		// cancellation the loop stops committing immediately — the committed
		// set stays an exact prefix — and falls through to the drain.
	commitLoop:
		for ; completed < n; completed++ {
			i := completed
			select {
			case <-done[i]:
			case <-ctx.Done():
				break commitLoop
			}
			if errs[i] == nil {
				commit(task(i))
			}
		}
		// Drain: every worker has either returned or is finishing its last
		// task. Waiting here guarantees no goroutine outlives the call and
		// the busy ledgers below are safely published.
		workers.Wait()
	}

	tel.Attempts = int(attempts.Load())
	tel.Panics = int(panics.Load())
	tel.Wall = time.Since(start)
	for i, ns := range taskNS {
		if d := time.Duration(ns); d > tel.StragglerTime {
			tel.StragglerIndex, tel.StragglerTime = i, d
		}
	}
	if completed < n {
		return tel, ctx.Err()
	}
	if Errors(errs).first() != nil {
		return tel, Errors(errs)
	}
	return tel, nil
}

// panicked renders a recovered task panic as the task's error.
func panicked(index int, r any) error {
	return fmt.Errorf("sched: task %d panicked: %v", index, r)
}
