// Package sched is the one executor behind every fan-out in the
// reproduction: Table I/II/IV rows, cross-validation folds, the corpus-wide
// pass analysis and jperf's repeated measurement runs. A *placement* decides
// only how one worker runs one task — inline on the caller at one job, on
// a goroutine pool, or on re-exec'd worker processes — and everything else
// is one code path for all three: claiming, requeueing, index-ordered
// commit, first error, cancellation, the checkpoint ledger and telemetry.
// Measurement campaigns are embarrassingly parallel *only if* per-task
// accounting stays isolated and the reduction order is fixed, so the
// executor enforces three invariants:
//
//  1. Per-task isolation. Every task receives its own derived RNG seed
//     (a splitmix64 mix of the base seed and the task index, see TaskSeed)
//     and is expected to build its own energy.Meter / interpreter instances
//     from it. Nothing about a task's inputs depends on which worker runs it,
//     where, or when.
//
//  2. Index-ordered commit. Results are delivered to the caller in task-index
//     order, and the optional commit callback runs on the caller's goroutine
//     strictly in that order, as completed results become available. Any
//     order-sensitive reduction (float summation, ledger concatenation,
//     progress output) therefore produces bit-identical output at any worker
//     count and any placement.
//
//  3. Sequential degeneration. Jobs == 1 runs every task inline on the
//     calling goroutine in index order — exactly the pre-pool code path, with
//     no goroutines, channels or scheduling involved.
//
// Closures map through MapCommit and run in process. A task function that
// must also run in worker processes is declared once as a Kind (kind.go);
// mapping over a kind with Workers > 1 ships its tasks over the dist
// transport (nodes.go), and with Checkpoint set records finished tasks in a
// ledger a rerun resumes from (ledger.go). Together these make `-jobs N`
// and `-workers N` pure wall-clock knobs: output, profiles and Joule totals
// are bit-identical to the sequential run at any width and placement.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jepo/internal/dist"
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

// Config parameterizes a map: its width, its placement and its ledger.
// MapCommit reads only Jobs and Seed; the rest apply to kind maps.
type Config struct {
	// Jobs is the in-process worker count. <= 0 means runtime.GOMAXPROCS(0);
	// the pool never runs more workers than there are tasks.
	Jobs int
	// Seed is the base seed every task's private stream derives from.
	Seed uint64
	// Workers > 1 places a kind's tasks on that many worker processes (the
	// binary re-exec'd in worker mode) instead of the in-process pool.
	Workers int
	// Deadline is the longest silence tolerated from a node with a task in
	// flight; workers heartbeat at a quarter of it. 0 disables it.
	Deadline time.Duration
	// Checkpoint, when set, is the directory holding the map's ledger: a
	// kind's finished tasks persist there and a rerun resumes from them.
	Checkpoint string
	// Spawn mints worker connections (default dist.SelfSpawner()).
	Spawn dist.Spawner
	// Plan, when set, wraps the transport in the chaos harness.
	Plan *dist.FaultPlan
	// OnEvent receives human-readable fault-path and ledger events (stderr
	// material; never part of determinism-pinned stdout).
	OnEvent func(string)
}

func (c Config) say(format string, args ...any) {
	if c.OnEvent != nil {
		c.OnEvent(fmt.Sprintf(format, args...))
	}
}

// ErrNoWorkers reports a map abandoned because every worker node was lost
// with tasks still unfinished. It is the only node-caused failure; anything
// less requeues the lost tasks and continues.
var ErrNoWorkers = errors.New("sched: all workers gone")

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
	Attempts int             // task executions, including requeued ones
	Steals   int             // pickups of requeued tasks
	Panics   int             // executions that ended in a recovered panic
	Wall     time.Duration   // run wall-clock
	Busy     []time.Duration // per-worker time spent executing tasks
	// Straggler is the task whose executions consumed the most wall-clock.
	StragglerIndex int
	StragglerTime  time.Duration

	// Process placement and the ledger.
	Workers     int // worker processes requested (> 1 under process placement)
	Replayed    int // tasks restored from the checkpoint ledger
	Reassigned  int // tasks a node fault put back on the queue
	Timeouts    int // nodes silent past the deadline
	Corrupt     int // corrupt or out-of-protocol replies
	Deaths      int // nodes lost at spawn or mid-map
	Quarantines int // nodes removed from service
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

// String renders the compact one-line form the CLIs log to stderr. Under
// process placement the line adds the node counters; quarantined= is the
// headline robustness figure, how many nodes the map survived losing.
func (t Telemetry) String() string {
	s := fmt.Sprintf("sched: jobs=%d tasks=%d attempts=%d steals=%d panics=%d wall=%v util=%.0f%%",
		t.Jobs, t.Tasks, t.Attempts, t.Steals, t.Panics, t.Wall.Round(time.Millisecond), 100*t.Utilization())
	if t.StragglerIndex >= 0 {
		s += fmt.Sprintf(" straggler=#%d(%v)", t.StragglerIndex, t.StragglerTime.Round(time.Millisecond))
	}
	if t.Workers > 1 {
		s += fmt.Sprintf(" replayed=%d reassigned=%d timeouts=%d corrupt=%d deaths=%d quarantined=%d",
			t.Replayed, t.Reassigned, t.Timeouts, t.Corrupt, t.Deaths, t.Quarantines)
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
// Joules, concatenating Health ledgers, emitting output — that must be
// bit-identical at any worker count.
func MapCommit[T, R any](ctx context.Context, cfg Config, items []T, fn func(Task, T) (R, error), commit func(Task, R)) ([]R, Telemetry, error) {
	results := make([]R, len(items))
	run := func(_ int, t Task) error {
		r, err := fn(t, items[t.Index])
		if err == nil {
			results[t.Index] = r
		}
		return err
	}
	tel, err := execute(ctx, cfg.Seed, len(items), nil, pool(cfg.Jobs, len(items), run),
		func(t Task) {
			if commit != nil {
				commit(t, results[t.Index])
			}
		})
	return results, tel, err
}

// placement runs one task on one worker. run returns nil when the task
// finished, the task's own error when it failed (final: tasks are pure, so
// a rerun would fail the same way), or a *nodeFault when the worker's node
// failed it — the task then goes back on the queue, charged nothing.
type placement struct {
	width int
	nodes bool // worker processes: never inline, and a lost node ends its worker
	run   func(w int, t Task) error
}

// pool is the in-process placement: width workers calling run directly.
func pool(jobs, tasks int, run func(w int, t Task) error) placement {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return placement{width: max(1, min(jobs, tasks)), run: run}
}

// nodeFault is a placement's report that a task did not finish because of
// its node, not itself. gone says the node left service with it.
type nodeFault struct{ gone bool }

func (f *nodeFault) Error() string { return "sched: node fault" }

// execute is the one executor loop behind every map. It claims tasks —
// requeued ones first, then fresh indices, skipping those a ledger already
// holds — runs each through the placement, puts back the ones a node fault
// returns, commits finished tasks in index order on the caller's goroutine,
// and stops claiming on cancellation. Width 1 in process is the plain
// inline loop. It returns ctx.Err() when cancelled, ErrNoWorkers when every
// node is gone with tasks left, and Errors when tasks failed.
func execute(ctx context.Context, seed uint64, n int, skip []bool, p placement, commit func(Task)) (Telemetry, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tel := Telemetry{Jobs: p.width, Tasks: n, Busy: make([]time.Duration, p.width), StragglerIndex: -1}
	if n == 0 {
		return tel, nil
	}
	start := time.Now()
	task := func(i int) Task { return Task{Index: i, Seed: TaskSeed(seed, i)} }
	skipped := func(i int) bool { return skip != nil && skip[i] }
	errs := make([]error, n)
	taskNS := make([]atomic.Int64, n) // Σ execution time per task
	var panics atomic.Int64

	// attempt runs one task, turning a panic into the task's error: a
	// poisoned task fails itself, never its worker.
	attempt := func(w, i int) (err error) {
		t0 := time.Now()
		defer func() {
			if r := recover(); r != nil {
				panics.Add(1)
				err = panicked(i, r)
			}
			d := time.Since(t0)
			tel.Busy[w] += d // each worker owns its slot
			taskNS[i].Add(int64(d))
		}()
		return p.run(w, task(i))
	}

	completed := 0 // index prefix the commit loop got through
	if p.width == 1 && !p.nodes {
		// Sequential degeneration: inline, in index order, commit after each
		// task. A cancelled context stops before the next task; the finished
		// prefix stands.
		for ; completed < n; completed++ {
			i := completed
			if !skipped(i) {
				if ctx.Err() != nil {
					break
				}
				tel.Attempts++
				if errs[i] = attempt(0, i); errs[i] != nil {
					continue
				}
			}
			commit(task(i))
		}
	} else {
		var (
			mu       sync.Mutex
			wake     = sync.NewCond(&mu)
			next     int   // next fresh index to claim
			queue    []int // tasks a node fault put back
			pending  int   // tasks not yet final
			live     = p.width
			attempts int
			steals   int
		)
		done := make([]chan struct{}, n)
		for i := range done {
			done[i] = make(chan struct{})
			if skipped(i) {
				close(done[i])
			} else {
				pending++
			}
		}
		// gone closes when the last worker leaves with tasks unfinished —
		// every node lost, or the claim loop stopped by cancellation.
		gone := make(chan struct{})
		if live == 0 && pending > 0 {
			close(gone)
		}
		stop := context.AfterFunc(ctx, func() {
			mu.Lock()
			wake.Broadcast()
			mu.Unlock()
		})
		defer stop()

		// claim hands out the next task, waiting while every remaining task
		// is in flight elsewhere (a node fault may still put one back).
		claim := func() (int, bool) {
			mu.Lock()
			defer mu.Unlock()
			for ctx.Err() == nil {
				if len(queue) > 0 {
					i := queue[0]
					queue = queue[1:]
					attempts++
					steals++
					return i, true
				}
				for next < n && skipped(next) {
					next++
				}
				if next < n {
					next++
					attempts++
					return next - 1, true
				}
				if pending == 0 {
					break
				}
				wake.Wait()
			}
			return 0, false
		}
		var workers sync.WaitGroup
		for w := 0; w < p.width; w++ {
			workers.Add(1)
			go func(w int) {
				defer workers.Done()
				defer func() {
					mu.Lock()
					if live--; live == 0 && pending > 0 {
						close(gone)
					}
					mu.Unlock()
				}()
				for {
					i, ok := claim()
					if !ok {
						return
					}
					err := attempt(w, i)
					var fault *nodeFault
					if errors.As(err, &fault) {
						mu.Lock()
						queue = append(queue, i)
						tel.Reassigned++
						wake.Broadcast()
						mu.Unlock()
						if fault.gone {
							return
						}
						continue
					}
					errs[i] = err
					close(done[i])
					mu.Lock()
					if pending--; pending == 0 {
						wake.Broadcast()
					}
					mu.Unlock()
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
			case <-gone:
				select {
				case <-done[i]:
				default:
					break commitLoop
				}
			}
			if errs[i] == nil {
				commit(task(i))
			}
		}
		// Drain: every worker has either returned or is finishing its last
		// task. Waiting here guarantees no goroutine outlives the call and
		// the busy ledgers below are safely published.
		workers.Wait()
		tel.Attempts, tel.Steals = attempts, steals
	}

	tel.Panics = int(panics.Load())
	tel.Wall = time.Since(start)
	for i := range taskNS {
		if d := time.Duration(taskNS[i].Load()); d > tel.StragglerTime {
			tel.StragglerIndex, tel.StragglerTime = i, d
		}
	}
	switch {
	case completed < n && ctx.Err() != nil:
		return tel, ctx.Err()
	case completed < n:
		return tel, fmt.Errorf("%w: %d of %d tasks unfinished", ErrNoWorkers, n-completed, n)
	}
	if Errors(errs).first() != nil {
		return tel, Errors(errs)
	}
	return tel, nil
}

// panicked renders a recovered task panic as the task's error, in every
// placement the same words.
func panicked(index int, r any) error {
	return fmt.Errorf("sched: task %d panicked: %v", index, r)
}
