package interp

import (
	"context"
	"math"
	"sync"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/parser"
	"jepo/internal/sched"
)

// TestConcurrentInstancesShareProgram pins that a loaded Program (including
// its compiled bytecode and constant pools) is safe to share across
// interpreter instances: all mutable VM state — stacks, frame pools,
// monomorphic caches, static fields, meters — is per-instance. The race detector turns any
// shared-state slip into a hard failure under scripts/check.sh's
// `go test -race` gate.
func TestConcurrentInstancesShareProgram(t *testing.T) {
	src := `class B {
		static double f() {
			double s = 0.0;
			int[] a = new int[16];
			for (int i = 0; i < 16; i++) { a[i] = i * 3 - 7; }
			for (int i = 0; i < 200; i++) {
				s += a[i % 16] * 0.5;
				if (i % 7 == 0) { s = s * 1.01; }
			}
			return s;
		}
	}`
	f, err := parser.Parse("race.java", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineVM, EngineAST} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			const workers = 8
			results := make([]uint64, workers)
			joules := make([]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					in := New(prog, energy.NewMeter(energy.DefaultCosts()),
						WithMaxOps(10_000_000), WithEngine(engine))
					v, err := in.CallStatic("B", "f")
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					results[w] = math.Float64bits(v.D)
					joules[w] = math.Float64bits(float64(in.Meter().Snapshot().Package))
				}()
			}
			wg.Wait()
			for w := 1; w < workers; w++ {
				if results[w] != results[0] || joules[w] != joules[0] {
					t.Errorf("worker %d diverged: result %#x/%#x joules %#x/%#x",
						w, results[w], results[0], joules[w], joules[0])
				}
			}
		})
	}
}

// TestConcurrentQuickeningSharesProgram pins the VM's central thread-safety
// claim: runtime quickening patches opcodes only in per-instance warm code
// copies, and fills only the instance's site cache, never the shared Program. Each worker
// runs a call/field/static/builtin-heavy program twice on one instance — the
// first run installs the quick forms, the second executes them — while every
// other worker does the same concurrently. The race detector catches any
// write to shared state; the bit-comparison (per run, across workers) catches
// any nondeterminism the patching could introduce. Static fields are
// per-instance state too (Interp.statics), so the static counter each worker
// bumps is its own: run 2 continues from run 1's count on every worker alike.
func TestConcurrentQuickeningSharesProgram(t *testing.T) {
	src := `class C {
		int v;
		C(int v0) { this.v = v0; }
		int bump() { this.v += 3; return this.v; }
	}
	class B {
		static int calls;
		static int twice(int x) { calls = calls + 1; return x * 2; }
		static double f() {
			C c = new C(5);
			double s = 0.0;
			for (int i = 0; i < 150; i++) {
				int t = twice(i) - c.bump() % 7;
				s += Math.max(t % 11, c.v % 13) + Integer.valueOf(i).intValue();
			}
			return s + c.v + B.calls;
		}
	}`
	f, err := parser.Parse("race.java", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const runs = 2
	var results [workers][runs]uint64
	var joules [workers][runs]uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(10_000_000))
			if err := in.InitStatics(); err != nil {
				t.Errorf("worker %d: init: %v", w, err)
				return
			}
			for r := 0; r < runs; r++ {
				v, err := in.CallStatic("B", "f")
				if err != nil {
					t.Errorf("worker %d run %d: %v", w, r, err)
					return
				}
				results[w][r] = math.Float64bits(v.D)
				joules[w][r] = math.Float64bits(float64(in.Meter().Snapshot().Package))
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for r := 0; r < runs; r++ {
			if results[w][r] != results[0][r] || joules[w][r] != joules[0][r] {
				t.Errorf("worker %d run %d diverged: result %#x/%#x joules %#x/%#x",
					w, r, results[w][r], results[0][r], joules[w][r], joules[0][r])
			}
		}
	}
}

// TestSchedMapSharesProgram drives the same shared-Program invariant through
// the sched worker pool — the access pattern the parallel table generators
// use: one compiled Program, a fresh Interp and meter per task. The race
// detector guards the sharing; the bit-comparison guards determinism.
func TestSchedMapSharesProgram(t *testing.T) {
	src := `class B {
		static double f() {
			double s = 1.5;
			for (int i = 0; i < 300; i++) {
				s += (i % 5) * 0.25;
				if (i % 11 == 0) { s = s * 0.99; }
			}
			return s;
		}
	}`
	f, err := parser.Parse("race.java", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineVM, EngineAST} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			type outcome struct{ result, joules uint64 }
			run := func(jobs int) []outcome {
				out, _, err := sched.Map(context.Background(), sched.Config{Jobs: jobs, Seed: 7}, make([]struct{}, 24),
					func(task sched.Task, _ struct{}) (outcome, error) {
						in := New(prog, energy.NewMeter(energy.DefaultCosts()),
							WithMaxOps(10_000_000), WithEngine(engine))
						v, err := in.CallStatic("B", "f")
						if err != nil {
							return outcome{}, err
						}
						return outcome{
							result: math.Float64bits(v.D),
							joules: math.Float64bits(float64(in.Meter().Snapshot().Package)),
						}, nil
					})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run(1)
			for _, jobs := range []int{4, 8} {
				got := run(jobs)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("jobs=%d task %d diverged: %+v vs sequential %+v", jobs, i, got[i], want[i])
					}
				}
			}
		})
	}
}
