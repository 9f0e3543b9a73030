package engine_test

import (
	"math"
	"sync"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
)

const counterSrc = `class Counter {
	static int n;
	public static void main(String[] args) {
		for (int i = 0; i < 20000; i++) { n = n + 1; }
		System.out.println(n);
	}
}`

// TestSharedProgramStaticsAreIndependent runs one linked program from four
// interpreters at once. Static fields are per-run state, so every run must
// count to 20000 on its own and charge the same joules as the others; under
// -race, any static value or address kept in the shared program is a
// reported data race.
func TestSharedProgramStaticsAreIndependent(t *testing.T) {
	e := engine.New(engine.Config{})
	prog, err := e.Program([]engine.Source{{Path: "Counter.java", Source: counterSrc}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []interp.Engine{interp.EngineVM, interp.EngineAST} {
		t.Run(eng.String(), func(t *testing.T) {
			const workers = 4
			outs := make([]string, workers)
			joules := make([]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()),
						interp.WithMaxOps(10_000_000), interp.WithEngine(eng))
					if err := in.RunMain(""); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					outs[w] = in.Output()
					joules[w] = math.Float64bits(float64(in.Meter().Snapshot().Package))
				}()
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if outs[w] != "20000\n" {
					t.Errorf("worker %d printed %q, want %q", w, outs[w], "20000\n")
				}
				if joules[w] != joules[0] {
					t.Errorf("worker %d joules %#x, worker 0 %#x", w, joules[w], joules[0])
				}
			}
		})
	}
}
