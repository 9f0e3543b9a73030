package interp_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
)

// TestEntryPointFailureCompilesNothing: a program whose entry point cannot
// be found fails with RunMain's error text, through engine.Sample and
// engine.Run as through RunMain, and is never lowered to bytecode.
func TestEntryPointFailureCompilesNothing(t *testing.T) {
	cases := []struct {
		name, src, main, want string
	}{
		{"no main", `class A { static int f() { return 1; } }`, "",
			"interp: no class with a main method"},
		{"multiple main classes", `class A { public static void main(String[] args) { } }
			class B { public static void main(String[] args) { } }`, "",
			"interp: multiple main classes: [A B] (choose one)"},
		{"unknown main class", `class A { public static void main(String[] args) { } }`, "Nope",
			"interp: unknown main class Nope"},
		{"no main(String[])", `class A { static void main() { } }`, "A",
			"interp: class A has no main(String[]) method"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := engine.New(engine.Config{})
			srcs := []engine.Source{{Path: "A.java", Source: c.src}}
			_, err := e.Sample(context.Background(), srcs, engine.RunSpec{Main: c.main})
			if err == nil || err.Error() != c.want {
				t.Fatalf("Sample error %v, want %q", err, c.want)
			}
			prog, err := e.Program(srcs, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Run(context.Background(), prog, engine.RunSpec{Main: c.main}); err == nil || err.Error() != c.want {
				t.Fatalf("Run error %v, want %q", err, c.want)
			}
			if interp.Compiled(prog) {
				t.Error("Run compiled a program it could not run")
			}

			f, err := parser.Parse("A.java", c.src)
			if err != nil {
				t.Fatal(err)
			}
			prog, err = interp.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()))
			if err := in.RunMain(c.main); err == nil || err.Error() != c.want {
				t.Fatalf("RunMain error %v, want %q", err, c.want)
			}
			if interp.Compiled(prog) {
				t.Error("RunMain compiled a program it could not run")
			}
		})
	}

	// The control: a runnable program is compiled by its first run.
	e := engine.New(engine.Config{})
	prog, err := e.Program([]engine.Source{{Path: "A.java", Source: `class A { public static void main(String[] args) { } }`}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(context.Background(), prog, engine.RunSpec{}); err != nil {
		t.Fatal(err)
	}
	if !interp.Compiled(prog) {
		t.Error("a successful run left the program uncompiled")
	}
}

// TestLinkErrorPrecedesEntryPoint: Load still reports every link error, so a
// program that fails to link and has no main reports the link error.
func TestLinkErrorPrecedesEntryPoint(t *testing.T) {
	cases := []struct {
		name string
		srcs []engine.Source
		want string
	}{
		{"unknown superclass", []engine.Source{{Path: "A.java", Source: `class A extends Missing { }`}},
			"interp: class A extends unknown class Missing"},
		{"inheritance cycle", []engine.Source{{Path: "A.java", Source: `class A extends B { } class B extends A { }`}},
			"interp: inheritance cycle through A"},
		{"duplicate class", []engine.Source{{Path: "A.java", Source: `class A { }`}, {Path: "B.java", Source: `class A { }`}},
			"interp: duplicate class A"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := engine.New(engine.Config{})
			if _, err := e.Program(c.srcs, false); err == nil || err.Error() != c.want {
				t.Fatalf("Program error %v, want %q", err, c.want)
			}
			if _, err := e.Sample(context.Background(), c.srcs, engine.RunSpec{}); err == nil || err.Error() != c.want {
				t.Fatalf("Sample error %v, want %q", err, c.want)
			}
		})
	}
}

const firstRunSrc = `class P {
	int v;
	P(int v0) { this.v = v0; }
	int bump(int d) { this.v += d; return this.v; }
}
class M {
	static int calls;
	static double acc = 0.5;
	static int twice(int x) { calls = calls + 1; return x * 2; }
	public static void main(String[] args) {
		P p = new P(3);
		for (int i = 0; i < 300; i++) {
			acc += twice(i) % 7 + p.bump(i % 5) * 0.25;
		}
		System.out.println(acc + " " + calls + " " + p.v);
	}
}`

// firstRun is what one instance exposes after one RunMain.
type firstRun struct {
	out    string
	ops    int64
	joules uint64
}

// runTwice runs main twice on one fresh instance: a first run, then a second
// against the site cache the first run filled.
func runTwice(prog *interp.Program, eng interp.Engine) ([2]firstRun, error) {
	var runs [2]firstRun
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(10_000_000), interp.WithEngine(eng))
	for r := range runs {
		if err := in.RunMain(""); err != nil {
			return runs, err
		}
		runs[r] = firstRun{in.Output(), in.Ops(), math.Float64bits(float64(in.Meter().Snapshot().Package))}
	}
	return runs, nil
}

// TestConcurrentFirstRun: eight instances make the first run of one freshly
// loaded program at once, so they race to compile it. Every one must see
// the bit-identical results, on the first and the second run, of a
// sequential run on its own program.
func TestConcurrentFirstRun(t *testing.T) {
	load := func() *interp.Program {
		f, err := parser.Parse("M.java", firstRunSrc)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := interp.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	for _, eng := range []interp.Engine{interp.EngineVM, interp.EngineAST} {
		t.Run(eng.String(), func(t *testing.T) {
			want, err := runTwice(load(), eng)
			if err != nil {
				t.Fatal(err)
			}
			prog := load()
			const workers = 8
			got := make([][2]firstRun, workers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					var err error
					if got[w], err = runTwice(prog, eng); err != nil {
						t.Errorf("worker %d: %v", w, err)
					}
				}()
			}
			close(start)
			wg.Wait()
			for w := range got {
				if got[w] != want {
					t.Errorf("worker %d: %+v, sequential %+v", w, got[w], want)
				}
			}
		})
	}
}
