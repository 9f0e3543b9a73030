package interp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/parser"
)

// boundaryRun executes class.f() on one engine, with any extra options, and
// captures the observable boundary behaviour: the error text (empty on
// success), the printed output and the meter's package-energy bits.
func boundaryRun(t *testing.T, src string, maxOps int64, e Engine, opts ...Option) (errText, out string, pkgBits uint64) {
	t.Helper()
	f, err := parser.Parse("boundary.java", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	in := New(prog, energy.NewMeter(energy.DefaultCosts()), append([]Option{WithMaxOps(maxOps), WithEngine(e)}, opts...)...)
	if err := in.InitStatics(); err != nil {
		t.Fatalf("init: %v", err)
	}
	if _, err := in.CallStatic("T", "f"); err != nil {
		errText = err.Error()
	}
	return errText, in.Output(), math.Float64bits(float64(in.Meter().Snapshot().Package))
}

// TestEngineBoundaryParity runs each edge-condition program on both engines
// and demands the same error text, output and energy. Exception unwinding
// goes through completely different machinery in the two engines (Go panics
// through the walker's recursion vs the VM's frame exit), so these shapes
// are where divergence would hide.
func TestEngineBoundaryParity(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string // substring of the uncaught error, "" = must succeed
	}{
		{
			name:    "int division by zero",
			src:     `class T { static int f() { int a = 7; int b = 0; return a / b; } }`,
			wantErr: "ArithmeticException: / by zero",
		},
		{
			name:    "int remainder by zero",
			src:     `class T { static int f() { int a = 7; int b = 0; return a % b; } }`,
			wantErr: "ArithmeticException: / by zero",
		},
		{
			name:    "long division by zero",
			src:     `class T { static long f() { long a = 7; long b = 0; return a / b; } }`,
			wantErr: "ArithmeticException: / by zero",
		},
		{
			name: "compound divide by zero",
			src:  `class T { static int f() { int a = 9; int b = 0; a /= b; return a; } }`,

			wantErr: "ArithmeticException: / by zero",
		},
		{
			name: "caught division by zero",
			src: `class T { static int f() {
				int a = 7; int b = 0; int r = -1;
				try { r = a / b; } catch (ArithmeticException e) { r = 42; }
				System.out.println(r);
				return r;
			} }`,
		},
		{
			name:    "array index out of bounds",
			src:     `class T { static int f() { int[] a = new int[3]; int i = 5; return a[i]; } }`,
			wantErr: "ArrayIndexOutOfBoundsException",
		},
		{
			name:    "array store out of bounds",
			src:     `class T { static int f() { int[] a = new int[3]; int i = 9; a[i] = 1; return 0; } }`,
			wantErr: "ArrayIndexOutOfBoundsException",
		},
		{
			name:    "negative array size",
			src:     `class T { static int f() { int n = -2; int[] a = new int[n]; return a.length; } }`,
			wantErr: "NegativeArraySizeException",
		},
		{
			name: "null field access",
			src: `class P { int v; }
			class T { static int f() { P p = null; return p.v; } }`,
			wantErr: "NullPointerException",
		},
		{
			name: "double division by zero succeeds",
			src: `class T { static boolean f() {
				double a = 1.0; double b = 0.0;
				return (a / b) > 0.0;
			} }`,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			vmErr, vmOut, vmPkg := boundaryRun(t, tc.src, 1_000_000, EngineVM)
			astErr, astOut, astPkg := boundaryRun(t, tc.src, 1_000_000, EngineAST)
			if vmErr != astErr {
				t.Errorf("error text diverged:\n  vm:  %q\n  ast: %q", vmErr, astErr)
			}
			if vmOut != astOut {
				t.Errorf("output diverged:\n  vm:  %q\n  ast: %q", vmOut, astOut)
			}
			if vmPkg != astPkg {
				t.Errorf("package energy diverged: vm %#x ast %#x", vmPkg, astPkg)
			}
			if tc.wantErr == "" {
				if vmErr != "" {
					t.Errorf("unexpected error: %s", vmErr)
				}
			} else if !strings.Contains(vmErr, tc.wantErr) {
				t.Errorf("error %q does not mention %q", vmErr, tc.wantErr)
			}
		})
	}
}

// TestEngineOpBudgetParity pins that the op budget trips on both engines with
// the same message, with and without a live context, whose polls share the
// budget's compare: one budget trips before the first poll (ctxCheckInterval
// ops) and one after several. The trip point is instruction-granular on the
// VM (steps are accounted in folded batches), so only the failure itself —
// not the meter state at failure — is comparable.
func TestEngineOpBudgetParity(t *testing.T) {
	src := `class T { static int f() { int s = 0; while (true) { s = s + 1; } } }`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		budget int64
		opts   []Option
	}{
		{100, nil},
		{10_000, nil},
		{10_000, []Option{WithContext(ctx)}},
		{3*ctxCheckInterval + 100, []Option{WithContext(ctx)}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("budget %d, context %v", c.budget, c.opts != nil)
		var vm, ast *Interp
		vmErr, _, _ := boundaryRun(t, src, c.budget, EngineVM, append(c.opts, func(in *Interp) { vm = in })...)
		astErr, _, _ := boundaryRun(t, src, c.budget, EngineAST, append(c.opts, func(in *Interp) { ast = in })...)
		if vmErr == "" || astErr == "" {
			t.Fatalf("%s: infinite loop must trip both engines (vm=%q ast=%q)", name, vmErr, astErr)
		}
		if vmErr != astErr {
			t.Errorf("%s: messages diverged:\n  vm:  %q\n  ast: %q", name, vmErr, astErr)
		}
		if want := fmt.Sprintf("op budget of %d exceeded", c.budget); !strings.Contains(vmErr, want) {
			t.Errorf("%s: error %q does not say %q", name, vmErr, want)
		}
		// The walker trips on the first op past the budget, the VM within
		// one instruction's folded steps of it — not at a later poll.
		if ast.Ops() != c.budget+1 || vm.Ops() <= c.budget || vm.Ops() > c.budget+16 {
			t.Errorf("%s: tripped at ast=%d vm=%d ops", name, ast.Ops(), vm.Ops())
		}
	}
}

// TestEngineCallDepthParity pins the call-depth bound's trip point on both
// engines: MaxCallDepth nested calls run (CallStatic's own call of f is the
// first), the next one fails with the same message, a mini-Java catch cannot
// stop it, and calls unwound by exceptions give their depth back.
func TestEngineCallDepthParity(t *testing.T) {
	deep := func(stop int) string {
		return fmt.Sprintf(`class T {
	static int g(int n) { if (n == %d) { return n; } return g(n + 1); }
	static int f() { return g(1); }
}`, stop)
	}
	caught := fmt.Sprintf(`class T {
	static int g(int n) { if (n == %d) { return n; } return g(n + 1); }
	static int f() {
		try { return g(1); } catch (RuntimeException e) { return -1; }
	}
}`, MaxCallDepth)
	unwound := fmt.Sprintf(`class T {
	static int g(int n) { if (n == %d) { throw new RuntimeException("deep"); } return g(n + 1); }
	static int f() {
		int caught = 0;
		for (int i = 0; i < 3; i++) {
			try { g(1); } catch (RuntimeException e) { caught++; }
		}
		return g(%d);
	}
}`, MaxCallDepth-1, MaxCallDepth)
	want := fmt.Sprintf("interp: call depth of %d exceeded", MaxCallDepth)
	cases := []struct {
		name, src, wantErr string
	}{
		{"at the bound", deep(MaxCallDepth - 1), ""},
		{"one past the bound", deep(MaxCallDepth), want},
		{"past the bound under a catch", caught, want},
		{"after exceptions unwound deep calls", unwound, want},
	}
	for _, c := range cases {
		var vm, ast *Interp
		vmErr, vmOut, vmBits := boundaryRun(t, c.src, DefaultMaxOps, EngineVM, func(in *Interp) { vm = in })
		astErr, astOut, astBits := boundaryRun(t, c.src, DefaultMaxOps, EngineAST, func(in *Interp) { ast = in })
		if vmErr != astErr || vmOut != astOut {
			t.Errorf("%s: engines diverged:\n  vm:  %q %q\n  ast: %q %q", c.name, vmErr, vmOut, astErr, astOut)
		}
		if c.wantErr == "" {
			if vmErr != "" {
				t.Errorf("%s: unexpected error %q", c.name, vmErr)
			}
			if vmBits != astBits {
				t.Errorf("%s: energy diverged", c.name)
			}
		} else if !strings.HasPrefix(vmErr, c.wantErr) {
			t.Errorf("%s: error %q, want prefix %q", c.name, vmErr, c.wantErr)
		}
		if vm.calls != 0 || ast.calls != 0 {
			t.Errorf("%s: call depth not given back: vm=%d ast=%d", c.name, vm.calls, ast.calls)
		}
	}
}

// TestEngineProbeUnwindParity pins where the probe hook fires when a
// labelled call does not return normally, on both engines: a mini-Java
// exception leaving a frame fires its Exit on the way out, whether the frame
// runs compiled (mid, boom) or on the walker (f, whose try/catch has no
// lowering), while an op-budget trip ends the run with no Exit at all.
func TestEngineProbeUnwindParity(t *testing.T) {
	cases := []struct {
		name, src string
		maxOps    int64
		wantErr   string
		want      string
	}{
		{
			name: "exception caught by the caller",
			src: `class T {
	static int boom() { throw new RuntimeException("x"); }
	static int mid() { return boom(); }
	static int f() {
		try { return mid(); } catch (RuntimeException e) { return 7; }
	}
}`,
			maxOps: 1_000_000,
			want:   "+T.f +T.mid +T.boom -T.boom -T.mid -T.f",
		},
		{
			name: "op budget trip",
			src: `class T {
	static int spin() { int s = 0; while (true) { s = s + 1; } }
	static int f() { return spin(); }
}`,
			maxOps:  1_000,
			wantErr: "op budget of 1000 exceeded",
			want:    "+T.f +T.spin",
		},
	}
	for _, c := range cases {
		for _, e := range []Engine{EngineVM, EngineAST} {
			f, err := parser.Parse("probe.java", c.src)
			if err != nil {
				t.Fatal(err)
			}
			instrument.Inject(f)
			prog, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingHook{}
			in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithHook(rec), WithMaxOps(c.maxOps), WithEngine(e))
			_, err = in.CallStatic("T", "f")
			if c.wantErr == "" && err != nil {
				t.Errorf("%s, %v: %v", c.name, e, err)
			}
			if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Errorf("%s, %v: error %v, want %q", c.name, e, err, c.wantErr)
			}
			if got := strings.Join(rec.events, " "); got != c.want {
				t.Errorf("%s, %v: probe events %q, want %q", c.name, e, got, c.want)
			}
		}
	}
}
