// Compiler unit tests. They live in an external test package because
// Compile consumes the frame-slot annotations interp's load-time resolver
// leaves on the AST — the tests parse and Load a program first, then compile
// individual methods directly.
package bytecode_test

import (
	"strings"
	"testing"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/bytecode"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
)

// compileMethod parses src, resolves it through interp.Load, and compiles
// the named method of the first class.
func compileMethod(t *testing.T, src, method string) *bytecode.Func {
	t.Helper()
	f, err := parser.Parse("t.java", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := interp.Load(f); err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, cl := range f.Classes {
		for _, m := range cl.Methods {
			if m.Name == method {
				fn := bytecode.Compile(cl.Name, m)
				if fn == nil {
					t.Fatalf("method %s did not compile (tree-walker fallback)", method)
				}
				return fn
			}
		}
	}
	t.Fatalf("method %s not found", method)
	return nil
}

// jumpOps is every opcode whose A operand is a relative jump offset.
var jumpOps = map[bytecode.Op]bool{
	bytecode.OpJmp:           true,
	bytecode.OpJmpBranch:     true,
	bytecode.OpJmpFalse:      true,
	bytecode.OpJmpTrue:       true,
	bytecode.OpJmpCmpLLFalse: true,
	bytecode.OpJmpCmpLLTrue:  true,
	bytecode.OpJmpCmpLCFalse: true,
	bytecode.OpJmpCmpLCTrue:  true,
	bytecode.OpJmpCmpFalse:   true,
	bytecode.OpJmpCmpTrue:    true,
	bytecode.OpCaseCmp:       true,
	bytecode.OpSwitchEnd:     true,
}

// checkJumps asserts every jump target lands inside the code array.
func checkJumps(t *testing.T, fn *bytecode.Func) {
	t.Helper()
	for pc := range fn.Code {
		ins := &fn.Code[pc]
		if !jumpOps[ins.Op] {
			continue
		}
		target := pc + int(ins.A)
		if target < 0 || target >= len(fn.Code) {
			t.Errorf("pc %d (%v): jump target %d outside [0,%d)", pc, ins.Op, target, len(fn.Code))
		}
	}
}

func TestCompileLoopFusesCompareAndBackEdge(t *testing.T) {
	fn := compileMethod(t, `class T {
		static int f(int n) {
			int s = 0;
			for (int i = 0; i < n; i++) { s = s + i; }
			return s;
		}
	}`, "f")
	checkJumps(t, fn)
	var fused, backEdge bool
	for _, ins := range fn.Code {
		switch ins.Op {
		case bytecode.OpJmpCmpLLFalse, bytecode.OpJmpCmpLLTrue,
			bytecode.OpJmpCmpLCFalse, bytecode.OpJmpCmpLCTrue:
			fused = true
		case bytecode.OpJmpBranch:
			backEdge = true
		}
	}
	if !fused {
		t.Error("counted loop did not fuse its compare with the conditional jump")
	}
	if !backEdge {
		t.Error("counted loop did not fuse the branch charge into the back edge")
	}
	if fn.MaxStack < 1 {
		t.Errorf("MaxStack = %d, want >= 1", fn.MaxStack)
	}
	if fn.NSlots < 2 {
		t.Errorf("NSlots = %d, want >= 2 (n, s, i)", fn.NSlots)
	}
}

func TestCompileControlFlowShapes(t *testing.T) {
	// Each shape must lower (no fallback) with in-range jumps; running them
	// is the interpreter suite's job, structure is this one's.
	shapes := map[string]string{
		"ternary": `class T { static int f(int x) { return x > 0 ? x : -x; } }`,
		"shortcircuit": `class T { static boolean f(int x) {
			return x > 0 && x < 100 || x == -1;
		} }`,
		"switch": `class T { static int f(int x) {
			switch (x % 3) { case 0: return 1; case 1: return 2; default: return 3; }
		} }`,
		"dowhile": `class T { static int f(int n) {
			int s = 0; do { s += n; n--; } while (n > 0); return s;
		} }`,
		"nested": `class T { static int f(int n) {
			int s = 0;
			for (int i = 0; i < n; i++) {
				for (int j = 0; j < i; j++) {
					if (j % 2 == 0) { s += j; } else { s -= 1; }
				}
			}
			return s;
		} }`,
		"arrays": `class T { static int f(int n) {
			int[] a = new int[8];
			for (int i = 0; i < 8; i++) { a[i] = i * n; }
			return a[3] + a[7 % 8];
		} }`,
	}
	for name, src := range shapes {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			checkJumps(t, compileMethod(t, src, "f"))
		})
	}
}

func TestCompileSkipsUnresolvedMethods(t *testing.T) {
	f, err := parser.Parse("t.java", `class T { static int f() { return 1; } }`)
	if err != nil {
		t.Fatal(err)
	}
	// Without interp.Load no slots are resolved, so Compile must decline
	// rather than produce a wrong frame layout.
	m := f.Classes[0].Methods[0]
	if fn := bytecode.Compile("T", m); fn != nil && len(m.Params) > 0 {
		t.Error("unresolved method must fall back to the tree-walker")
	}
	if fn := bytecode.Compile("T", &ast.Method{Name: "empty"}); fn != nil {
		t.Error("bodyless method must compile to nil")
	}
}

func TestDisasmDeterministic(t *testing.T) {
	fn := compileMethod(t, `class T {
		static double f(int n) {
			double s = 0.5;
			for (int i = 0; i < n; i++) { s = s * 1.5 + i; }
			return s;
		}
	}`, "f")
	a, b := fn.Disasm(), fn.Disasm()
	if a != b {
		t.Error("Disasm is not deterministic across calls")
	}
	for _, want := range []string{"func T.f/1", "slots=", "stack=", "ret"} {
		if !strings.Contains(a, want) {
			t.Errorf("disassembly missing %q:\n%s", want, a)
		}
	}
}
