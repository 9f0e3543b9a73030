// Package instrument reproduces JEPO's profiler-side code injection. The
// paper injects MSR-reading probes into the bytecode of every method with
// Javassist; here the same effect is achieved as an AST transformation that
// wraps each method body in
//
//	JEPO.enter("pkg.Class.method");
//	try {
//	    ... original body ...
//	} finally {
//	    JEPO.exit("pkg.Class.method");
//	}
//
// The JEPO builtin routes the events to an interp.ProbeHook — the profile
// package implements the hook and takes the RAPL readings.
package instrument

import (
	"jepo/internal/minijava/ast"
)

// MethodName renders the profiler's fully qualified method label: the
// "method name with package and class name" the paper's Fig. 4 shows.
func MethodName(pkg, class, method string) string {
	if pkg == "" {
		return class + "." + method
	}
	return pkg + "." + class + "." + method
}

// Inject instruments every method (including constructors) of every class in
// the given files, in place, and returns the number of methods instrumented.
// It panics on a frozen file (a read-only parse master): instrument an
// ast.CloneFile copy.
func Inject(files ...*ast.File) int {
	for _, f := range files {
		if f.Frozen() {
			panic("instrument: Inject into read-only parse master " + f.Path + " (instrument an ast.CloneFile copy)")
		}
	}
	n := 0
	for _, f := range files {
		for _, c := range f.Classes {
			for _, m := range c.Methods {
				if m.Body == nil {
					continue
				}
				injectMethod(f.Package, c.Name, m)
				n++
			}
		}
	}
	return n
}

func injectMethod(pkg, class string, m *ast.Method) {
	name := MethodName(pkg, class, m.Name)
	pos := m.Pos
	probe := func(fn string) ast.Stmt {
		return &ast.ExprStmt{Pos: pos, X: &ast.Call{
			Pos:  pos,
			Recv: &ast.Ident{Pos: pos, Name: "JEPO"},
			Name: fn,
			Args: []ast.Expr{&ast.Literal{Pos: pos, Kind: ast.LitString, S: name,
				Raw: "\"" + name + "\""}},
		}}
	}
	original := &ast.Block{Pos: pos, Stmts: m.Body.Stmts}
	m.Body = &ast.Block{Pos: pos, Stmts: []ast.Stmt{
		probe("enter"),
		&ast.Try{
			Pos:     pos,
			Block:   original,
			Finally: &ast.Block{Pos: pos, Stmts: []ast.Stmt{probe("exit")}},
		},
	}}
}

// IsInstrumented reports whether a method already carries the probe pattern,
// so double instrumentation can be avoided.
func IsInstrumented(m *ast.Method) bool {
	if m.Body == nil || len(m.Body.Stmts) != 2 {
		return false
	}
	es, ok := m.Body.Stmts[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.Call)
	if !ok || call.Name != "enter" {
		return false
	}
	recv, ok := call.Recv.(*ast.Ident)
	if !ok || recv.Name != "JEPO" {
		return false
	}
	tr, ok := m.Body.Stmts[1].(*ast.Try)
	return ok && tr.Finally != nil
}
