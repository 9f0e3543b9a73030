// Package instrument reproduces JEPO's profiler-side code injection. The
// paper injects MSR-reading probes into the bytecode of every method with
// Javassist; here every method gets a probe label (ast.Method.Probe) naming
// it "pkg.Class.method", and both execution engines fire the interpreter's
// interp.ProbeHook with that label at method entry and exit. The method
// bodies are left as parsed. The profile package implements the hook and
// takes the RAPL readings.
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

// Inject labels every method (including constructors) of every class in the
// given files for probing, in place, and returns the number of methods
// labelled. It panics on a frozen file (a read-only parse master): instrument
// an ast.CloneFile copy.
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
				m.Probe = MethodName(f.Package, c.Name, m.Name)
				n++
			}
		}
	}
	return n
}
