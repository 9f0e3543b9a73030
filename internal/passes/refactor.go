package passes

import (
	"slices"

	"jepo/internal/minijava/ast"
)

// Refactor analyzes the files with the given rules (all rules when none are
// given) and applies every fix, like ApplyFixes over AnalyzeFilesRules of
// ast.CloneFiles copies, with the same printed files and the same Result.
// It never writes the masters, so they may be read-only parse masters, and
// it copies only what a fix writes:
//
//   - every file and class is copied shallowly, with its own Classes,
//     Fields and Methods slices;
//   - every field is cloned, since declaration and initializer fixes write
//     fields and a class has few of them;
//   - a method is cloned when a fix writes it: a statics hoist's method, or
//     a method whose walk on the master found a fix, which is then walked
//     again on its clone so the fix binds to the clone's nodes.
//
// Every other method stays shared with its master, so the returned files
// are frozen: a caller that links or rewrites one takes an ast.CloneFile
// copy first.
func Refactor(masters []*ast.File, rules ...Rule) ([]*ast.File, *Result) {
	m := newMatcher(masters, ruleSet(rules))
	// A hoist writes its field and a method that may sit in another class:
	// clone each plan's method before the walk, and re-key each plan to its
	// field's copy as the fields are copied.
	plans := m.hoist
	m.hoist = map[*ast.Field]*hoistPlan{}
	methodCopy := map[*ast.Method]*ast.Method{}
	for _, p := range plans {
		if methodCopy[p.method] == nil {
			methodCopy[p.method] = ast.CloneMethod(p.method)
		}
	}

	files := make([]*ast.File, len(masters))
	var diags []Diagnostic
	for i, f := range masters {
		cf := &ast.File{Path: f.Path, Package: f.Package, Imports: f.Imports,
			Classes: make([]*ast.Class, len(f.Classes))}
		files[i] = cf
		start := len(diags)
		for j, c := range f.Classes {
			cc := *c
			cc.Fields = make([]*ast.Field, len(c.Fields))
			for k, fd := range c.Fields {
				cc.Fields[k] = ast.CloneField(fd)
				if p := plans[fd]; p != nil {
					m.hoist[cc.Fields[k]] = &hoistPlan{method: methodCopy[p.method], className: p.className, fd: cc.Fields[k]}
				}
			}
			cc.Methods = slices.Clone(c.Methods)
			cf.Classes[j] = &cc
			m.startClass(cf, &cc)
			for k, mt := range c.Methods {
				if cm := methodCopy[mt]; cm != nil {
					cc.Methods[k] = cm
					m.methodDecl(cm)
					continue
				}
				begin := len(m.found)
				m.methodDecl(mt)
				if !hasFix(m.found[begin:]) {
					continue
				}
				// A fix writes this method: drop the master walk's
				// diagnostics and walk a private copy, so every fix binds
				// to the copy's nodes.
				m.found = m.found[:begin]
				cc.Methods[k] = ast.CloneMethod(mt)
				m.methodDecl(cc.Methods[k])
			}
			diags = append(diags, m.found...)
		}
		sortByLine(diags[start:])
	}
	res := ApplyFixes(files, diags)
	for _, f := range files {
		f.Freeze()
	}
	return files, res
}

func hasFix(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Fix != nil {
			return true
		}
	}
	return false
}
