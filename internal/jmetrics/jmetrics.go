// Package jmetrics computes the per-classifier source metrics of the paper's
// Table II — dependencies, attributes, methods, packages and LOC — over a
// mini-Java corpus, reproducing what the paper obtained from the Eclipse
// Metrics plug-in and the Class Dependency Analyzer (CDA).
//
// Dependencies of a root class are counted as the number of classes in its
// transitive reference closure (including the root); attributes, methods,
// packages and LOC are totals over that closure.
package jmetrics

import (
	"fmt"
	"sort"
	"strings"

	"jepo/internal/minijava/ast"
)

// SourceFile pairs a parsed file with its raw source (for LOC counting).
type SourceFile struct {
	AST    *ast.File
	Source string
}

// Metrics is one Table II row.
type Metrics struct {
	Root         string
	Dependencies int
	Attributes   int
	Methods      int
	Packages     int
	LOC          int
}

// Project indexes a corpus for metric queries.
type Project struct {
	files     []SourceFile
	classPkg  map[string]string   // class → package
	classFile map[string]int      // class → file index
	refs      map[string][]string // class → referenced classes
	fields    map[string]int
	methods   map[string]int
	classLOC  map[string]int
}

// NewProject indexes the given files. Classes referenced but not defined
// (builtins like String) are ignored in closures.
func NewProject(files []SourceFile) *Project {
	p := &Project{
		files:     files,
		classPkg:  map[string]string{},
		classFile: map[string]int{},
		refs:      map[string][]string{},
		fields:    map[string]int{},
		methods:   map[string]int{},
		classLOC:  map[string]int{},
	}
	for fi, sf := range files {
		fileLOC := countLOC(sf.Source)
		perClass := fileLOC
		if n := len(sf.AST.Classes); n > 1 {
			perClass = fileLOC / n
		}
		for _, c := range sf.AST.Classes {
			p.classPkg[c.Name] = sf.AST.Package
			p.classFile[c.Name] = fi
			p.fields[c.Name] = len(c.Fields)
			p.methods[c.Name] = len(c.Methods)
			p.classLOC[c.Name] = perClass
			p.refs[c.Name] = referencedClasses(c)
		}
	}
	return p
}

// countLOC counts non-blank source lines, as the Eclipse Metrics plug-in's
// "total lines of code" does.
func countLOC(src string) int {
	n := 0
	for {
		line, rest, more := strings.Cut(src, "\n")
		if strings.TrimSpace(line) != "" {
			n++
		}
		if !more {
			return n
		}
		src = rest
	}
}

// referencedClasses extracts every class name a class mentions: superclass,
// field/param/return types, constructed types, catch types and class-
// qualified references.
func referencedClasses(c *ast.Class) []string {
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && name != c.Name {
			seen[name] = true
		}
	}
	addType := func(t ast.Type) {
		if t.Kind == ast.ClassType {
			add(t.Name)
		}
	}
	add(c.Extends)
	for _, f := range c.Fields {
		addType(f.Type)
		if f.Init != nil {
			exprRefs(f.Init, add)
		}
	}
	for _, m := range c.Methods {
		addType(m.Ret)
		for _, pr := range m.Params {
			addType(pr.Type)
		}
		for _, th := range m.Throws {
			add(th)
		}
		if m.Body != nil {
			ast.Inspect(m.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.LocalVar:
					addType(x.Type)
				case *ast.New:
					add(x.Name)
				case *ast.NewArray:
					addType(x.Elem)
				case *ast.Cast:
					addType(x.Type)
				case *ast.InstanceOf:
					add(x.Name)
				case *ast.Select:
					if id, ok := x.X.(*ast.Ident); ok && startsUpper(id.Name) {
						add(id.Name)
					}
				case *ast.Call:
					if id, ok := x.Recv.(*ast.Ident); ok && startsUpper(id.Name) {
						add(id.Name)
					}
				}
				return true
			})
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func exprRefs(e ast.Expr, add func(string)) {
	ast.Inspect(e, func(n ast.Node) bool {
		if nw, ok := n.(*ast.New); ok {
			add(nw.Name)
		}
		return true
	})
}

func startsUpper(s string) bool { return s != "" && s[0] >= 'A' && s[0] <= 'Z' }

// Closure computes the transitive reference closure of a root class,
// restricted to classes defined in the project.
func (p *Project) Closure(root string) ([]string, error) {
	if _, ok := p.classPkg[root]; !ok {
		return nil, fmt.Errorf("jmetrics: unknown class %s", root)
	}
	seen := map[string]bool{root: true}
	queue := []string{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ref := range p.refs[cur] {
			if _, defined := p.classPkg[ref]; !defined || seen[ref] {
				continue
			}
			seen[ref] = true
			queue = append(queue, ref)
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Measure computes the Table II row for a root class.
func (p *Project) Measure(root string) (Metrics, error) {
	closure, err := p.Closure(root)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{Root: root, Dependencies: len(closure)}
	pkgs := map[string]bool{}
	for _, cls := range closure {
		m.Attributes += p.fields[cls]
		m.Methods += p.methods[cls]
		m.LOC += p.classLOC[cls]
		pkgs[p.classPkg[cls]] = true
	}
	m.Packages = len(pkgs)
	return m, nil
}

// NumClasses is the total class count of the project (the paper reports WEKA
// at 3373 classes).
func (p *Project) NumClasses() int { return len(p.classPkg) }

// Table renders rows in the paper's Table II layout.
func Table(rows []Metrics) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %10s %8s %9s %8s\n",
		"Classifiers", "Dependencies", "Attributes", "Methods", "Packages", "LOC")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12d %10d %8d %9d %8d\n",
			r.Root, r.Dependencies, r.Attributes, r.Methods, r.Packages, r.LOC)
	}
	return sb.String()
}
