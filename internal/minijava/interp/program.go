package interp

import (
	"fmt"
	"sync"

	"jepo/internal/minijava/ast"
)

// classInfo is the loaded form of a class: resolved superclass, slot-indexed
// instance fields (inherited first) and name-indexed methods.
type classInfo struct {
	Name    string
	Decl    *ast.Class
	Super   *classInfo
	fields  []fieldInfo // instance fields, supers first, in declaration order
	fieldIx map[string]int
	methods map[string][]*ast.Method // instance and static, by name
	ctors   []*ast.Method
	statics map[string]*staticSlot
	statOrd []string // static fields in declaration order

	// Flattened lookup tables built at the end of Load: the superclass chain
	// walk of findMethod/findStatic precomputed, most-derived match first.
	flatMethods map[methodKey]*ast.Method
	flatStatics map[string]*staticSlot
}

// methodKey identifies a method by name and arity (the dialect overloads on
// arity only).
type methodKey struct {
	name  string
	arity int
}

type fieldInfo struct {
	Name string
	Type ast.Type
	K    Kind // kindOfType(Type), precomputed for store identity checks
	Init ast.Expr
	Own  bool // declared by this class (not inherited)
}

// staticSlot is the link-time description of one static field. Its value
// and simulated address are per-run state: they live in the Interp's statics
// table at index ix, so interpreters sharing a Program never share a static.
type staticSlot struct {
	Type ast.Type
	K    Kind // kindOfType(Type), precomputed for store identity checks
	Init ast.Expr
	ix   int32 // index into Interp.statics, in static initialization order
}

// Program is a loaded set of classes ready to execute. Load links and
// resolves; the bytecode is compiled on the first run (see compile), so a
// program that is loaded but never run never pays for lowering.
type Program struct {
	classes  map[string]*classInfo
	order    []string // load order, for static initialization
	nStatics int      // static slots across all classes

	// Resolution tables built by resolveProgram. sites is indexed by the
	// SiteIx annotations on Call/New/Select nodes and holds load-time
	// resolved dispatch targets; statRefs is indexed by the RIx of
	// ResStaticRef idents and points directly at unambiguous static slots;
	// classRefs is indexed by the RIx of ResClass idents and holds each
	// class name's reference value, boxed once.
	sites     []progSite
	statRefs  []*staticSlot
	classRefs []Value

	// funcs is the compiled-bytecode table built by compileProgram, indexed
	// by the CIx annotations Load numbers methods with (nil fn = no
	// lowering, the tree-walker runs that method). compiled guards it: every
	// reader runs after compile.
	funcs    []compiledFn
	compiled sync.Once
}

// progSiteKind classifies what a call/new/select site resolved to at load
// time. siteLazy (the zero value) means nothing could be pinned down
// statically; both engines then resolve the site at run time, through the
// per-instance monomorphic cache or the dynamic lookup ladder.
type progSiteKind uint8

const (
	siteLazy              progSiteKind = iota
	siteNewUser                        // new of a user class: ci + ctor (ctor may be nil)
	siteNewBuiltin                     // new of a runtime-provided class
	siteStaticCall                     // Class.m(...) on a user class: ci + method
	siteBuiltinStaticCall              // Class.m(...) handled by the builtin runtime
	siteStaticSel                      // Class.field on a user class: direct static slot
	siteBuiltinConstSel                // Class.FIELD builtin constant: precomputed value
)

// progSite is the immutable load-time resolution of one call/new/select
// site. cls guards the static-dispatch kinds: the fast path applies only
// when the evaluated receiver is a class reference with exactly this name.
type progSite struct {
	kind progSiteKind
	cls  string
	ci   *classInfo
	m    *ast.Method
	slot *staticSlot
	v    Value
}

// Load links a set of parsed files into an executable program: the link
// phase, then the annotate phase. Link reports duplicate classes, unknown
// superclasses and inheritance cycles, and builds the class, field and
// method tables; it only reads the AST. Annotate numbers the method bodies
// (Method.CIx) and runs the resolution pass (see resolve.go), and it writes
// to the AST in place.
//
// The files must therefore be the caller's own: Load panics on a frozen
// file (a read-only parse master; load an ast.CloneFile copy). Loading the
// same AST from two goroutines concurrently is a data race, and after
// re-loading a mutated AST (e.g. after passes.ApplyFixes), programs obtained
// from earlier loads of that AST must not keep executing. The first run
// compiles the program from the AST, so the AST must not change between
// Load and the last run.
func Load(files ...*ast.File) (*Program, error) {
	for _, f := range files {
		if f.Frozen() {
			panic("interp: Load of read-only parse master " + f.Path + " (load an ast.CloneFile copy)")
		}
	}
	p, err := link(files)
	if err != nil {
		return nil, err
	}
	p.annotate()
	return p, nil
}

// CheckEntry reports the error Load followed by (*Program).CheckMain would
// return for these files, with the same text and precedence: link errors
// (duplicate class, unknown superclass, inheritance cycle) first, then the
// entry-point errors. It runs only the link phase, so it writes nothing to
// the files and accepts read-only masters: a caller can turn a program that
// cannot run away before it copies or resolves anything.
func CheckEntry(mainClass string, files ...*ast.File) error {
	p, err := link(files)
	if err != nil {
		return err
	}
	return p.CheckMain(mainClass)
}

// link is Load's first phase: class table, superclasses, inheritance
// cycles, field and method tables, and the static slots' numbering. It
// reads the AST and writes only the Program.
func link(files []*ast.File) (*Program, error) {
	p := &Program{classes: make(map[string]*classInfo)}
	for _, f := range files {
		for _, c := range f.Classes {
			if _, dup := p.classes[c.Name]; dup {
				return nil, fmt.Errorf("interp: duplicate class %s", c.Name)
			}
			ci := &classInfo{
				Name:    c.Name,
				Decl:    c,
				fieldIx: make(map[string]int),
				methods: make(map[string][]*ast.Method),
				statics: make(map[string]*staticSlot),
			}
			p.classes[c.Name] = ci
			p.order = append(p.order, c.Name)
		}
	}
	// Link superclasses and detect cycles.
	for _, name := range p.order {
		ci := p.classes[name]
		ext := ci.Decl.Extends
		if ext == "" {
			continue
		}
		super, ok := p.classes[ext]
		if !ok {
			if IsExceptionClass(ext) || ext == "Object" {
				continue // extending a built-in root is allowed and ignored
			}
			return nil, fmt.Errorf("interp: class %s extends unknown class %s", name, ext)
		}
		ci.Super = super
	}
	for _, name := range p.order {
		seen := map[string]bool{}
		for ci := p.classes[name]; ci != nil; ci = ci.Super {
			if seen[ci.Name] {
				return nil, fmt.Errorf("interp: inheritance cycle through %s", ci.Name)
			}
			seen[ci.Name] = true
		}
	}
	// Build field/method tables bottom-up with memoization via buildInfo.
	built := map[string]bool{}
	var build func(ci *classInfo)
	build = func(ci *classInfo) {
		if built[ci.Name] {
			return
		}
		built[ci.Name] = true
		if ci.Super != nil {
			build(ci.Super)
			ci.fields = append(ci.fields, ci.Super.fields...)
			for i := range ci.fields {
				ci.fields[i].Own = false
			}
			for k, v := range ci.Super.fieldIx {
				ci.fieldIx[k] = v
			}
		}
		for _, fd := range ci.Decl.Fields {
			if fd.Mods.Has(ast.ModStatic) {
				ci.statics[fd.Name] = &staticSlot{Type: fd.Type, K: kindOfType(fd.Type), Init: fd.Init}
				ci.statOrd = append(ci.statOrd, fd.Name)
				continue
			}
			if ix, shadow := ci.fieldIx[fd.Name]; shadow {
				// Field shadowing: reuse the slot (the dialect forbids
				// distinct same-named fields).
				ci.fields[ix] = fieldInfo{Name: fd.Name, Type: fd.Type, K: kindOfType(fd.Type), Init: fd.Init, Own: true}
				continue
			}
			ci.fieldIx[fd.Name] = len(ci.fields)
			ci.fields = append(ci.fields, fieldInfo{Name: fd.Name, Type: fd.Type, K: kindOfType(fd.Type), Init: fd.Init, Own: true})
		}
		// ci.methods holds only methods declared by this class; findMethod
		// walks the superclass chain, so overriding falls out naturally.
		for _, m := range ci.Decl.Methods {
			if m.IsCtor {
				ci.ctors = append(ci.ctors, m)
				continue
			}
			ci.methods[m.Name] = append(ci.methods[m.Name], m)
		}
	}
	for _, name := range p.order {
		build(p.classes[name])
	}
	// Flatten the superclass-chain lookups. Walking self-to-super and
	// keeping the first hit per key reproduces findMethod/findStatic's
	// override-wins order exactly.
	for _, name := range p.order {
		ci := p.classes[name]
		ci.flatMethods = make(map[methodKey]*ast.Method)
		ci.flatStatics = make(map[string]*staticSlot, len(ci.statics))
		for c := ci; c != nil; c = c.Super {
			for mname, ms := range c.methods {
				for _, m := range ms {
					k := methodKey{mname, len(m.Params)}
					if _, ok := ci.flatMethods[k]; !ok {
						ci.flatMethods[k] = m
					}
				}
			}
			for sname, slot := range c.statics {
				if _, ok := ci.flatStatics[sname]; !ok {
					ci.flatStatics[sname] = slot
				}
			}
		}
	}
	// Number the static slots in initialization order.
	for _, name := range p.order {
		ci := p.classes[name]
		for _, fname := range ci.statOrd {
			ci.statics[fname].ix = int32(p.nStatics)
			p.nStatics++
		}
	}
	return p, nil
}

// annotate is Load's second phase, the only one that writes to the AST: it
// numbers the method bodies in compilation order (see compileProgram) and
// runs the resolution pass.
func (p *Program) annotate() {
	var nfuncs int32
	for _, name := range p.order {
		for _, m := range p.classes[name].Decl.Methods {
			if m.Body == nil {
				m.CIx = 0
				continue
			}
			nfuncs++
			m.CIx = nfuncs
		}
	}
	resolveProgram(p)
}

// compile lowers the program to bytecode once, on the first run. Every path
// that reads funcs — InitStatics, which all runs pass through, and the
// disassemblers — calls it first.
func (p *Program) compile() { p.compiled.Do(func() { compileProgram(p) }) }

// CheckMain reports the error RunMain(mainClass) would return for a missing
// entry point, so a caller can reject a program that cannot run before it
// builds a meter and an Interp.
func (p *Program) CheckMain(mainClass string) error {
	_, _, err := p.entry(mainClass)
	return err
}

// entry resolves RunMain's entry point.
func (p *Program) entry(mainClass string) (*classInfo, *ast.Method, error) {
	if mainClass == "" {
		var candidates []string
		for _, name := range p.order {
			if p.classes[name].findMethod("main", 1) != nil {
				candidates = append(candidates, name)
			}
		}
		switch len(candidates) {
		case 1:
			mainClass = candidates[0]
		case 0:
			return nil, nil, fmt.Errorf("interp: no class with a main method")
		default:
			return nil, nil, fmt.Errorf("interp: multiple main classes: %v (choose one)", candidates)
		}
	}
	ci, ok := p.classes[mainClass]
	if !ok {
		return nil, nil, fmt.Errorf("interp: unknown main class %s", mainClass)
	}
	m := ci.findMethod("main", 1)
	if m == nil {
		return nil, nil, fmt.Errorf("interp: class %s has no main(String[]) method", mainClass)
	}
	return ci, m, nil
}

// Class looks up a loaded class.
func (p *Program) Class(name string) (*classInfo, bool) {
	ci, ok := p.classes[name]
	return ci, ok
}

// Classes lists class names in load order.
func (p *Program) Classes() []string { return append([]string(nil), p.order...) }

// findMethod resolves a method by name and arity via the flattened table
// (equivalent to walking up the hierarchy).
func (ci *classInfo) findMethod(name string, arity int) *ast.Method {
	return ci.flatMethods[methodKey{name, arity}]
}

// findCtor resolves a constructor by arity.
func (ci *classInfo) findCtor(arity int) *ast.Method {
	for _, m := range ci.ctors {
		if len(m.Params) == arity {
			return m
		}
	}
	return nil
}

// findStatic resolves a static field via the flattened table (equivalent to
// walking up the hierarchy).
func (ci *classInfo) findStatic(name string) *staticSlot {
	return ci.flatStatics[name]
}
