package interp

import "jepo/internal/minijava/ast"

// This file implements the load-time resolution pass. It runs once at the
// end of Load and annotates the AST so the execution hot path can skip the
// per-node map lookups the dynamic semantics would otherwise require:
//
//   - every method gets a frame slot count (Method.NSlots), every local and
//     catch variable a numbered slot, and every identifier the slot of the
//     local that can shadow it (Ident.RSlot) plus a cached resolution for
//     the no-live-local case (Ident.RKind/RIx);
//   - every Call/New/Select node gets a site index (SiteIx). It indexes the
//     program's site table, which holds the targets resolved at load time
//     for statically-known receivers, and the interpreter's per-instance
//     monomorphic cache (Interp.siteCache), which holds the rest once run.
//     Both engines resolve every call and select through these two tables;
//   - every class name used as a value gets the index (RIx) of its class
//     reference in the program's classRefs table, boxed once here.
//
// The dialect is dynamically scoped per frame (a local exists from the
// moment its declaration statement executes) and method bodies execute
// against the receiver's dynamic class, so resolution must be conservative:
// whenever a subclass or an instance receiver could change what a name means
// at run time, the resolver falls back to ResDynamic and the interpreter
// keeps the original lookup ladder. The pass only changes how names are
// found, never what is found or what the meter charges — simulated energy is
// bit-identical to the unresolved interpreter (see the golden test in
// internal/tables).
//
// All annotations are deterministic functions of the AST and are fully
// overwritten on every Load, so re-loading the same (unmutated) AST yields
// identical annotations.

type resolver struct {
	p *Program

	// Program-wide conflict sets. A name in instField is an instance field
	// of at least one class; a name in staticName is a static field of at
	// least one class; multiStatic marks static names declared by more than
	// one class (so no single slot pointer is valid program-wide).
	instField   map[string]bool
	staticName  map[string]bool
	multiStatic map[string]bool

	statRefIx  map[*staticSlot]int32
	classRefIx map[string]int32
}

// rctx is the per-body resolution context: the declaring class, whether the
// body is a static context, and the name→slot map of the enclosing method
// (nil for field initializers, which execute in slotless frames).
type rctx struct {
	ci     *classInfo
	static bool
	slots  map[string]int32
}

// resolveProgram annotates every method body, constructor and field
// initializer of a loaded program.
func resolveProgram(p *Program) {
	r := &resolver{
		p:           p,
		instField:   map[string]bool{},
		staticName:  map[string]bool{},
		multiStatic: map[string]bool{},
		statRefIx:   map[*staticSlot]int32{},
		classRefIx:  map[string]int32{},
	}
	for _, name := range p.order {
		ci := p.classes[name]
		for _, f := range ci.fields {
			r.instField[f.Name] = true
		}
		for _, sname := range ci.statOrd {
			if r.staticName[sname] {
				r.multiStatic[sname] = true
			}
			r.staticName[sname] = true
		}
	}
	for _, name := range p.order {
		ci := p.classes[name]
		for _, fd := range ci.Decl.Fields {
			if fd.Init == nil {
				continue
			}
			c := &rctx{ci: ci, static: fd.Mods.Has(ast.ModStatic)}
			r.expr(c, fd.Init)
		}
		for _, m := range ci.Decl.Methods {
			r.method(ci, m)
		}
	}
}

// method assigns frame slots for one method or constructor and annotates its
// body. Parameters take slots 0..len(Params)-1 positionally; every distinct
// local/catch name then gets one slot, assigned on first declaration in
// source order. Re-declarations of a name share the slot, which matches the
// map-frame behavior of one live binding per name.
func (r *resolver) method(ci *classInfo, m *ast.Method) {
	c := &rctx{
		ci:     ci,
		static: m.Mods.Has(ast.ModStatic) && !m.IsCtor,
		slots:  make(map[string]int32, len(m.Params)+4),
	}
	for i, p := range m.Params {
		c.slots[p.Name] = int32(i)
	}
	next := int32(len(m.Params))
	declare := func(name string) int32 {
		if s, ok := c.slots[name]; ok {
			return s
		}
		s := next
		c.slots[name] = s
		next++
		return s
	}
	if m.Body != nil {
		r.declStmt(declare, m.Body)
		m.NSlots = next
		r.stmt(c, m.Body)
	} else {
		m.NSlots = next
	}
}

// declStmt walks statements assigning slots to local and catch variable
// declarations. It runs before annotation so identifiers that execute before
// their declaration on a loop's first iteration still know their slot (the
// cell's live flag keeps them on the dynamic path until the declaration
// runs).
func (r *resolver) declStmt(declare func(string) int32, s ast.Stmt) {
	switch n := s.(type) {
	case *ast.Block:
		for _, st := range n.Stmts {
			r.declStmt(declare, st)
		}
	case *ast.LocalVar:
		n.Slot = declare(n.Name) + 1
	case *ast.If:
		r.declStmt(declare, n.Then)
		if n.Else != nil {
			r.declStmt(declare, n.Else)
		}
	case *ast.While:
		r.declStmt(declare, n.Body)
	case *ast.DoWhile:
		r.declStmt(declare, n.Body)
	case *ast.For:
		if n.Init != nil {
			r.declStmt(declare, n.Init)
		}
		r.declStmt(declare, n.Body)
	case *ast.Switch:
		for i := range n.Cases {
			for _, st := range n.Cases[i].Stmts {
				r.declStmt(declare, st)
			}
		}
	case *ast.Try:
		r.declStmt(declare, n.Block)
		for i := range n.Catches {
			cat := &n.Catches[i]
			cat.Slot = declare(cat.Name) + 1
			r.declStmt(declare, cat.Block)
		}
		if n.Finally != nil {
			r.declStmt(declare, n.Finally)
		}
	}
}

func (r *resolver) stmt(c *rctx, s ast.Stmt) {
	switch n := s.(type) {
	case *ast.Block:
		for _, st := range n.Stmts {
			r.stmt(c, st)
		}
	case *ast.LocalVar:
		if n.Init != nil {
			r.expr(c, n.Init)
		}
	case *ast.ExprStmt:
		r.expr(c, n.X)
	case *ast.If:
		r.expr(c, n.Cond)
		r.stmt(c, n.Then)
		if n.Else != nil {
			r.stmt(c, n.Else)
		}
	case *ast.While:
		r.expr(c, n.Cond)
		r.stmt(c, n.Body)
	case *ast.DoWhile:
		r.stmt(c, n.Body)
		r.expr(c, n.Cond)
	case *ast.For:
		if n.Init != nil {
			r.stmt(c, n.Init)
		}
		if n.Cond != nil {
			r.expr(c, n.Cond)
		}
		for _, p := range n.Post {
			r.expr(c, p)
		}
		r.stmt(c, n.Body)
	case *ast.Return:
		if n.X != nil {
			r.expr(c, n.X)
		}
	case *ast.Switch:
		r.expr(c, n.Tag)
		for i := range n.Cases {
			for _, v := range n.Cases[i].Values {
				r.expr(c, v)
			}
			for _, st := range n.Cases[i].Stmts {
				r.stmt(c, st)
			}
		}
	case *ast.Throw:
		r.expr(c, n.X)
	case *ast.Try:
		r.stmt(c, n.Block)
		for i := range n.Catches {
			r.stmt(c, n.Catches[i].Block)
		}
		if n.Finally != nil {
			r.stmt(c, n.Finally)
		}
	}
}

func (r *resolver) expr(c *rctx, e ast.Expr) {
	switch n := e.(type) {
	case *ast.Ident:
		r.ident(c, n)
	case *ast.Select:
		r.expr(c, n.X)
		r.selectSite(n)
	case *ast.Index:
		r.expr(c, n.X)
		r.expr(c, n.I)
	case *ast.Call:
		if n.Recv != nil {
			r.expr(c, n.Recv)
		}
		for _, a := range n.Args {
			r.expr(c, a)
		}
		r.callSite(n)
	case *ast.New:
		for _, a := range n.Args {
			r.expr(c, a)
		}
		r.newSite(n)
	case *ast.NewArray:
		for _, l := range n.Lens {
			r.expr(c, l)
		}
	case *ast.ArrayLit:
		for _, el := range n.Elems {
			r.expr(c, el)
		}
	case *ast.Unary:
		r.expr(c, n.X)
	case *ast.Binary:
		r.expr(c, n.X)
		r.expr(c, n.Y)
	case *ast.Assign:
		r.expr(c, n.LHS)
		r.expr(c, n.RHS)
	case *ast.Ternary:
		r.expr(c, n.Cond)
		r.expr(c, n.Then)
		r.expr(c, n.Else)
	case *ast.Cast:
		r.expr(c, n.X)
	case *ast.InstanceOf:
		r.expr(c, n.X)
	}
}

// ident caches what a bare name resolves to when no live local claims it,
// mirroring the runtime ladder local → instance field → static → class name.
// Any name whose meaning can shift with the dynamic receiver class stays
// ResDynamic.
func (r *resolver) ident(c *rctx, n *ast.Ident) {
	n.RSlot, n.RKind, n.RIx = 0, ast.ResNone, 0
	if c.slots != nil {
		if s, ok := c.slots[n.Name]; ok {
			n.RSlot = s + 1
		}
	}
	if ix, ok := c.ci.fieldIx[n.Name]; ok {
		if c.static {
			// A static method invoked through an instance receiver runs
			// with this != nil and would see the field; stay dynamic.
			n.RKind = ast.ResDynamic
			return
		}
		// Field slots are stable across subclasses (shadowing reuses the
		// slot), so the index is valid for any dynamic receiver class.
		n.RKind, n.RIx = ast.ResField, int32(ix)
		return
	}
	if r.instField[n.Name] {
		// Not a field here, but some class declares one by this name — a
		// subclass receiver could shadow the static/class meaning.
		n.RKind = ast.ResDynamic
		return
	}
	if slot := c.ci.findStatic(n.Name); slot != nil {
		// The runtime frame class is always this class or a subclass of
		// it, so the static is reachable there too. With a single
		// program-wide declaration the slot pointer itself is safe;
		// otherwise a subclass may shadow it and the per-frame-class flat
		// table decides.
		if r.multiStatic[n.Name] {
			n.RKind = ast.ResStatic
		} else {
			n.RKind, n.RIx = ast.ResStaticRef, r.statRef(slot)
		}
		return
	}
	if _, ok := r.p.classes[n.Name]; ok || isBuiltinClass(n.Name) {
		if r.staticName[n.Name] {
			// A subclass frame could resolve the name to its static first.
			n.RKind = ast.ResDynamic
			return
		}
		n.RKind, n.RIx = ast.ResClass, r.classRef(n.Name)
		return
	}
	n.RKind = ast.ResDynamic // unknown here; the dynamic path reports it
}

func (r *resolver) statRef(slot *staticSlot) int32 {
	if ix, ok := r.statRefIx[slot]; ok {
		return ix
	}
	ix := int32(len(r.p.statRefs))
	r.p.statRefs = append(r.p.statRefs, slot)
	r.statRefIx[slot] = ix
	return ix
}

// classRef returns the classRefs index of a class name's boxed reference.
func (r *resolver) classRef(name string) int32 {
	if ix, ok := r.classRefIx[name]; ok {
		return ix
	}
	ix := int32(len(r.p.classRefs))
	r.p.classRefs = append(r.p.classRefs, Value{K: KClassRef, R: name})
	r.classRefIx[name] = ix
	return ix
}

// allocSite appends a fresh (lazy) site and returns its 1-based index.
func (r *resolver) allocSite() int32 {
	r.p.sites = append(r.p.sites, progSite{})
	return int32(len(r.p.sites))
}

// classRecv reports the class name a receiver expression is statically known
// to evaluate to: an identifier that always resolves to a class reference.
func (r *resolver) classRecv(e ast.Expr) (string, bool) {
	if id, ok := e.(*ast.Ident); ok && id.RKind == ast.ResClass && id.RSlot == 0 {
		return id.Name, true
	}
	return "", false
}

// callSite resolves static-dispatch call sites. Unqualified and
// instance-receiver calls stay lazy: the interpreter's per-instance
// monomorphic cache resolves them, keyed by the dynamic class.
func (r *resolver) callSite(n *ast.Call) {
	n.SiteIx = r.allocSite()
	if n.Recv == nil {
		return
	}
	cls, ok := r.classRecv(n.Recv)
	if !ok {
		return
	}
	ps := &r.p.sites[n.SiteIx-1]
	if ci, ok := r.p.classes[cls]; ok {
		if m := ci.findMethod(n.Name, len(n.Args)); m != nil && m.Mods.Has(ast.ModStatic) {
			*ps = progSite{kind: siteStaticCall, cls: cls, ci: ci, m: m}
		}
		// Unknown or non-static methods keep the dynamic path so its
		// diagnostics (and user-class-shadows-builtin fallthrough) apply.
		return
	}
	if isBuiltinClass(cls) {
		*ps = progSite{kind: siteBuiltinStaticCall, cls: cls}
	}
}

// selectSite resolves static field selects with statically-known class
// receivers. Instance field selects stay lazy and use the per-instance
// monomorphic cache.
func (r *resolver) selectSite(n *ast.Select) {
	n.SiteIx = r.allocSite()
	cls, ok := r.classRecv(n.X)
	if !ok || (cls == "System" && n.Name == "out") {
		return
	}
	ps := &r.p.sites[n.SiteIx-1]
	if ci, ok := r.p.classes[cls]; ok {
		if slot := ci.findStatic(n.Name); slot != nil {
			*ps = progSite{kind: siteStaticSel, cls: cls, slot: slot}
		}
		return
	}
	if v, ok := builtinStaticField(cls, n.Name); ok {
		*ps = progSite{kind: siteBuiltinConstSel, cls: cls, v: v}
	}
}

// newSite resolves constructor targets: the class is syntactically fixed, so
// every New site resolves at load time.
func (r *resolver) newSite(n *ast.New) {
	n.SiteIx = r.allocSite()
	ps := &r.p.sites[n.SiteIx-1]
	if ci, ok := r.p.classes[n.Name]; ok {
		*ps = progSite{kind: siteNewUser, ci: ci, m: ci.findCtor(len(n.Args))}
	} else {
		*ps = progSite{kind: siteNewBuiltin}
	}
}
