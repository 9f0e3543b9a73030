package passes

import (
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/token"
)

// The static-keyword pass: a mutable static field whose accesses all live in
// a single method is rewritten so that method loads the field into a local
// once, works on the local, and stores it back at every exit. This removes
// the per-access static penalty (the paper's +17,700%) without changing
// semantics for non-reentrant methods.
//
// Hoistability is a cross-file property (another class may also touch the
// field), so it is analyzed once up front; the per-field match hook then just
// consults the plan map.

type hoistPlan struct {
	method    *ast.Method
	className string
	fd        *ast.Field
}

// analyzeStatics finds every hoistable mutable static field.
func analyzeStatics(files []*ast.File) map[*ast.Field]*hoistPlan {
	type fieldKey struct{ class, field string }
	// Gather mutable static fields.
	statics := map[fieldKey]*ast.Field{}
	for _, f := range files {
		for _, c := range f.Classes {
			for _, fd := range c.Fields {
				if fd.Mods.Has(ast.ModStatic) && !fd.Mods.Has(ast.ModFinal) {
					statics[fieldKey{c.Name, fd.Name}] = fd
				}
			}
		}
	}
	if len(statics) == 0 {
		return nil
	}
	// Count accesses per (field, method). Unqualified idents are attributed
	// to the enclosing class; Class.field selects are attributed explicitly.
	type use struct {
		method *ast.Method
		count  int
	}
	uses := map[fieldKey][]*use{}
	for _, f := range files {
		for _, c := range f.Classes {
			for _, m := range c.Methods {
				if m.Body == nil {
					continue
				}
				// Most methods touch no static: their counts and local names
				// are never built.
				var counts map[fieldKey]int
				var locals map[string]bool
				count := func(k fieldKey) {
					if counts == nil {
						counts = map[fieldKey]int{}
					}
					counts[k]++
				}
				ast.Inspect(m.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.Ident:
						k := fieldKey{c.Name, x.Name}
						if _, ok := statics[k]; !ok {
							return true
						}
						if locals == nil {
							locals = localNames(m)
						}
						if !locals[x.Name] {
							count(k)
						}
					case *ast.Select:
						if cls, ok := x.X.(*ast.Ident); ok {
							k := fieldKey{cls.Name, x.Name}
							if _, ok := statics[k]; ok {
								count(k)
							}
						}
					}
					return true
				})
				for k, n := range counts {
					uses[k] = append(uses[k], &use{method: m, count: n})
				}
			}
		}
	}
	plans := map[*ast.Field]*hoistPlan{}
	for k, fd := range statics {
		us := uses[k]
		// Safe to hoist only when a single method touches the field, and it
		// is worth it only when that method touches it repeatedly.
		if len(us) != 1 || us[0].count < 2 {
			continue
		}
		// Already hoisted (the method starts with the load this fix would
		// insert): applying again would shadow the load with a duplicate.
		if alreadyHoisted(us[0].method, k.class, fd) {
			continue
		}
		plans[fd] = &hoistPlan{method: us[0].method, className: k.class, fd: fd}
	}
	return plans
}

// alreadyHoisted reports whether the method body already begins with
// `T field = Class.field;` — the load hoistInMethod inserts.
func alreadyHoisted(m *ast.Method, className string, fd *ast.Field) bool {
	if m.Body == nil || len(m.Body.Stmts) == 0 {
		return false
	}
	lv, ok := m.Body.Stmts[0].(*ast.LocalVar)
	if !ok || lv.Name != fd.Name {
		return false
	}
	sel, ok := lv.Init.(*ast.Select)
	if !ok || sel.Name != fd.Name {
		return false
	}
	cls, ok := sel.X.(*ast.Ident)
	return ok && cls.Name == className
}

// localNames collects parameter and local variable names of a method, which
// shadow same-named statics.
func localNames(m *ast.Method) map[string]bool {
	names := map[string]bool{}
	for _, p := range m.Params {
		names[p.Name] = true
	}
	ast.Inspect(m.Body, func(n ast.Node) bool {
		if lv, ok := n.(*ast.LocalVar); ok {
			names[lv.Name] = true
		}
		return true
	})
	return names
}

// hoistFix restructures the using method. It runs in the first apply phase,
// before declaration surgery, so the load keeps the field's original type;
// the applier then mirrors the field's declaration fixes onto the load.
func hoistFix(plan *hoistPlan) *Fix {
	return &Fix{phase: phaseHoist, direct: func(ap *applier) int {
		load := hoistInMethod(plan.method, plan.className, plan.fd)
		ap.hoisted = append(ap.hoisted, hoistRecord{field: plan.fd, local: load})
		return 1
	}}
}

// hoistInMethod rewrites m so accesses to the static field go through a
// local, returning the inserted load declaration.
func hoistInMethod(m *ast.Method, className string, fd *ast.Field) *ast.LocalVar {
	pos := m.Pos
	classIdent := func() ast.Expr { return &ast.Ident{Pos: pos, Name: className} }
	// Qualified selects Class.field become plain idents so they hit the new
	// local; unqualified idents already resolve to it.
	replaceQualified(m.Body, className, fd.Name)
	writeback := func(p token.Pos) ast.Stmt {
		return &ast.ExprStmt{Pos: p, X: &ast.Assign{
			Pos: p, Op: token.Assign,
			LHS: &ast.Select{Pos: p, X: classIdent(), Name: fd.Name},
			RHS: &ast.Ident{Pos: p, Name: fd.Name},
		}}
	}
	insertWritebacks(m.Body, writeback)
	load := &ast.LocalVar{
		Pos:  pos,
		Type: fd.Type,
		Name: fd.Name,
		Init: &ast.Select{Pos: pos, X: classIdent(), Name: fd.Name},
	}
	stmts := append([]ast.Stmt{load}, m.Body.Stmts...)
	if !endsWithReturnOrThrow(m.Body) {
		stmts = append(stmts, writeback(pos))
	}
	m.Body.Stmts = stmts
	return load
}

// replaceQualified rewrites Class.field selects to bare idents in-place.
func replaceQualified(body *ast.Block, className, field string) {
	ast.Rewrite(body, func(c *ast.Cursor) bool {
		sel, ok := c.Node().(*ast.Select)
		if !ok {
			return true
		}
		if cls, ok := sel.X.(*ast.Ident); ok && cls.Name == className && sel.Name == field {
			c.Replace(&ast.Ident{Pos: sel.Pos, Name: field})
			return false
		}
		return true
	}, nil)
}

// insertWritebacks places the store-back before every return statement.
func insertWritebacks(body *ast.Block, mk func(token.Pos) ast.Stmt) {
	var fix func(s ast.Stmt)
	fixBlock := func(b *ast.Block) {
		out := make([]ast.Stmt, 0, len(b.Stmts))
		for _, st := range b.Stmts {
			if r, ok := st.(*ast.Return); ok {
				out = append(out, mk(r.Pos), r)
				continue
			}
			fix(st)
			out = append(out, st)
		}
		b.Stmts = out
	}
	fix = func(s ast.Stmt) {
		switch n := s.(type) {
		case *ast.Block:
			fixBlock(n)
		case *ast.If:
			n.Then = wrapReturn(n.Then, mk)
			fix(n.Then)
			if n.Else != nil {
				n.Else = wrapReturn(n.Else, mk)
				fix(n.Else)
			}
		case *ast.While:
			n.Body = wrapReturn(n.Body, mk)
			fix(n.Body)
		case *ast.DoWhile:
			n.Body = wrapReturn(n.Body, mk)
			fix(n.Body)
		case *ast.Switch:
			for ci := range n.Cases {
				out := make([]ast.Stmt, 0, len(n.Cases[ci].Stmts))
				for _, st := range n.Cases[ci].Stmts {
					if r, ok := st.(*ast.Return); ok {
						out = append(out, mk(r.Pos), r)
						continue
					}
					fix(st)
					out = append(out, st)
				}
				n.Cases[ci].Stmts = out
			}
		case *ast.For:
			n.Body = wrapReturn(n.Body, mk)
			fix(n.Body)
		case *ast.Try:
			fixBlock(n.Block)
			for _, c := range n.Catches {
				fixBlock(c.Block)
			}
			if n.Finally != nil {
				fixBlock(n.Finally)
			}
		}
	}
	fixBlock(body)
}

// wrapReturn turns a bare `return e;` body into a block so the writeback can
// precede it.
func wrapReturn(s ast.Stmt, mk func(token.Pos) ast.Stmt) ast.Stmt {
	if r, ok := s.(*ast.Return); ok {
		return &ast.Block{Pos: r.Pos, Stmts: []ast.Stmt{mk(r.Pos), r}}
	}
	return s
}

func endsWithReturnOrThrow(b *ast.Block) bool {
	if len(b.Stmts) == 0 {
		return false
	}
	switch b.Stmts[len(b.Stmts)-1].(type) {
	case *ast.Return, *ast.Throw:
		return true
	}
	return false
}
