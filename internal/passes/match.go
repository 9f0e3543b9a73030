package passes

import (
	"sort"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/token"
)

// AnalyzeFiles runs every registered pass over the files — one shared
// traversal per file — and returns the diagnostics ordered by line within
// each file, preserving the file order. Analysis only reads the files, so
// it runs on read-only parse masters; but when any file is frozen, every
// fix it returns is marked read-only and ApplyFixes refuses it. To apply
// fixes, analyze ast.CloneFile copies.
func AnalyzeFiles(files []*ast.File) []Diagnostic {
	return analyze(files, nil)
}

// AnalyzeFilesRules restricts the analysis to the given rules (all rules when
// none are given). Restricting at match time, not by filtering afterwards,
// reproduces the rule-subset dynamics of the old per-rule rewriters: a
// disabled pass neither emits diagnostics nor influences another pass's fix
// attachment (e.g. a string-accumulation cluster only claims its declaration's
// ternary initializer when the concat pass actually runs).
func AnalyzeFilesRules(files []*ast.File, rules ...Rule) []Diagnostic {
	if len(rules) == 0 {
		return analyze(files, nil)
	}
	enabled := map[Rule]bool{}
	for _, r := range rules {
		enabled[r] = true
	}
	return analyze(files, enabled)
}

func analyze(files []*ast.File, enabled map[Rule]bool) []Diagnostic {
	on := func(r Rule) bool { return enabled == nil || enabled[r] }
	var plans map[*ast.Field]*hoistPlan
	if on(RuleStaticKeyword) {
		plans = analyzeStatics(files)
	}
	var out []Diagnostic
	for _, f := range files {
		start := len(out)
		for _, c := range f.Classes {
			m := &matcher{
				file: f, class: c, enabled: enabled, hoist: plans,
				types:        map[string]ast.Type{},
				nonNeg:       map[string]bool{},
				cmpFix:       map[*ast.Call]*Fix{},
				clusterDecls: map[*ast.LocalVar]bool{},
			}
			for _, fd := range c.Fields {
				m.types[fd.Name] = fd.Type
			}
			fieldTypes := m.types
			for _, fd := range c.Fields {
				m.fieldDecl(fd)
			}
			for _, mt := range c.Methods {
				m.types = map[string]ast.Type{}
				for k, v := range fieldTypes {
					m.types[k] = v
				}
				m.methodDecl(mt)
			}
			out = append(out, m.found...)
		}
		chunk := out[start:]
		sort.SliceStable(chunk, func(i, j int) bool { return chunk[i].Line < chunk[j].Line })
	}
	for _, f := range files {
		if f.Frozen() {
			for _, d := range out {
				if d.Fix != nil {
					d.Fix.readOnly = true
				}
			}
			break
		}
	}
	return out
}

// matcher carries the traversal state one class's analysis needs. Hooks read
// it to decide both whether a rule matches and whether its fix is safe here.
type matcher struct {
	file      *ast.File
	class     *ast.Class
	method    *ast.Method // nil while in a field initializer
	loopDepth int
	found     []Diagnostic
	enabled   map[Rule]bool // nil = all rules

	// types records declared types of fields, params and locals in scope so
	// the string rules can distinguish String '+' from numeric '+'.
	types map[string]ast.Type

	// arrayLitDepth > 0 while inside an array literal. Fixes that the apply
	// traversal only reaches outside array literals in method bodies are
	// suppressed there (field initializers are traversed in full).
	arrayLitDepth int

	// nonNeg tracks counted loop variables that start at a non-negative
	// literal and only increment — safe targets for modulus masking.
	nonNeg map[string]bool

	// cmpFix carries a compareTo-equality fix from the Binary where the shape
	// is visible to the Call where the diagnostic is emitted.
	cmpFix map[*ast.Call]*Fix

	// clusterDecls marks declarations claimed by a string-accumulation
	// cluster; their ternary initializers must not also be expanded.
	clusterDecls map[*ast.LocalVar]bool

	// pendTern marks the one ternary currently in statement position (local
	// initializer, plain-assignment RHS, or return operand), where expansion
	// to if-then-else is possible.
	pendTern    *ast.Ternary
	pendTernFix *Fix

	// hoist maps static fields to their hoisting plan (cross-file analysis).
	hoist map[*ast.Field]*hoistPlan
}

func (m *matcher) on(r Rule) bool { return m.enabled == nil || m.enabled[r] }

func (m *matcher) add(pos token.Pos, r Rule, detail string, fx *Fix) {
	sev := SeverityInfo
	if fx != nil {
		sev = SeverityFixable
		fx.rule = r
		if fx.anchor != nil {
			fx.method = m.method
		}
	}
	method := ""
	if m.method != nil {
		method = m.method.Name
	}
	m.found = append(m.found, Diagnostic{
		File: m.file.Path, Class: m.class.Name, Method: method,
		Line: pos.Line, Rule: r, Detail: detail, Severity: sev, Fix: fx,
	})
}

// declSite describes one declared type: a field, a parameter, or a local.
// Exactly one of field/paramType/local is set; typeFix anchors the rewrite
// accordingly.
type declSite struct {
	pos       token.Pos
	typ       ast.Type
	what      string // "field 'x'", "parameter 'x'", "local 'x'"
	field     *ast.Field
	paramType *ast.Type
	local     *ast.LocalVar
}

// Hook dispatch: each site consults the registry in order, skipping passes
// that are disabled for this analysis.

func (m *matcher) declHooks(d *declSite) {
	for _, p := range Registry {
		if p.Decl != nil && m.on(p.Rule) {
			p.Decl(m, d)
		}
	}
}

func (m *matcher) fieldHooks(f *ast.Field) {
	for _, p := range Registry {
		if p.Field != nil && m.on(p.Rule) {
			p.Field(m, f)
		}
	}
}

func (m *matcher) blockHooks(b *ast.Block) {
	for _, p := range Registry {
		if p.Block != nil && m.on(p.Rule) {
			p.Block(m, b)
		}
	}
}

func (m *matcher) nodeHooks(n ast.Node) {
	for _, p := range Registry {
		if p.Node != nil && m.on(p.Rule) {
			p.Node(m, n)
		}
	}
}

func (m *matcher) fieldDecl(fd *ast.Field) {
	m.method = nil
	m.declHooks(&declSite{pos: fd.Pos, typ: fd.Type,
		what: "field '" + fd.Name + "'", field: fd})
	m.fieldHooks(fd)
	if fd.Init != nil {
		m.walkExpr(fd.Init)
	}
}

func (m *matcher) methodDecl(mt *ast.Method) {
	m.method = mt
	for i := range mt.Params {
		p := &mt.Params[i]
		m.types[p.Name] = p.Type
		m.declHooks(&declSite{pos: mt.Pos, typ: p.Type,
			what: "parameter '" + p.Name + "'", paramType: &p.Type})
	}
	if mt.Body != nil {
		m.walkStmt(mt.Body)
	}
}

func (m *matcher) setPend(t *ast.Ternary, fx *Fix) {
	m.pendTern, m.pendTernFix = t, fx
}

func (m *matcher) clearPend() {
	m.pendTern, m.pendTernFix = nil, nil
}

func (m *matcher) walkStmt(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.Block:
		m.blockHooks(n)
		for _, st := range n.Stmts {
			m.walkStmt(st)
		}
	case *ast.LocalVar:
		m.types[n.Name] = n.Type
		m.declHooks(&declSite{pos: n.Pos, typ: n.Type,
			what: "local '" + n.Name + "'", local: n})
		if n.Init != nil {
			if t, ok := n.Init.(*ast.Ternary); ok && !m.clusterDecls[n] {
				m.setPend(t, ternFixLocal(n, t))
			}
			m.walkExpr(n.Init)
			m.clearPend()
		}
	case *ast.ExprStmt:
		if as, ok := n.X.(*ast.Assign); ok && as.Op == token.Assign {
			if t, ok := as.RHS.(*ast.Ternary); ok {
				m.setPend(t, ternFixAssign(n, as, t))
			}
		}
		m.walkExpr(n.X)
		m.clearPend()
	case *ast.If:
		m.walkExpr(n.Cond)
		m.walkStmt(n.Then)
		if n.Else != nil {
			m.walkStmt(n.Else)
		}
	case *ast.While:
		m.walkExpr(n.Cond)
		m.loopDepth++
		m.walkStmt(n.Body)
		m.loopDepth--
	case *ast.DoWhile:
		m.loopDepth++
		m.walkStmt(n.Body)
		m.loopDepth--
		m.walkExpr(n.Cond)
	case *ast.Switch:
		m.walkExpr(n.Tag)
		for _, c := range n.Cases {
			for _, v := range c.Values {
				m.walkExpr(v)
			}
			for _, st := range c.Stmts {
				m.walkStmt(st)
			}
		}
	case *ast.For:
		m.checkFor(n)
	case *ast.Return:
		if n.X != nil {
			if t, ok := n.X.(*ast.Ternary); ok {
				m.setPend(t, ternFixReturn(n, t))
			}
			m.walkExpr(n.X)
			m.clearPend()
		}
	case *ast.Throw:
		m.nodeHooks(n)
		m.walkExpr(n.X)
	case *ast.Try:
		m.nodeHooks(n)
		m.walkStmt(n.Block)
		for _, c := range n.Catches {
			m.walkStmt(c.Block)
		}
		if n.Finally != nil {
			m.walkStmt(n.Finally)
		}
	}
}

func (m *matcher) checkFor(n *ast.For) {
	// Track the loop variable before walking the header, so a modulus in the
	// loop's own condition or post expressions can already be masked.
	tracked := ""
	if lv, ok := n.Init.(*ast.LocalVar); ok {
		if lit, isLit := lv.Init.(*ast.Literal); isLit && lit.Kind == ast.LitInt && lit.I >= 0 {
			if len(n.Post) == 1 {
				if u, isU := n.Post[0].(*ast.Unary); isU && u.Op == token.Inc {
					tracked = lv.Name
					m.nonNeg[tracked] = true
				}
			}
		}
	}
	if n.Init != nil {
		m.walkStmt(n.Init)
	}
	if n.Cond != nil {
		m.walkExpr(n.Cond)
	}
	for _, p := range n.Post {
		m.walkExpr(p)
	}
	m.nodeHooks(n) // the loop-shaped passes: arraycopy, traversal
	m.loopDepth++
	m.walkStmt(n.Body)
	m.loopDepth--
	if tracked != "" {
		delete(m.nonNeg, tracked)
	}
}

// walkExpr visits expressions pre-order, in Inspect's child order, firing the
// node hooks at every node.
func (m *matcher) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	m.nodeHooks(e)
	switch n := e.(type) {
	case *ast.Binary:
		m.walkExpr(n.X)
		m.walkExpr(n.Y)
	case *ast.Unary:
		m.walkExpr(n.X)
	case *ast.Assign:
		m.walkExpr(n.LHS)
		m.walkExpr(n.RHS)
	case *ast.Ternary:
		m.walkExpr(n.Cond)
		m.walkExpr(n.Then)
		m.walkExpr(n.Else)
	case *ast.Call:
		if n.Recv != nil {
			m.walkExpr(n.Recv)
		}
		for _, a := range n.Args {
			m.walkExpr(a)
		}
	case *ast.Select:
		m.walkExpr(n.X)
	case *ast.Index:
		m.walkExpr(n.X)
		m.walkExpr(n.I)
	case *ast.New:
		for _, a := range n.Args {
			m.walkExpr(a)
		}
	case *ast.NewArray:
		for _, l := range n.Lens {
			m.walkExpr(l)
		}
	case *ast.ArrayLit:
		m.arrayLitDepth++
		for _, el := range n.Elems {
			m.walkExpr(el)
		}
		m.arrayLitDepth--
	case *ast.Cast:
		m.walkExpr(n.X)
	case *ast.InstanceOf:
		m.walkExpr(n.X)
	}
}

// isStringExpr reports whether an expression is statically known to be a
// String: a string literal, a String-typed name, or itself a string concat.
func (m *matcher) isStringExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Kind == ast.LitString
	case *ast.Ident:
		t, ok := m.types[x.Name]
		return ok && t.IsString()
	case *ast.Binary:
		return x.Op == token.Plus && (m.isStringExpr(x.X) || m.isStringExpr(x.Y))
	case *ast.Call:
		switch x.Name {
		case "toString", "substring", "trim", "concat":
			return true
		}
	}
	return false
}
