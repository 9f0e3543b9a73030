package passes

import (
	"fmt"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/token"
)

// The match hooks of the registered passes, with their fix builders. Every
// hook both recognizes the pattern (emitting the diagnostic) and decides
// whether the mechanical rewrite is safe here (attaching the fix).

// --- Rule 1: primitive data types ---------------------------------------

func (m *matcher) primitiveDecl(d *declSite) {
	t := d.typ
	if t.Dims > 0 {
		t = ast.Type{Kind: t.Kind, Name: t.Name} // look through arrays
	}
	switch t.Kind {
	case ast.Long, ast.Short, ast.Byte, ast.Double, ast.Float:
		var fx *Fix
		if t.Kind != ast.Float { // float is already the narrow spelling
			fx = typeFix(d, RulePrimitiveTypes, fieldFixNarrow)
		}
		m.add(d.pos, RulePrimitiveTypes, fmt.Sprintf("%s declared %s", d.what, t.Kind), fx)
	}
}

// primitiveNode narrows array allocations so a narrowed variable does not
// keep wide storage. Only method-body allocations outside array literals are
// reachable by the apply traversal.
func (m *matcher) primitiveNode(n ast.Node) {
	na, ok := n.(*ast.NewArray)
	if !ok || m.method == nil || m.arrayLitDepth > 0 || !narrowable(na.Elem) {
		return
	}
	fx := &Fix{anchor: na, apply: func(ap *applier, c *ast.Cursor) (int, bool) {
		if narrowType(&na.Elem) {
			return 1, true
		}
		return 0, true
	}}
	m.add(na.NodePos(), RulePrimitiveTypes,
		fmt.Sprintf("array allocation of %s", na.Elem.Kind), fx)
}

// typeFix builds the declaration rewrite for a decl site: fields and
// parameters are plain type surgery (a pre-traversal phase), locals anchor at
// their declaration so a fix that removes the declaration (e.g. arraycopy
// replacing a whole loop) suppresses them, exactly as the old rewriter did.
func typeFix(d *declSite, rule Rule, kind fieldFixKind) *Fix {
	mutate := narrowType
	if kind == fieldFixWrapper {
		mutate = integerizeWrapper
	}
	switch {
	case d.field != nil:
		fd := d.field
		return &Fix{phase: phaseDecl, field: fd, fieldKind: kind,
			direct: func(ap *applier) int {
				if mutate(&fd.Type) {
					return 1
				}
				return 0
			}}
	case d.paramType != nil:
		tp := d.paramType
		return &Fix{phase: phaseDecl,
			direct: func(ap *applier) int {
				if mutate(tp) {
					return 1
				}
				return 0
			}}
	case d.local != nil:
		lv := d.local
		return &Fix{anchor: lv,
			apply: func(ap *applier, c *ast.Cursor) (int, bool) {
				if mutate(&lv.Type) {
					return 1, true
				}
				return 0, true
			}}
	}
	return nil
}

// --- Rule 2: scientific notation ----------------------------------------

func (m *matcher) sciNode(n ast.Node) {
	lit, ok := n.(*ast.Literal)
	if !ok || !qualifiesForSci(lit) {
		return
	}
	var fx *Fix
	// Method-body array literals are never traversed by the applier (their
	// elements are constant data, not code the interpreter re-evaluates), so
	// a fix there would silently not apply.
	if m.method == nil || m.arrayLitDepth == 0 {
		fx = &Fix{anchor: lit, apply: func(ap *applier, c *ast.Cursor) (int, bool) {
			scientificize(lit)
			return 1, true
		}}
	}
	m.add(lit.Pos, RuleScientificNotation, "decimal literal "+lit.Raw, fx)
}

// --- Rule 3: wrapper classes --------------------------------------------

func (m *matcher) wrapperDecl(d *declSite) {
	t := d.typ
	if t.Dims > 0 {
		t = ast.Type{Kind: t.Kind, Name: t.Name}
	}
	if t.Kind != ast.ClassType {
		return
	}
	switch t.Name {
	case "Long", "Short", "Byte", "Double", "Float", "Character":
		var fx *Fix
		if t.Name == "Long" || t.Name == "Short" || t.Name == "Byte" {
			fx = typeFix(d, RuleWrapperClasses, fieldFixWrapper)
		}
		m.add(d.pos, RuleWrapperClasses, fmt.Sprintf("%s declared %s", d.what, t.Name), fx)
	}
}

// --- Rule 4: static keyword ---------------------------------------------

func (m *matcher) staticField(f *ast.Field) {
	if !f.Mods.Has(ast.ModStatic) || f.Mods.Has(ast.ModFinal) {
		// static final constants are folded by javac; the paper's 17,700%
		// penalty is about mutable static state.
		return
	}
	var fx *Fix
	if plan, ok := m.hoist[f]; ok {
		fx = hoistFix(plan)
	}
	m.add(f.Pos, RuleStaticKeyword, "mutable static field '"+f.Name+"'", fx)
}

// --- Rule 5: modulus operator -------------------------------------------

func (m *matcher) modulusNode(n ast.Node) {
	b, ok := n.(*ast.Binary)
	if !ok || b.Op != token.Percent {
		return
	}
	var fx *Fix
	if lit, ok := b.Y.(*ast.Literal); ok && lit.Kind == ast.LitInt && lit.I > 0 && lit.I&(lit.I-1) == 0 {
		if id, ok := b.X.(*ast.Ident); ok && m.nonNeg[id.Name] {
			fx = &Fix{anchor: b, apply: func(ap *applier, c *ast.Cursor) (int, bool) {
				c.Replace(modulusMask(b, id, lit))
				return 1, true
			}}
		}
	}
	m.add(b.Pos, RuleModulusOperator, "modulus expression "+ast.PrintExpr(b), fx)
}

// --- Rule 6: ternary operator -------------------------------------------

// ternaryNode emits a diagnostic for every ternary; only the one currently in
// statement position carries the expansion fix the matcher prepared.
func (m *matcher) ternaryNode(n ast.Node) {
	t, ok := n.(*ast.Ternary)
	if !ok {
		return
	}
	var fx *Fix
	if t == m.pendTern {
		fx = m.pendTernFix
	}
	m.add(t.Pos, RuleTernaryOperator, "ternary "+ast.PrintExpr(t), fx)
}

// expandTernary builds the if-then-else for a ternary, recursing into
// branches that are themselves ternaries (each expansion counts once).
func expandTernary(t *ast.Ternary, mk func(ast.Expr) ast.Stmt, count *int) ast.Stmt {
	*count++
	branch := func(e ast.Expr) ast.Stmt {
		if inner, ok := e.(*ast.Ternary); ok {
			return expandTernary(inner, mk, count)
		}
		return mk(e)
	}
	return &ast.If{
		Pos:  t.Pos,
		Cond: t.Cond,
		Then: &ast.Block{Pos: t.Pos, Stmts: []ast.Stmt{branch(t.Then)}},
		Else: &ast.Block{Pos: t.Pos, Stmts: []ast.Stmt{branch(t.Else)}},
	}
}

// ternFixLocal expands `T v = c ? a : b;` into a declaration plus if/else.
func ternFixLocal(lv *ast.LocalVar, t *ast.Ternary) *Fix {
	return &Fix{anchor: lv, apply: func(ap *applier, c *ast.Cursor) (int, bool) {
		count := 0
		// Read lv.Type at apply time: a narrowing fix at the same anchor has
		// already run, so the split declaration keeps the narrowed type.
		decl := &ast.LocalVar{Pos: lv.Pos, Type: lv.Type, Name: lv.Name}
		mk := func(e ast.Expr) ast.Stmt {
			return &ast.ExprStmt{Pos: e.NodePos(), X: &ast.Assign{
				Pos: e.NodePos(), Op: token.Assign,
				LHS: &ast.Ident{Pos: lv.Pos, Name: lv.Name}, RHS: e,
			}}
		}
		ifs := expandTernary(t, mk, &count)
		if c.InSlice() {
			c.InsertBefore(decl)
			c.Replace(ifs)
		} else {
			// Single-statement slot (e.g. a for-init): wrap like the old
			// rewriter did when an expansion had to stay one statement.
			c.Replace(&ast.Block{Pos: lv.Pos, Stmts: []ast.Stmt{decl, ifs}})
		}
		return count, true
	}}
}

// ternFixAssign expands `x = c ? a : b;` into if/else assignments.
func ternFixAssign(es *ast.ExprStmt, as *ast.Assign, t *ast.Ternary) *Fix {
	return &Fix{anchor: es, apply: func(ap *applier, c *ast.Cursor) (int, bool) {
		count := 0
		mk := func(e ast.Expr) ast.Stmt {
			return &ast.ExprStmt{Pos: e.NodePos(), X: &ast.Assign{
				Pos: as.Pos, Op: token.Assign, LHS: as.LHS, RHS: e,
			}}
		}
		ifs := expandTernary(t, mk, &count)
		c.Replace(ifs)
		return count, true
	}}
}

// ternFixReturn expands `return c ? a : b;` into if/else returns.
func ternFixReturn(r *ast.Return, t *ast.Ternary) *Fix {
	return &Fix{anchor: r, apply: func(ap *applier, c *ast.Cursor) (int, bool) {
		count := 0
		mk := func(e ast.Expr) ast.Stmt {
			return &ast.Return{Pos: r.Pos, X: e}
		}
		ifs := expandTernary(t, mk, &count)
		c.Replace(ifs)
		return count, true
	}}
}

// --- Rule 7: short-circuit ordering (advisory) --------------------------

func (m *matcher) shortCircuitNode(n ast.Node) {
	b, ok := n.(*ast.Binary)
	if !ok || (b.Op != token.AndAnd && b.Op != token.OrOr) {
		return
	}
	// Only flag the outermost chain node, not every link.
	if _, inner := b.X.(*ast.Binary); !inner || !isShortCircuit(b.X) {
		m.add(b.Pos, RuleShortCircuit, "short-circuit chain "+ast.PrintExpr(b), nil)
	}
}

// --- Rule 8: string concatenation ---------------------------------------
// The per-expression advisories live here; the cluster match with its
// StringBuilder fix lives in concat.go.

func (m *matcher) concatNode(n ast.Node) {
	switch x := n.(type) {
	case *ast.Binary:
		if x.Op == token.Plus && (m.isStringExpr(x.X) || m.isStringExpr(x.Y)) {
			m.add(x.Pos, RuleStringConcat, "string concatenation "+ast.PrintExpr(x), nil)
		}
	case *ast.Assign:
		if x.Op == token.PlusEq && m.isStringExpr(x.LHS) {
			m.add(x.Pos, RuleStringConcat, "string += concatenation", nil)
		}
	}
}

// --- Rule 9: string comparison ------------------------------------------

// compareToNode sees the `a.compareTo(b) == 0` shape at the comparison node
// (where the fix must anchor) and emits the diagnostic at the call (where the
// suggestion engine always positioned it).
func (m *matcher) compareToNode(n ast.Node) {
	switch x := n.(type) {
	case *ast.Binary:
		if m.method == nil {
			return // field initializers are not rewritten
		}
		call := matchCompareToEquality(x)
		if call == nil {
			return
		}
		b := x
		m.cmpFix[call] = &Fix{anchor: b,
			apply: func(ap *applier, c *ast.Cursor) (int, bool) {
				c.Replace(compareToEquals(b, call))
				return 1, true
			}}
	case *ast.Call:
		if x.Name == "compareTo" && len(x.Args) == 1 {
			m.add(x.Pos, RuleStringComparison, "compareTo call "+ast.PrintExpr(x), m.cmpFix[x])
		}
	}
}

// --- Rule 10: arrays copy ------------------------------------------------

func (m *matcher) arraysCopyNode(n ast.Node) {
	f, ok := n.(*ast.For)
	if !ok {
		return
	}
	cl := MatchManualArrayCopy(f)
	if cl == nil {
		return
	}
	var fx *Fix
	if bound, ok := copyBound(f, cl.IndexVar); ok {
		fx = &Fix{anchor: f, apply: func(ap *applier, c *ast.Cursor) (int, bool) {
			pos := f.Pos
			zero := func() ast.Expr { return &ast.Literal{Pos: pos, Kind: ast.LitInt, Raw: "0"} }
			call := &ast.Call{
				Pos:  pos,
				Recv: &ast.Ident{Pos: pos, Name: "System"},
				Name: "arraycopy",
				Args: []ast.Expr{
					&ast.Ident{Pos: pos, Name: cl.Src}, zero(),
					&ast.Ident{Pos: pos, Name: cl.Dst}, zero(),
					bound,
				},
			}
			c.Replace(&ast.ExprStmt{Pos: pos, X: call})
			// The loop is gone; nothing inside it is applied (fixes anchored
			// on its declaration or body die with it).
			return 1, false
		}}
	}
	m.add(f.Pos, RuleArraysCopy,
		fmt.Sprintf("manual copy loop from '%s' to '%s'", cl.Src, cl.Dst), fx)
}

// --- Rule 11: array traversal -------------------------------------------

func (m *matcher) arrayTraversalNode(n ast.Node) {
	f, ok := n.(*ast.For)
	if !ok {
		return
	}
	swap := MatchColumnTraversal(f)
	if swap == nil {
		return
	}
	var fx *Fix
	if inner, ok := innerFor(f); ok {
		fx = &Fix{anchor: f, apply: func(ap *applier, c *ast.Cursor) (int, bool) {
			// Swap loop headers, keep the innermost body.
			oi, oc, op := f.Init, f.Cond, f.Post
			f.Init, f.Cond, f.Post = inner.Init, inner.Cond, inner.Post
			inner.Init, inner.Cond, inner.Post = oi, oc, op
			return 1, true
		}}
	}
	m.add(f.Pos, RuleArrayTraversal, fmt.Sprintf("column-major traversal of '%s'", swap.Array), fx)
}

// --- Extension rules (advisory only) ------------------------------------

func (m *matcher) exceptionNode(n ast.Node) {
	if m.loopDepth == 0 {
		return
	}
	switch x := n.(type) {
	case *ast.Throw:
		m.add(x.Pos, RuleExceptionInLoop, "throw inside a loop", nil)
	case *ast.Try:
		m.add(x.Pos, RuleExceptionInLoop, "try/catch inside a loop", nil)
	}
}

func (m *matcher) objectNode(n ast.Node) {
	x, ok := n.(*ast.New)
	if !ok {
		return
	}
	if m.loopDepth > 0 && !isExceptionName(x.Name) {
		m.add(x.Pos, RuleObjectInLoop, "allocation of "+x.Name+" inside a loop", nil)
	}
}
