package ast

import (
	"fmt"
	"strings"

	"jepo/internal/minijava/token"
)

// Print renders a file back to mini-Java source. The refactoring engine uses
// it to emit transformed code, which is then re-parsed and executed; the
// output is canonically formatted (tabs, one statement per line).
func Print(f *File) string {
	var p printer
	if f.Package != "" {
		p.linef("package %s;", f.Package)
		p.blank()
	}
	for _, imp := range f.Imports {
		p.linef("import %s;", imp)
	}
	if len(f.Imports) > 0 {
		p.blank()
	}
	for i, c := range f.Classes {
		if i > 0 {
			p.blank()
		}
		p.printClass(c)
	}
	return p.b.String()
}

// PrintStmt renders a single statement (used in tests and suggestion views).
func PrintStmt(s Stmt) string {
	var p printer
	p.printStmt(s)
	return strings.TrimRight(p.b.String(), "\n")
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var p printer
	p.expr(e, 0)
	return p.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) pad() {
	for i := 0; i < p.indent; i++ {
		p.b.WriteByte('\t')
	}
}

func (p *printer) linef(format string, args ...any) {
	p.pad()
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

func (p *printer) blank() { p.b.WriteByte('\n') }

func mods(m Modifiers) string {
	s := m.String()
	if s != "" {
		s += " "
	}
	return s
}

func (p *printer) printClass(c *Class) {
	ext := ""
	if c.Extends != "" {
		ext = " extends " + c.Extends
	}
	p.linef("%sclass %s%s {", mods(c.Mods), c.Name, ext)
	p.indent++
	for _, f := range c.Fields {
		init := ""
		if f.Init != nil {
			init = " = " + PrintExpr(f.Init)
		}
		p.linef("%s%s %s%s;", mods(f.Mods), f.Type, f.Name, init)
	}
	if len(c.Fields) > 0 && len(c.Methods) > 0 {
		p.blank()
	}
	for i, m := range c.Methods {
		if i > 0 {
			p.blank()
		}
		p.printMethod(m)
	}
	p.indent--
	p.linef("}")
}

func (p *printer) printMethod(m *Method) {
	var sig strings.Builder
	sig.WriteString(mods(m.Mods))
	if !m.IsCtor {
		sig.WriteString(m.Ret.String())
		sig.WriteByte(' ')
	}
	sig.WriteString(m.Name)
	sig.WriteByte('(')
	for i, pr := range m.Params {
		if i > 0 {
			sig.WriteString(", ")
		}
		sig.WriteString(pr.Type.String())
		sig.WriteByte(' ')
		sig.WriteString(pr.Name)
	}
	sig.WriteByte(')')
	if len(m.Throws) > 0 {
		sig.WriteString(" throws ")
		sig.WriteString(strings.Join(m.Throws, ", "))
	}
	p.linef("%s {", sig.String())
	p.indent++
	for _, s := range m.Body.Stmts {
		p.printStmt(s)
	}
	p.indent--
	p.linef("}")
}

func (p *printer) printStmt(s Stmt) {
	switch n := s.(type) {
	case *Block:
		p.linef("{")
		p.indent++
		for _, st := range n.Stmts {
			p.printStmt(st)
		}
		p.indent--
		p.linef("}")
	case *LocalVar:
		fin := ""
		if n.Final {
			fin = "final "
		}
		if n.Init != nil {
			p.linef("%s%s %s = %s;", fin, n.Type, n.Name, PrintExpr(n.Init))
		} else {
			p.linef("%s%s %s;", fin, n.Type, n.Name)
		}
	case *ExprStmt:
		p.linef("%s;", PrintExpr(n.X))
	case *If:
		p.pad()
		fmt.Fprintf(&p.b, "if (%s)", PrintExpr(n.Cond))
		p.printBody(n.Then)
		if n.Else != nil {
			p.pad()
			p.b.WriteString("else")
			p.printBody(n.Else)
		}
	case *While:
		p.pad()
		fmt.Fprintf(&p.b, "while (%s)", PrintExpr(n.Cond))
		p.printBody(n.Body)
	case *DoWhile:
		p.pad()
		p.b.WriteString("do")
		p.printBody(n.Body)
		// printBody ends the line; re-open it for the trailing condition.
		trimmed := strings.TrimRight(p.b.String(), "\n")
		p.b.Reset()
		p.b.WriteString(trimmed)
		fmt.Fprintf(&p.b, " while (%s);\n", PrintExpr(n.Cond))
	case *Switch:
		p.linef("switch (%s) {", PrintExpr(n.Tag))
		for _, c := range n.Cases {
			if len(c.Values) == 0 {
				p.linef("default:")
			} else {
				for _, v := range c.Values {
					p.linef("case %s:", PrintExpr(v))
				}
			}
			p.indent++
			for _, st := range c.Stmts {
				p.printStmt(st)
			}
			p.indent--
		}
		p.linef("}")
	case *For:
		init := ""
		switch i := n.Init.(type) {
		case nil:
		case *LocalVar:
			if i.Init != nil {
				init = fmt.Sprintf("%s %s = %s", i.Type, i.Name, PrintExpr(i.Init))
			} else {
				init = fmt.Sprintf("%s %s", i.Type, i.Name)
			}
		case *ExprStmt:
			init = PrintExpr(i.X)
		}
		cond := ""
		if n.Cond != nil {
			cond = PrintExpr(n.Cond)
		}
		var posts []string
		for _, e := range n.Post {
			posts = append(posts, PrintExpr(e))
		}
		p.pad()
		fmt.Fprintf(&p.b, "for (%s; %s; %s)", init, cond, strings.Join(posts, ", "))
		p.printBody(n.Body)
	case *Return:
		if n.X != nil {
			p.linef("return %s;", PrintExpr(n.X))
		} else {
			p.linef("return;")
		}
	case *Break:
		p.linef("break;")
	case *Continue:
		p.linef("continue;")
	case *Empty:
		p.linef(";")
	case *Throw:
		p.linef("throw %s;", PrintExpr(n.X))
	case *Try:
		p.linef("try {")
		p.indent++
		for _, st := range n.Block.Stmts {
			p.printStmt(st)
		}
		p.indent--
		for _, c := range n.Catches {
			p.linef("} catch (%s %s) {", c.Type, c.Name)
			p.indent++
			for _, st := range c.Block.Stmts {
				p.printStmt(st)
			}
			p.indent--
		}
		if n.Finally != nil {
			p.linef("} finally {")
			p.indent++
			for _, st := range n.Finally.Stmts {
				p.printStmt(st)
			}
			p.indent--
		}
		p.linef("}")
	default:
		p.linef("/* unknown stmt %T */", s)
	}
}

// printBody emits a statement as the body of a control structure, bracing it.
func (p *printer) printBody(s Stmt) {
	p.b.WriteString(" {\n")
	p.indent++
	if blk, ok := s.(*Block); ok {
		for _, st := range blk.Stmts {
			p.printStmt(st)
		}
	} else {
		p.printStmt(s)
	}
	p.indent--
	p.pad()
	p.b.WriteString("}\n")
}

// Operator precedence, larger binds tighter.
func prec(op token.Kind) int {
	switch op {
	case token.OrOr:
		return 3
	case token.AndAnd:
		return 4
	case token.BitOr:
		return 5
	case token.BitXor:
		return 6
	case token.BitAnd:
		return 7
	case token.Eq, token.Ne:
		return 8
	case token.Lt, token.Le, token.Gt, token.Ge:
		return 9
	case token.Shl, token.Shr:
		return 10
	case token.Plus, token.Minus:
		return 11
	case token.Star, token.Slash, token.Percent:
		return 12
	}
	return 0
}

func exprPrec(e Expr) int {
	switch n := e.(type) {
	case *Assign:
		return 1
	case *Ternary:
		return 2
	case *Binary:
		return prec(n.Op)
	case *InstanceOf:
		return 9
	case *Unary, *Cast:
		return 13
	default:
		return 14
	}
}

// expr writes e, parenthesizing when its precedence is below min.
func (p *printer) expr(e Expr, min int) {
	pr := exprPrec(e)
	if pr < min {
		p.b.WriteByte('(')
	}
	switch n := e.(type) {
	case *Literal:
		if n.Raw != "" {
			p.b.WriteString(n.Raw)
		} else {
			p.b.WriteString(literalSpelling(n))
		}
	case *Ident:
		p.b.WriteString(n.Name)
	case *This:
		p.b.WriteString("this")
	case *Select:
		p.expr(n.X, 14)
		p.b.WriteByte('.')
		p.b.WriteString(n.Name)
	case *Index:
		p.expr(n.X, 14)
		p.b.WriteByte('[')
		p.expr(n.I, 0)
		p.b.WriteByte(']')
	case *Call:
		if n.Recv != nil {
			p.expr(n.Recv, 14)
			p.b.WriteByte('.')
		}
		p.b.WriteString(n.Name)
		p.b.WriteByte('(')
		for i, a := range n.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a, 1)
		}
		p.b.WriteByte(')')
	case *New:
		p.b.WriteString("new ")
		p.b.WriteString(n.Name)
		p.b.WriteByte('(')
		for i, a := range n.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a, 1)
		}
		p.b.WriteByte(')')
	case *NewArray:
		p.b.WriteString("new ")
		base := n.Elem
		extra := base.Dims
		base.Dims = 0
		p.b.WriteString(base.String())
		for _, l := range n.Lens {
			p.b.WriteByte('[')
			p.expr(l, 0)
			p.b.WriteByte(']')
		}
		for i := 0; i < extra; i++ {
			p.b.WriteString("[]")
		}
	case *ArrayLit:
		p.b.WriteByte('{')
		for i, el := range n.Elems {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(el, 1)
		}
		p.b.WriteByte('}')
	case *Unary:
		if n.Postfix {
			p.expr(n.X, 14)
			p.b.WriteString(n.Op.String())
		} else {
			p.b.WriteString(n.Op.String())
			// "- -x" and "- --x" must not print as "--x" and "---x", which
			// lex as a decrement.
			if x, ok := n.X.(*Unary); ok && n.Op == token.Minus && !x.Postfix && (x.Op == token.Minus || x.Op == token.Dec) {
				p.b.WriteByte(' ')
			}
			p.expr(n.X, 13)
		}
	case *Binary:
		pb := prec(n.Op)
		p.expr(n.X, pb)
		p.b.WriteByte(' ')
		p.b.WriteString(n.Op.String())
		p.b.WriteByte(' ')
		p.expr(n.Y, pb+1)
	case *Assign:
		p.expr(n.LHS, 14)
		p.b.WriteByte(' ')
		p.b.WriteString(n.Op.String())
		p.b.WriteByte(' ')
		p.expr(n.RHS, 1)
	case *Ternary:
		p.expr(n.Cond, 3)
		p.b.WriteString(" ? ")
		p.expr(n.Then, 2)
		p.b.WriteString(" : ")
		p.expr(n.Else, 2)
	case *Cast:
		p.b.WriteByte('(')
		p.b.WriteString(n.Type.String())
		p.b.WriteString(") ")
		p.expr(n.X, 13)
	case *InstanceOf:
		p.expr(n.X, 10)
		p.b.WriteString(" instanceof ")
		p.b.WriteString(n.Name)
	default:
		fmt.Fprintf(&p.b, "/* unknown expr %T */", e)
	}
	if pr < min {
		p.b.WriteByte(')')
	}
}

// literalSpelling synthesizes a spelling for a literal built by a refactoring
// (which has no Raw text).
func literalSpelling(n *Literal) string {
	switch n.Kind {
	case LitInt:
		return fmt.Sprintf("%d", n.I)
	case LitLong:
		return fmt.Sprintf("%dL", n.I)
	case LitFloat:
		return fmt.Sprintf("%gf", n.D)
	case LitDouble:
		return fmt.Sprintf("%g", n.D)
	case LitChar:
		return fmt.Sprintf("%q", rune(n.I))
	case LitString:
		return fmt.Sprintf("%q", n.S)
	case LitBool:
		if n.I != 0 {
			return "true"
		}
		return "false"
	case LitNull:
		return "null"
	}
	return "0"
}
