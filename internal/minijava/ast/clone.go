package ast

// CloneFile returns a deep, writable copy of a compilation unit. Every node
// is duplicated, including the interpreter's load-time annotation fields
// (Ident.RSlot/RKind/RIx, call-site SiteIx, Method.NSlots/CIx, LocalVar and
// Catch slots) and the profiler's Method.Probe label, so a clone of a
// pristine parse is itself pristine and a clone of a loaded or instrumented
// file reproduces its state exactly. The copy is never frozen, even when f
// is.
//
// It is the one way to write to a parse master: the artifact store hands
// masters out read-only, and every caller that links, instruments or
// rewrites a file clones it first. Cloning reads the source tree without
// writing to it, so any number of goroutines may clone one master
// concurrently.
func CloneFile(f *File) *File {
	if f == nil {
		return nil
	}
	out := &File{Path: f.Path, Package: f.Package}
	if f.Imports != nil {
		out.Imports = append([]string(nil), f.Imports...)
	}
	if f.Classes != nil {
		out.Classes = make([]*Class, len(f.Classes))
		for i, c := range f.Classes {
			out.Classes[i] = cloneClass(c)
		}
	}
	return out
}

// CloneFiles clones every file, in order.
func CloneFiles(files []*File) []*File {
	out := make([]*File, len(files))
	for i, f := range files {
		out[i] = CloneFile(f)
	}
	return out
}

func cloneClass(c *Class) *Class {
	if c == nil {
		return nil
	}
	out := &Class{Pos: c.Pos, Mods: c.Mods, Name: c.Name, Extends: c.Extends}
	if c.Fields != nil {
		out.Fields = make([]*Field, len(c.Fields))
		for i, f := range c.Fields {
			out.Fields[i] = cloneField(f)
		}
	}
	if c.Methods != nil {
		out.Methods = make([]*Method, len(c.Methods))
		for i, m := range c.Methods {
			out.Methods[i] = cloneMethod(m)
		}
	}
	return out
}

func cloneField(f *Field) *Field {
	if f == nil {
		return nil
	}
	return &Field{Pos: f.Pos, Mods: f.Mods, Type: f.Type, Name: f.Name, Init: cloneExpr(f.Init)}
}

func cloneMethod(m *Method) *Method {
	if m == nil {
		return nil
	}
	out := &Method{
		Pos: m.Pos, Mods: m.Mods, Ret: m.Ret, Name: m.Name,
		IsCtor: m.IsCtor, NSlots: m.NSlots, CIx: m.CIx, Probe: m.Probe,
		Body: cloneBlock(m.Body),
	}
	if m.Params != nil {
		out.Params = append([]Param(nil), m.Params...)
	}
	if m.Throws != nil {
		out.Throws = append([]string(nil), m.Throws...)
	}
	return out
}

func cloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	return &Block{Pos: b.Pos, Stmts: cloneStmts(b.Stmts)}
}

func cloneStmts(ss []Stmt) []Stmt {
	if ss == nil {
		return nil
	}
	out := make([]Stmt, len(ss))
	for i, s := range ss {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *Block:
		return cloneBlock(s)
	case *LocalVar:
		return &LocalVar{Pos: s.Pos, Final: s.Final, Type: s.Type, Name: s.Name,
			Init: cloneExpr(s.Init), Slot: s.Slot}
	case *ExprStmt:
		return &ExprStmt{Pos: s.Pos, X: cloneExpr(s.X)}
	case *If:
		return &If{Pos: s.Pos, Cond: cloneExpr(s.Cond), Then: cloneStmt(s.Then), Else: cloneStmt(s.Else)}
	case *While:
		return &While{Pos: s.Pos, Cond: cloneExpr(s.Cond), Body: cloneStmt(s.Body)}
	case *For:
		return &For{Pos: s.Pos, Init: cloneStmt(s.Init), Cond: cloneExpr(s.Cond),
			Post: cloneExprs(s.Post), Body: cloneStmt(s.Body)}
	case *Return:
		return &Return{Pos: s.Pos, X: cloneExpr(s.X)}
	case *Break:
		return &Break{Pos: s.Pos}
	case *Continue:
		return &Continue{Pos: s.Pos}
	case *Empty:
		return &Empty{Pos: s.Pos}
	case *DoWhile:
		return &DoWhile{Pos: s.Pos, Body: cloneStmt(s.Body), Cond: cloneExpr(s.Cond)}
	case *Switch:
		out := &Switch{Pos: s.Pos, Tag: cloneExpr(s.Tag)}
		if s.Cases != nil {
			out.Cases = make([]SwitchCase, len(s.Cases))
			for i, c := range s.Cases {
				out.Cases[i] = SwitchCase{Pos: c.Pos, Values: cloneExprs(c.Values), Stmts: cloneStmts(c.Stmts)}
			}
		}
		return out
	case *Throw:
		return &Throw{Pos: s.Pos, X: cloneExpr(s.X)}
	case *Try:
		out := &Try{Pos: s.Pos, Block: cloneBlock(s.Block), Finally: cloneBlock(s.Finally)}
		if s.Catches != nil {
			out.Catches = make([]Catch, len(s.Catches))
			for i, c := range s.Catches {
				out.Catches[i] = Catch{Pos: c.Pos, Type: c.Type, Name: c.Name,
					Block: cloneBlock(c.Block), Slot: c.Slot}
			}
		}
		return out
	}
	panic("ast: CloneFile: unknown statement type")
}

func cloneExprs(xs []Expr) []Expr {
	if xs == nil {
		return nil
	}
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = cloneExpr(x)
	}
	return out
}

func cloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Literal:
		c := *e
		return &c
	case *Ident:
		c := *e
		return &c
	case *This:
		return &This{Pos: e.Pos}
	case *Select:
		return &Select{Pos: e.Pos, X: cloneExpr(e.X), Name: e.Name, SiteIx: e.SiteIx}
	case *Index:
		return &Index{Pos: e.Pos, X: cloneExpr(e.X), I: cloneExpr(e.I)}
	case *Call:
		return &Call{Pos: e.Pos, Recv: cloneExpr(e.Recv), Name: e.Name,
			Args: cloneExprs(e.Args), SiteIx: e.SiteIx}
	case *New:
		return &New{Pos: e.Pos, Name: e.Name, Args: cloneExprs(e.Args), SiteIx: e.SiteIx}
	case *NewArray:
		return &NewArray{Pos: e.Pos, Elem: e.Elem, Lens: cloneExprs(e.Lens)}
	case *ArrayLit:
		return &ArrayLit{Pos: e.Pos, Elems: cloneExprs(e.Elems)}
	case *Unary:
		return &Unary{Pos: e.Pos, Op: e.Op, X: cloneExpr(e.X), Postfix: e.Postfix}
	case *Binary:
		return &Binary{Pos: e.Pos, Op: e.Op, X: cloneExpr(e.X), Y: cloneExpr(e.Y)}
	case *Assign:
		return &Assign{Pos: e.Pos, Op: e.Op, LHS: cloneExpr(e.LHS), RHS: cloneExpr(e.RHS)}
	case *Ternary:
		return &Ternary{Pos: e.Pos, Cond: cloneExpr(e.Cond), Then: cloneExpr(e.Then), Else: cloneExpr(e.Else)}
	case *Cast:
		return &Cast{Pos: e.Pos, Type: e.Type, X: cloneExpr(e.X)}
	case *InstanceOf:
		return &InstanceOf{Pos: e.Pos, X: cloneExpr(e.X), Name: e.Name}
	}
	panic("ast: CloneFile: unknown expression type")
}
