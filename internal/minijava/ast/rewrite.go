package ast

// This file adds a mutating counterpart to Inspect: a cursor-driven rewrite
// traversal in the spirit of golang.org/x/tools/go/ast/astutil.Apply, written
// by hand for the mini-Java node set (no reflection — the interpreter's hot
// paths share these nodes and must stay allocation-predictable).
//
// Rewrite visits every node in the same order as Inspect. At each node the
// pre hook runs first and may replace, delete, or insert around the node via
// the Cursor; if pre returns true the traversal then descends into the
// *current* occupant of the slot (i.e. into a replacement, not the original),
// and finally the post hook runs. Nodes inserted with InsertBefore are not
// themselves traversed; nodes inserted with InsertAfter are reached when the
// sweep arrives at them, because statement slices re-read their length on
// every step — a hook may splice the parent slice directly and the traversal
// stays consistent.

// Cursor describes the node currently being visited and its edge from the
// parent, and carries the mutation operations.
type Cursor struct {
	node Node
	name string // field name in the parent ("Stmts", "Cond", ...)

	// For nodes held in a statement slice: the slice and index; otherwise
	// slice is nil and set writes the single field slot.
	slice *[]Stmt
	index int
	set   func(Node) // writes the single-slot field; nil for slices
}

// Node returns the node the cursor currently points at.
func (c *Cursor) Node() Node { return c.node }

// Name returns the field name of the parent holding this node.
func (c *Cursor) Name() string { return c.name }

// Index returns the node's index in the parent's statement slice, or -1 when
// the node does not sit in one.
func (c *Cursor) Index() int {
	if c.slice == nil {
		return -1
	}
	return c.index
}

// InSlice reports whether the node sits in a statement slice, where Delete,
// InsertBefore and InsertAfter are legal.
func (c *Cursor) InSlice() bool { return c.slice != nil }

// Replace swaps the current node for n. When pre returns true afterwards, the
// traversal descends into n's children (n itself is not re-visited).
func (c *Cursor) Replace(n Node) {
	if c.slice != nil {
		(*c.slice)[c.index] = n.(Stmt)
	} else if c.set != nil {
		c.set(n)
	} else {
		panic("ast: Replace at the traversal root")
	}
	c.node = n
}

// Delete removes the current node from its statement slice. The traversal
// does not descend into the deleted node.
func (c *Cursor) Delete() {
	if c.slice == nil {
		panic("ast: Delete outside a statement slice")
	}
	s := *c.slice
	copy(s[c.index:], s[c.index+1:])
	*c.slice = s[:len(s)-1]
	c.node = nil
}

// InsertBefore inserts stmt before the current node. Inserted nodes are not
// traversed (the sweep is already past their position).
func (c *Cursor) InsertBefore(stmt Stmt) {
	if c.slice == nil {
		panic("ast: InsertBefore outside a statement slice")
	}
	s := *c.slice
	s = append(s, nil)
	copy(s[c.index+1:], s[c.index:])
	s[c.index] = stmt
	*c.slice = s
	c.index++
}

// InsertAfter inserts stmt after the current node. The sweep reaches it when
// the slice iteration arrives at its position.
func (c *Cursor) InsertAfter(stmt Stmt) {
	if c.slice == nil {
		panic("ast: InsertAfter outside a statement slice")
	}
	s := *c.slice
	s = append(s, nil)
	copy(s[c.index+2:], s[c.index+1:])
	s[c.index+1] = stmt
	*c.slice = s
}

// RewriteHook is a traversal hook. Returning false from pre skips the node's
// children; returning false from post aborts the whole traversal.
type RewriteHook func(*Cursor) bool

// rewriter carries the hooks plus the abort flag.
type rewriteState struct {
	pre, post RewriteHook
	done      bool
}

// Rewrite traverses the tree rooted at n (a statement or expression),
// applying pre and post at every node. Either hook may be nil. The root node
// itself cannot be replaced (it has no parent slot); wrap it in a Block to
// rewrite at the top level.
func Rewrite(n Node, pre, post RewriteHook) {
	rs := &rewriteState{pre: pre, post: post}
	c := &Cursor{node: n}
	rs.visit(c)
}

// RewriteFile applies the hooks over every field initializer and method body
// of the file, mirroring InspectFile.
func RewriteFile(file *File, pre, post RewriteHook) {
	rs := &rewriteState{pre: pre, post: post}
	for _, cl := range file.Classes {
		for _, fd := range cl.Fields {
			if rs.done {
				return
			}
			if fd.Init != nil {
				fd := fd
				rs.visit(&Cursor{node: fd.Init, name: "Init",
					set: func(n Node) { fd.Init = n.(Expr) }})
			}
		}
		for _, m := range cl.Methods {
			if rs.done {
				return
			}
			if m.Body != nil {
				rs.visit(&Cursor{node: m.Body, name: "Body"})
			}
		}
	}
}

// visit runs pre, descends into the current slot value, then runs post.
func (rs *rewriteState) visit(c *Cursor) {
	if rs.done || c.node == nil {
		return
	}
	if rs.pre != nil && !rs.pre(c) {
		rs.runPost(c)
		return
	}
	if c.node != nil { // pre may have deleted the node
		rs.children(c.node)
	}
	rs.runPost(c)
}

func (rs *rewriteState) runPost(c *Cursor) {
	if rs.done || rs.post == nil || c.node == nil {
		return
	}
	if !rs.post(c) {
		rs.done = true
	}
}

// expr visits a single-slot expression child.
func (rs *rewriteState) expr(name string, e Expr, set func(Expr)) {
	if e == nil || rs.done {
		return
	}
	rs.visit(&Cursor{node: e, name: name,
		set: func(n Node) { set(n.(Expr)) }})
}

// stmtSlot visits a single-slot statement child (If.Then, For.Body, ...).
func (rs *rewriteState) stmtSlot(name string, s Stmt, set func(Stmt)) {
	if s == nil || rs.done {
		return
	}
	rs.visit(&Cursor{node: s, name: name,
		set: func(n Node) { set(n.(Stmt)) }})
}

// stmts sweeps a statement slice, re-reading the length each step so hooks
// may splice the slice mid-sweep.
func (rs *rewriteState) stmts(name string, slice *[]Stmt) {
	for i := 0; i < len(*slice); i++ {
		if rs.done {
			return
		}
		c := &Cursor{node: (*slice)[i], name: name,
			slice: slice, index: i}
		rs.visit(c)
		i = c.index // InsertBefore advances the index past inserted nodes
		if c.node == nil {
			i-- // Delete: re-examine the slot that shifted in
		}
	}
}

// children dispatches into the node's child slots.
func (rs *rewriteState) children(node Node) {
	switch n := node.(type) {
	case *Block:
		rs.stmts("Stmts", &n.Stmts)
	case *LocalVar:
		rs.expr("Init", n.Init, func(e Expr) { n.Init = e })
	case *ExprStmt:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
	case *If:
		rs.expr("Cond", n.Cond, func(e Expr) { n.Cond = e })
		rs.stmtSlot("Then", n.Then, func(s Stmt) { n.Then = s })
		rs.stmtSlot("Else", n.Else, func(s Stmt) { n.Else = s })
	case *While:
		rs.expr("Cond", n.Cond, func(e Expr) { n.Cond = e })
		rs.stmtSlot("Body", n.Body, func(s Stmt) { n.Body = s })
	case *DoWhile:
		rs.stmtSlot("Body", n.Body, func(s Stmt) { n.Body = s })
		rs.expr("Cond", n.Cond, func(e Expr) { n.Cond = e })
	case *Switch:
		rs.expr("Tag", n.Tag, func(e Expr) { n.Tag = e })
		for ci := range n.Cases {
			cs := &n.Cases[ci]
			for vi := range cs.Values {
				vi := vi
				rs.expr("Values", cs.Values[vi], func(e Expr) { cs.Values[vi] = e })
			}
			rs.stmts("Stmts", &cs.Stmts)
		}
	case *For:
		rs.stmtSlot("Init", n.Init, func(s Stmt) { n.Init = s })
		rs.expr("Cond", n.Cond, func(e Expr) { n.Cond = e })
		for i := range n.Post {
			i := i
			rs.expr("Post", n.Post[i], func(e Expr) { n.Post[i] = e })
		}
		rs.stmtSlot("Body", n.Body, func(s Stmt) { n.Body = s })
	case *Return:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
	case *Throw:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
	case *Try:
		rs.stmtSlot("Block", n.Block, func(s Stmt) { n.Block = s.(*Block) })
		for i := range n.Catches {
			ct := &n.Catches[i]
			rs.stmtSlot("Catch", ct.Block, func(s Stmt) { ct.Block = s.(*Block) })
		}
		if n.Finally != nil {
			rs.stmtSlot("Finally", n.Finally, func(s Stmt) { n.Finally = s.(*Block) })
		}
	case *Select:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
	case *Index:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
		rs.expr("I", n.I, func(e Expr) { n.I = e })
	case *Call:
		rs.expr("Recv", n.Recv, func(e Expr) { n.Recv = e })
		for i := range n.Args {
			i := i
			rs.expr("Args", n.Args[i], func(e Expr) { n.Args[i] = e })
		}
	case *New:
		for i := range n.Args {
			i := i
			rs.expr("Args", n.Args[i], func(e Expr) { n.Args[i] = e })
		}
	case *NewArray:
		for i := range n.Lens {
			i := i
			rs.expr("Lens", n.Lens[i], func(e Expr) { n.Lens[i] = e })
		}
	case *ArrayLit:
		for i := range n.Elems {
			i := i
			rs.expr("Elems", n.Elems[i], func(e Expr) { n.Elems[i] = e })
		}
	case *Unary:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
	case *Binary:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
		rs.expr("Y", n.Y, func(e Expr) { n.Y = e })
	case *Assign:
		rs.expr("LHS", n.LHS, func(e Expr) { n.LHS = e })
		rs.expr("RHS", n.RHS, func(e Expr) { n.RHS = e })
	case *Ternary:
		rs.expr("Cond", n.Cond, func(e Expr) { n.Cond = e })
		rs.expr("Then", n.Then, func(e Expr) { n.Then = e })
		rs.expr("Else", n.Else, func(e Expr) { n.Else = e })
	case *Cast:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
	case *InstanceOf:
		rs.expr("X", n.X, func(e Expr) { n.X = e })
	case *Literal, *Ident, *This, *Break, *Continue, *Empty:
		// leaves
	}
}
