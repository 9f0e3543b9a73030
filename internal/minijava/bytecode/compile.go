package bytecode

import (
	"strconv"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/token"
)

// Compile lowers one resolved method to bytecode. It returns nil when the
// method uses a construct the VM has no lowering for (try/catch, break or
// continue outside a loop); such methods stay on the tree-walker, which is
// bit-identical by definition.
//
// The invariant the compiler maintains is charge identity: between any two
// meter reads, executing the emitted instructions charges the same op counts
// as the tree-walk of the same body and issues the same memory accesses in
// the same order (the cache model is order-sensitive; op charges are not),
// and counts the same total of op-budget steps. Walker steps that produce no instruction of their own are folded into
// the Steps field of the next emitted instruction (flushed as a standalone
// OpStep before jump targets so no path double- or under-counts).
func Compile(className string, m *ast.Method) (fn *Func) {
	if m.Body == nil {
		return nil
	}
	nslots := int(m.NSlots)
	if nslots < len(m.Params) {
		return nil // unresolved method; leave it to the walker
	}
	c := &compiler{fn: &Func{
		Name:   className + "." + m.Name + "/" + strconv.Itoa(len(m.Params)),
		Method: m,
		NSlots: nslots,
	}}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(unsupported); ok {
				fn = nil
				return
			}
			panic(r)
		}
	}()
	c.stmt(m.Body)
	// Falling off the end of the body: the walker's invoke treats it as a
	// void completion with no return-value coercion (B=0 marks "implicit").
	c.emit(Instr{Op: OpRetVoid})
	return c.fn
}

// unsupported aborts compilation; Compile's recover turns it into a nil Func
// and the method falls back to the tree-walker.
type unsupported struct{ what string }

type loopScope struct {
	isLoop bool  // false for switch scopes (break only)
	breaks []int // OpJmp indices to patch to the end of the construct
	conts  []int // OpJmp indices to patch to the continue target
}

type compiler struct {
	fn      *Func
	pending int // walker steps awaiting attachment to the next instruction
	depth   int // current operand-stack depth
	barrier int // highest jump target handed out; fusion must not cross it
	scopes  []loopScope
}

func (c *compiler) bail(what string) {
	panic(unsupported{what})
}

// step accumulates walker step() counts; they attach to the next emitted
// instruction.
func (c *compiler) step(n int) { c.pending += n }

// emit appends one instruction, folding pending steps into it.
func (c *compiler) emit(i Instr) int {
	for c.pending > 255 {
		c.fn.Code = append(c.fn.Code, Instr{Op: OpStep, Steps: 255})
		c.pending -= 255
	}
	i.Steps = uint8(c.pending)
	c.pending = 0
	c.fn.Code = append(c.fn.Code, i)
	return len(c.fn.Code) - 1
}

// flush materialises pending steps as a standalone OpStep. Called (via label)
// before binding a jump target so steps accumulated on the fall-through path
// are not re-charged when the target is reached by jumping.
func (c *compiler) flush() {
	for c.pending > 0 {
		n := c.pending
		if n > 255 {
			n = 255
		}
		c.fn.Code = append(c.fn.Code, Instr{Op: OpStep, Steps: uint8(n)})
		c.pending -= n
	}
}

// label flushes pending steps and returns the pc of the next instruction —
// the only safe way to produce a jump target. The returned pc becomes a
// fusion barrier: a peephole must never mutate an instruction a label (or a
// pending forward patch, which always goes through label) might target.
func (c *compiler) label() int {
	c.flush()
	if len(c.fn.Code) > c.barrier {
		c.barrier = len(c.fn.Code)
	}
	return len(c.fn.Code)
}

// patch sets the relative jump offset of the instruction at `at` to `target`.
func (c *compiler) patch(at, target int) {
	c.fn.Code[at].A = int32(target - at)
}

// comparisonTok reports whether op always produces a normalised boolean.
func comparisonTok(op token.Kind) bool {
	switch op {
	case token.Lt, token.Le, token.Gt, token.Ge, token.Eq, token.Ne:
		return true
	}
	return false
}

// condJmp emits a conditional jump consuming the condition value on the
// stack. When the condition was produced by a comparison superinstruction
// immediately before — and no jump target or pending steps can land between
// the two — the compare and the jump fuse into one opcode. The fused
// handlers issue the identical charge sequence, and a comparison always
// yields a boolean, so the jump's own unbox/type checks are unreachable.
func (c *compiler) condJmp(op Op, cond ast.Node) int {
	if c.pending == 0 && c.barrier < len(c.fn.Code) {
		last := len(c.fn.Code) - 1
		li := &c.fn.Code[last]
		if comparisonTok(li.Tok) {
			onTrue := op == OpJmpTrue
			switch li.Op {
			case OpBinLL:
				li.Op = fusedCmp(OpJmpCmpLLFalse, OpJmpCmpLLTrue, onTrue)
				li.C, li.A = li.A, 0 // B (second slot) stays in place
				return last
			case OpBinLC:
				li.Op = fusedCmp(OpJmpCmpLCFalse, OpJmpCmpLCTrue, onTrue)
				li.C, li.A = li.A, 0
				return last
			case OpBinary:
				li.Op = fusedCmp(OpJmpCmpFalse, OpJmpCmpTrue, onTrue)
				li.A = 0
				return last
			}
		}
	}
	return c.emit(Instr{Op: op, Node: cond})
}

func fusedCmp(onFalse, onTrue Op, wantTrue bool) Op {
	if wantTrue {
		return onTrue
	}
	return onFalse
}

// toBool emits the walker's condition coercion for the value on the stack,
// eliding it when the previous instruction provably left a normalised
// boolean there (comparisons, logical not, raw booleans) — OpToBool charges
// nothing, so elision cannot disturb the meter.
func (c *compiler) toBool(node ast.Node) {
	if c.pending == 0 && c.barrier < len(c.fn.Code) {
		li := &c.fn.Code[len(c.fn.Code)-1]
		switch li.Op {
		case OpBinLL, OpBinLC, OpBinary:
			if comparisonTok(li.Tok) {
				return
			}
		case OpNot, OpPushBool:
			return
		}
	}
	c.emit(Instr{Op: OpToBool, Node: node})
}

func (c *compiler) push(n int) {
	c.depth += n
	if c.depth > c.fn.MaxStack {
		c.fn.MaxStack = c.depth
	}
}

func (c *compiler) pop(n int) {
	c.depth -= n
	if c.depth < 0 {
		c.bail("stack underflow")
	}
}

func (c *compiler) constIx(lit *ast.Literal) int32 {
	c.fn.Consts = append(c.fn.Consts, lit)
	return int32(len(c.fn.Consts) - 1)
}

func (c *compiler) charge(op energy.Op, n int) {
	c.emit(Instr{Op: OpCharge, A: int32(op), B: int32(n)})
}

// --- statements ---

// stmt lowers one statement. Every statement starts with one walker step for
// its own node (exec's in.step()), accumulated as pending.
func (c *compiler) stmt(s ast.Stmt) {
	c.step(1)
	switch n := s.(type) {
	case *ast.ExprStmt:
		c.stmtExpr(n.X)
	case *ast.Block:
		for _, st := range n.Stmts {
			c.stmt(st)
		}
	case *ast.If:
		c.charge(energy.OpBranch, 1)
		c.expr(n.Cond)
		jf := c.condJmp(OpJmpFalse, n.Cond)
		c.pop(1)
		c.stmt(n.Then)
		if n.Else != nil {
			j := c.emit(Instr{Op: OpJmp})
			c.patch(jf, c.label())
			c.stmt(n.Else)
			c.patch(j, c.label())
		} else {
			c.patch(jf, c.label())
		}
	case *ast.While:
		// The walker charges one branch at the top of every iteration. The
		// first iteration's charge is hoisted above the loop head; the rest
		// ride the fused back-edge (OpJmpBranch), so each iteration costs one
		// dispatch less while the meter sees the identical charge sequence.
		c.charge(energy.OpBranch, 1)
		head := c.label()
		c.expr(n.Cond)
		jf := c.condJmp(OpJmpFalse, n.Cond)
		c.pop(1)
		c.openLoop()
		c.stmt(n.Body)
		back := c.emit(Instr{Op: OpJmpBranch})
		c.patch(back, head)
		end := c.label()
		c.patch(jf, end)
		c.closeLoop(end, back)
	case *ast.DoWhile:
		head := c.label()
		c.openLoop()
		c.stmt(n.Body)
		cont := c.label()
		c.charge(energy.OpBranch, 1)
		c.expr(n.Cond)
		jt := c.condJmp(OpJmpTrue, n.Cond)
		c.pop(1)
		c.patch(jt, head)
		c.closeLoop(c.label(), cont)
	case *ast.For:
		if n.Init != nil {
			c.stmt(n.Init)
		}
		// Same back-edge fusion as While; a condition-less for charges no
		// branch, so its back-edge stays a plain jump.
		backOp := OpJmp
		if n.Cond != nil {
			c.charge(energy.OpBranch, 1)
			backOp = OpJmpBranch
		}
		head := c.label()
		jf := -1
		if n.Cond != nil {
			c.expr(n.Cond)
			jf = c.condJmp(OpJmpFalse, n.Cond)
			c.pop(1)
		}
		c.openLoop()
		c.stmt(n.Body)
		cont := c.label()
		for _, post := range n.Post {
			c.stmtExpr(post)
		}
		back := c.emit(Instr{Op: backOp})
		c.patch(back, head)
		end := c.label()
		if jf >= 0 {
			c.patch(jf, end)
		}
		c.closeLoop(end, cont)
	case *ast.Return:
		if n.X == nil {
			c.emit(Instr{Op: OpRetVoid, B: 1})
		} else {
			c.expr(n.X)
			c.emit(Instr{Op: OpRet})
			c.pop(1)
		}
	case *ast.LocalVar:
		slot := int(n.Slot) - 1
		if slot < 0 || slot >= c.fn.NSlots {
			c.bail("unresolved local") // walker reports the error at runtime
		}
		switch {
		case n.Init == nil:
			c.emit(Instr{Op: OpLocalZero, A: int32(slot), Node: n})
		default:
			if _, isLit := n.Init.(*ast.ArrayLit); isLit {
				c.emit(Instr{Op: OpLocalDecl, A: int32(slot), B: 1, Node: n})
			} else {
				c.expr(n.Init)
				c.emit(Instr{Op: OpLocalDecl, A: int32(slot), Node: n})
				c.pop(1)
			}
		}
	case *ast.Switch:
		c.lowerSwitch(n)
	case *ast.Break:
		sc := c.innermost(false)
		if sc == nil {
			c.bail("break outside loop/switch")
		}
		sc.breaks = append(sc.breaks, c.emit(Instr{Op: OpJmp}))
	case *ast.Continue:
		sc := c.innermost(true)
		if sc == nil {
			c.bail("continue outside loop")
		}
		sc.conts = append(sc.conts, c.emit(Instr{Op: OpJmp}))
	case *ast.Empty:
		// The node's step stays pending and folds into whatever follows.
	case *ast.Throw:
		c.expr(n.X)
		c.emit(Instr{Op: OpThrow, Node: n})
		c.pop(1)
	default:
		// try/catch (and anything new) has no lowering; the whole method
		// runs on the walker.
		c.bail("statement without lowering")
	}
}

func (c *compiler) openLoop() {
	c.scopes = append(c.scopes, loopScope{isLoop: true})
}

func (c *compiler) closeLoop(end, cont int) {
	sc := c.scopes[len(c.scopes)-1]
	c.scopes = c.scopes[:len(c.scopes)-1]
	for _, at := range sc.breaks {
		c.patch(at, end)
	}
	for _, at := range sc.conts {
		c.patch(at, cont)
	}
}

// innermost returns the scope a break (any) or continue (loops only) targets.
func (c *compiler) innermost(needLoop bool) *loopScope {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if !needLoop || c.scopes[i].isLoop {
			return &c.scopes[i]
		}
	}
	return nil
}

// lowerSwitch compiles the comparison chain (tag stays on the stack while
// candidate values are compared in source order) followed by the arm bodies
// with Java fall-through. Break jumps to the end via a switch scope.
func (c *compiler) lowerSwitch(n *ast.Switch) {
	c.expr(n.Tag)
	c.emit(Instr{Op: OpSwitchTag, Node: n})
	defaultIx := -1
	armJumps := make([][]int, len(n.Cases))
	for ci, arm := range n.Cases {
		if len(arm.Values) == 0 {
			defaultIx = ci
			continue
		}
		for _, ve := range arm.Values {
			c.expr(ve)
			armJumps[ci] = append(armJumps[ci], c.emit(Instr{Op: OpCaseCmp, Node: n}))
			c.pop(1)
		}
	}
	swEnd := c.emit(Instr{Op: OpSwitchEnd, Node: n})
	c.pop(1) // the tag is consumed on every outgoing edge
	c.scopes = append(c.scopes, loopScope{})
	armPos := make([]int, len(n.Cases))
	for ci, arm := range n.Cases {
		armPos[ci] = c.label()
		for _, st := range arm.Stmts {
			c.stmt(st)
		}
	}
	end := c.label()
	sc := c.scopes[len(c.scopes)-1]
	c.scopes = c.scopes[:len(c.scopes)-1]
	for ci, js := range armJumps {
		for _, at := range js {
			c.patch(at, armPos[ci])
		}
	}
	if defaultIx >= 0 {
		c.patch(swEnd, armPos[defaultIx])
	} else {
		c.patch(swEnd, end)
	}
	for _, at := range sc.breaks {
		c.patch(at, end)
	}
}

// stmtExpr lowers an expression in statement position with the walker's
// evalStmtExpr step accounting (one step for the expression node, result
// discarded). Assignments and ++/-- on a local store without keeping a
// value; every other expression is evaluated and popped.
func (c *compiler) stmtExpr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Assign:
		c.lowerAssign(x)
		return
	case *ast.Unary:
		if id, ok := x.X.(*ast.Ident); ok && id.RSlot > 0 && (x.Op == token.Inc || x.Op == token.Dec) {
			delta := int32(1)
			if x.Op == token.Dec {
				delta = -1
			}
			c.step(1)
			c.emit(Instr{Op: OpIncLocal, A: id.RSlot - 1, B: delta, Node: x})
			return
		}
	}
	c.expr(e)
	c.emit(Instr{Op: OpPop})
	c.pop(1)
}

// --- expressions ---

// expr lowers one expression, leaving exactly one value on the stack.
func (c *compiler) expr(e ast.Expr) {
	switch n := e.(type) {
	case *ast.Ident:
		c.step(1)
		if slot := int(n.RSlot) - 1; slot >= 0 {
			c.emit(Instr{Op: OpLoadLocal, A: int32(slot), Node: n})
		} else {
			c.emit(Instr{Op: OpLoadIdent, Node: n})
		}
		c.push(1)
	case *ast.Literal:
		c.step(1)
		c.emit(Instr{Op: OpConst, A: c.constIx(n), Node: n})
		c.push(1)
	case *ast.Binary:
		c.lowerBinary(n)
	case *ast.Select:
		c.step(1)
		c.expr(n.X)
		c.emit(Instr{Op: OpLoadSelect, Node: n})
	case *ast.Call:
		c.lowerCall(n)
	case *ast.Index:
		c.step(1)
		c.expr(n.X)
		if id, ok := n.I.(*ast.Ident); ok && id.RSlot > 0 {
			// a[i] with a local index: fold the index read into the access.
			// The handler charges the local read exactly where the
			// stand-alone load instruction would have.
			c.step(1)
			c.emit(Instr{Op: OpLoadIndexL, A: id.RSlot - 1, Node: n})
			break
		}
		c.expr(n.I)
		c.emit(Instr{Op: OpLoadIndex, Node: n})
		c.pop(1)
	case *ast.Unary:
		c.lowerUnary(n)
	case *ast.This:
		c.step(1)
		c.emit(Instr{Op: OpLoadThis, Node: n})
		c.push(1)
	case *ast.New:
		c.step(1)
		for _, a := range n.Args {
			c.expr(a)
		}
		c.emit(Instr{Op: OpNew, A: int32(len(n.Args)), Node: n})
		c.pop(len(n.Args))
		c.push(1)
	case *ast.NewArray:
		c.step(1)
		for _, le := range n.Lens {
			c.expr(le)
			c.emit(Instr{Op: OpLenCheck, Node: n})
		}
		c.emit(Instr{Op: OpNewArray, A: int32(len(n.Lens)), Node: n})
		c.pop(len(n.Lens))
		c.push(1)
	case *ast.Ternary:
		c.step(1)
		c.charge(energy.OpBranch, 1)
		c.charge(energy.OpTernary, 1)
		c.expr(n.Cond)
		jf := c.condJmp(OpJmpFalse, n.Cond)
		c.pop(1)
		d0 := c.depth
		c.expr(n.Then)
		j := c.emit(Instr{Op: OpJmp})
		c.patch(jf, c.label())
		c.depth = d0 // both branches enter at the same depth, produce one value
		c.expr(n.Else)
		c.patch(j, c.label())
	case *ast.Cast:
		c.step(1)
		c.expr(n.X)
		c.emit(Instr{Op: OpCast, Node: n})
	case *ast.InstanceOf:
		c.step(1)
		c.expr(n.X)
		c.emit(Instr{Op: OpInstanceOf, Node: n})
	default:
		// Assignments used as values and future node kinds: hand the whole
		// subtree to the walker, which steps and charges internally.
		c.emit(Instr{Op: OpEval, Node: n})
		c.push(1)
	}
}

func (c *compiler) lowerBinary(n *ast.Binary) {
	switch n.Op {
	case token.AndAnd, token.OrOr:
		// Short circuit: charge one branch, evaluate X as a condition; only
		// when the answer is still open does Y run (as a condition too). The
		// walker materialises the short-circuit result without a charge.
		c.step(1)
		c.charge(energy.OpBranch, 1)
		c.expr(n.X)
		var jshort int
		if n.Op == token.AndAnd {
			jshort = c.condJmp(OpJmpFalse, n.X)
		} else {
			jshort = c.condJmp(OpJmpTrue, n.X)
		}
		c.pop(1)
		d0 := c.depth
		c.expr(n.Y)
		c.toBool(n.Y)
		j := c.emit(Instr{Op: OpJmp})
		c.patch(jshort, c.label())
		c.depth = d0
		if n.Op == token.AndAnd {
			c.emit(Instr{Op: OpPushBool, A: 0})
		} else {
			c.emit(Instr{Op: OpPushBool, A: 1})
		}
		c.push(1)
		c.patch(j, c.label())
		return
	}
	// Superinstructions for the dominant operand shapes: local⊕local and
	// local⊕constant collapse three dispatches into one. Their handlers issue
	// the same step/charge sequence as the generic path.
	if xid, ok := n.X.(*ast.Ident); ok {
		if yid, ok := n.Y.(*ast.Ident); ok {
			c.step(3)
			c.emit(Instr{Op: OpBinLL, Tok: n.Op, A: xid.RSlot - 1, B: yid.RSlot - 1, Node: n})
			c.push(1)
			return
		}
		if ylit, ok := n.Y.(*ast.Literal); ok {
			c.step(3)
			c.emit(Instr{Op: OpBinLC, Tok: n.Op, A: xid.RSlot - 1, B: c.constIx(ylit), Node: n})
			c.push(1)
			return
		}
	}
	c.step(1)
	c.expr(n.X)
	c.expr(n.Y)
	c.emit(Instr{Op: OpBinary, Tok: n.Op, Node: n})
	c.pop(1)
}

// lowerAssign compiles a simple or compound assignment in statement
// position; its value is not kept.
func (c *compiler) lowerAssign(n *ast.Assign) {
	// One step for the Assign node itself (evalStmtExpr).
	c.step(1)
	if n.Op == token.Assign {
		c.expr(n.RHS)
	} else {
		// Compound: read the target, evaluate the RHS, apply the base
		// operator — the walker's readLValue / operand / binary order.
		switch l := n.LHS.(type) {
		case *ast.Ident:
			c.step(1)
			if slot := int(l.RSlot) - 1; slot >= 0 {
				c.emit(Instr{Op: OpLoadLocal, A: int32(slot), Node: l})
			} else {
				// Non-local target (static or field): the dynamic load lets
				// Finalize pin it like any other identifier read.
				c.emit(Instr{Op: OpLoadIdent, Node: l})
			}
			c.push(1)
		case *ast.Select:
			c.step(1)
			c.expr(l.X)
			c.emit(Instr{Op: OpLoadSelect, Node: l})
		case *ast.Index:
			c.step(1)
			c.expr(l.X)
			if id, ok := l.I.(*ast.Ident); ok && id.RSlot > 0 {
				c.step(1)
				c.emit(Instr{Op: OpLoadIndexL, A: id.RSlot - 1, Node: l})
			} else {
				c.expr(l.I)
				c.emit(Instr{Op: OpLoadIndex, Node: l})
				c.pop(1)
			}
		default:
			c.bail("compound assignment to non-lvalue")
		}
		c.expr(n.RHS)
		c.emit(Instr{Op: OpBinary, Tok: CompoundBase(n.Op), Node: n})
		c.pop(1)
	}
	// The store. Select and Index targets re-evaluate their receiver inside
	// the store, after the RHS — exactly the walker's writeLValue order
	// (compound assignments therefore evaluate the receiver twice, like the
	// tree-walk does).
	switch l := n.LHS.(type) {
	case *ast.Ident:
		if l.RSlot > 0 {
			c.emit(Instr{Op: OpStoreLocal, A: l.RSlot - 1, Node: l})
		} else {
			c.emit(Instr{Op: OpStoreIdent, Node: l})
		}
	case *ast.Select:
		c.emit(Instr{Op: OpStoreSelect, Node: l})
	case *ast.Index:
		c.expr(l.X)
		if id, ok := l.I.(*ast.Ident); ok && id.RSlot > 0 {
			c.step(1)
			c.emit(Instr{Op: OpStoreIndexL, A: id.RSlot - 1, Node: l})
			c.pop(1)
		} else {
			c.expr(l.I)
			c.emit(Instr{Op: OpStoreIndex, Node: l})
			c.pop(2)
		}
	default:
		c.bail("assignment to non-lvalue")
	}
	c.pop(1)
}

// lowerUnary compiles unary minus and logical not; ++ and -- used as
// values, like any other unary form, go to the walker.
func (c *compiler) lowerUnary(n *ast.Unary) {
	switch n.Op {
	case token.Minus:
		c.step(1)
		c.expr(n.X)
		c.emit(Instr{Op: OpNeg, Node: n})
	case token.Not:
		c.step(1)
		c.expr(n.X)
		c.emit(Instr{Op: OpNot, Node: n})
	default:
		c.emit(Instr{Op: OpEval, Node: n})
		c.push(1)
	}
}

func (c *compiler) lowerCall(n *ast.Call) {
	c.step(1)
	hasRecv := int32(0)
	if n.Recv != nil {
		c.expr(n.Recv)
		hasRecv = 1
	}
	for _, a := range n.Args {
		c.expr(a)
	}
	c.emit(Instr{Op: OpCall, A: int32(len(n.Args)), B: hasRecv, Node: n})
	c.pop(len(n.Args) + int(hasRecv))
	c.push(1)
}

// CompoundBase maps a compound assignment operator to its base operator —
// the one table of both engines: the compiler lowers a compound
// assignment's operator through it and the walker's evalAssign applies it.
func CompoundBase(op token.Kind) token.Kind {
	switch op {
	case token.PlusEq:
		return token.Plus
	case token.MinusEq:
		return token.Minus
	case token.StarEq:
		return token.Star
	case token.SlashEq:
		return token.Slash
	case token.PercentEq:
		return token.Percent
	case token.AndEq:
		return token.BitAnd
	case token.OrEq:
		return token.BitOr
	case token.XorEq:
		return token.BitXor
	}
	return op
}
