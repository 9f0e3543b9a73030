package interp

import (
	"strconv"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/bytecode"
	"jepo/internal/minijava/token"
)

// This file is the bytecode engine's dispatch loop. The compiler
// (internal/minijava/bytecode) guarantees that executing the instruction
// stream charges the same op counts, and issues the same memory accesses in
// the same order, as tree-walking the same body; every non-trivial operation
// below therefore delegates to the walker's own helpers (selectFrom,
// writeLValue, dispatchCall, ...) so the charges are shared code, not
// transcriptions. Places are read and written through the walker's one
// field and static load and store (loadField, storeField, loadStatic,
// storeStatic), its one element check (element, whose in-bounds lane the
// two element arms inline) and its one kind-checked store conversion
// (assignConv). Arithmetic is binary, negate and increment, charged
// through arithOp, the one kind-and-operator charge table; only the int lanes
// (the binary arm's, the fused int compare-jumps' and the all-int ++/--)
// inline its int row, and TestOperatorTable pins them to it.
//
// The compiled stream is immutable: the VM never writes an instruction, so
// every instance runs the Program's one copy and the disassembly shows
// exactly what runs. Each shape specialises by an inline guard in its one
// arm: two int operands take the binary arm's int lane, an unqualified call
// and a call on an object take the call arm's self and virtual lanes, and an
// object receiver takes the field arm's object lane; every other operand
// goes to the walker's helper. The call and field lanes keep no cache of
// their own: they read the walker's per-instance site cache
// (Interp.siteCache) at the instruction's C operand and refill it on a miss
// through the walker's own resolvers, so both engines resolve a site once
// and through one lookup. Every call enters the callee through invoke.

// liveCell returns the live cell at a compiled slot operand, or nil when the
// declaration has not executed yet (the dialect declares at execution time)
// or the operand is -1 (identifier without a slot).
func liveCell(fr *frame, slot int32) *cell {
	if s := int(slot); uint(s) < uint(len(fr.locals)) {
		if c := &fr.locals[s]; c.live {
			return c
		}
	}
	return nil
}

// intCmp applies an int comparison operator. Callers charge the single
// OpArithInt step themselves, arithOp's charge for an int comparison.
func intCmp(op token.Kind, a, b int64) bool {
	switch op {
	case token.Lt:
		return a < b
	case token.Le:
		return a <= b
	case token.Gt:
		return a > b
	case token.Ge:
		return a >= b
	case token.Eq:
		return a == b
	default: // token.Ne — fused compares carry comparison tokens only
		return a != b
	}
}

// intLaneOp reports whether the binary arm's int lane computes op: only
// operators binary computes on two ints, since the lane inlines that row and
// reads the last operator it admits as >>.
func intLaneOp(op token.Kind) bool {
	switch op {
	case token.Plus, token.Minus, token.Star, token.Slash, token.Percent,
		token.Lt, token.Le, token.Gt, token.Ge, token.Eq, token.Ne,
		token.BitAnd, token.BitOr, token.BitXor, token.Shl, token.Shr:
		return true
	}
	return false
}

// execVM is the dispatch loop. The boolean result reports whether the method
// completed through an explicit return statement (which triggers invoke's
// return-value coercion) as opposed to falling off the end of the body.
//
// Identifier operands are read inline (liveCell + the walker's local charge)
// so the hot path does no interface type assertion; the assertions happen
// only on the slow resolution ladder.
func (in *Interp) execVM(cf *compiledFn, fr *frame, stack []Value) (Value, bool) {
	meter := in.meter
	code, consts := cf.fn.Code, cf.consts
	pc, sp := 0, 0
	for {
		ins := &code[pc]
		if ins.Steps != 0 {
			in.ops += int64(ins.Steps)
			if in.ops >= in.checkAt {
				in.checkpoint()
			}
		}
		switch ins.Op {
		case bytecode.OpLoadLocal:
			if c := liveCell(fr, ins.A); c != nil {
				meter.Step(energy.OpLocal, 1)
				stack[sp] = c.v
			} else {
				stack[sp] = in.evalIdent(fr, ins.Node.(*ast.Ident))
			}
			sp++
		case bytecode.OpConst:
			cv := &consts[ins.A]
			if cv.charge {
				meter.Step(cv.op, 1)
			}
			stack[sp] = cv.v
			sp++
		case bytecode.OpBinary, bytecode.OpBinLL, bytecode.OpBinLC:
			// One arm for the three binary forms, which differ only in where
			// their operands come from. Each operand is fetched with the
			// walker's charge: bin pops two stack slots, bin.ll reads slots A
			// and B, and bin.lc slot A and constant B; a slot that is not
			// live goes through evalIdent. Two int operands under an operator
			// intLaneOp admits then take the int lane, binary's int row with
			// arithOp's charge inlined and hoisted out of the operator
			// switch; every other pair goes to binary. Operands are read in
			// place, so the int lane copies no Value, and the arm keeps no
			// temporary Value of its own: an address-taken one grew execVM's
			// frame, and that alone moved BenchmarkInterpStaticAndBuiltin by
			// 15% (EXPERIMENTS.md, "Immutable bytecode").
			var x, y *Value
			if ins.Op == bytecode.OpBinary {
				sp -= 2
				x, y = &stack[sp], &stack[sp+1]
			} else {
				if c := liveCell(fr, ins.A); c != nil {
					meter.Step(energy.OpLocal, 1)
					x = &c.v
				} else {
					// The result slot holds the operand until the result
					// replaces it.
					stack[sp] = in.evalIdent(fr, ins.Node.(*ast.Binary).X.(*ast.Ident))
					x = &stack[sp]
				}
				if ins.Op == bytecode.OpBinLC {
					cv := &consts[ins.B]
					if cv.charge {
						meter.Step(cv.op, 1)
					}
					y = &cv.v
				} else if c := liveCell(fr, ins.B); c != nil {
					meter.Step(energy.OpLocal, 1)
					y = &c.v
				} else {
					yv := in.evalIdent(fr, ins.Node.(*ast.Binary).Y.(*ast.Ident))
					stack[sp] = in.binary(ins.Tok, *x, yv, ins.Node.NodePos())
					sp++
					break
				}
			}
			if x.K != KInt || y.K != KInt || !intLaneOp(ins.Tok) {
				stack[sp] = in.binary(ins.Tok, *x, *y, ins.Node.NodePos())
				sp++
				break
			}
			a, b := x.I, y.I
			var v Value
			switch ins.Tok {
			case token.Slash, token.Percent:
				// Division cost before the zero check, like binary.
				if ins.Tok == token.Slash {
					meter.Step(energy.OpDivInt, 1)
				} else {
					meter.Step(energy.OpModInt, 1)
				}
				if b == 0 {
					in.throw("ArithmeticException", "/ by zero")
				}
				if ins.Tok == token.Slash {
					v = IntVal(a / b)
				} else {
					v = IntVal(a % b)
				}
			default:
				meter.Step(energy.OpArithInt, 1)
				switch ins.Tok {
				case token.Plus:
					v = IntVal(a + b)
				case token.Minus:
					v = IntVal(a - b)
				case token.Star:
					v = IntVal(a * b)
				case token.Lt:
					v = BoolVal(a < b)
				case token.Le:
					v = BoolVal(a <= b)
				case token.Gt:
					v = BoolVal(a > b)
				case token.Ge:
					v = BoolVal(a >= b)
				case token.Eq:
					v = BoolVal(a == b)
				case token.Ne:
					v = BoolVal(a != b)
				case token.BitAnd:
					v = IntVal(a & b)
				case token.BitOr:
					v = IntVal(a | b)
				case token.BitXor:
					v = IntVal(a ^ b)
				case token.Shl:
					v = IntVal(a << (b & 31))
				default: // token.Shr — intLaneOp admits nothing else
					v = IntVal(a >> (b & 31))
				}
			}
			stack[sp] = v
			sp++
		case bytecode.OpJmp:
			pc += int(ins.A)
			continue
		case bytecode.OpJmpBranch:
			meter.Step(energy.OpBranch, 1)
			pc += int(ins.A)
			continue
		case bytecode.OpJmpCmpLLFalse, bytecode.OpJmpCmpLLTrue:
			// Fused OpBinLL + conditional jump: identical charge sequence,
			// and a comparison always yields a normalised boolean, so the
			// jump's unbox/type checks are unreachable.
			var x, y Value
			if c := liveCell(fr, ins.C); c != nil {
				meter.Step(energy.OpLocal, 1)
				x = c.v
			} else {
				x = in.evalIdent(fr, ins.Node.(*ast.Binary).X.(*ast.Ident))
			}
			if c := liveCell(fr, ins.B); c != nil {
				meter.Step(energy.OpLocal, 1)
				y = c.v
			} else {
				y = in.evalIdent(fr, ins.Node.(*ast.Binary).Y.(*ast.Ident))
			}
			var take bool
			if x.K == KInt && y.K == KInt {
				meter.Step(energy.OpArithInt, 1)
				take = intCmp(ins.Tok, x.I, y.I)
			} else {
				take = in.binary(ins.Tok, x, y, ins.Node.NodePos()).I != 0
			}
			if take == (ins.Op == bytecode.OpJmpCmpLLTrue) {
				pc += int(ins.A)
				continue
			}
		case bytecode.OpJmpCmpLCFalse, bytecode.OpJmpCmpLCTrue:
			var x Value
			if c := liveCell(fr, ins.C); c != nil {
				meter.Step(energy.OpLocal, 1)
				x = c.v
			} else {
				x = in.evalIdent(fr, ins.Node.(*ast.Binary).X.(*ast.Ident))
			}
			cv := &consts[ins.B]
			if cv.charge {
				meter.Step(cv.op, 1)
			}
			var take bool
			if x.K == KInt && cv.v.K == KInt {
				meter.Step(energy.OpArithInt, 1)
				take = intCmp(ins.Tok, x.I, cv.v.I)
			} else {
				take = in.binary(ins.Tok, x, cv.v, ins.Node.NodePos()).I != 0
			}
			if take == (ins.Op == bytecode.OpJmpCmpLCTrue) {
				pc += int(ins.A)
				continue
			}
		case bytecode.OpJmpCmpFalse, bytecode.OpJmpCmpTrue:
			y := stack[sp-1]
			x := stack[sp-2]
			sp -= 2
			var take bool
			if x.K == KInt && y.K == KInt {
				meter.Step(energy.OpArithInt, 1)
				take = intCmp(ins.Tok, x.I, y.I)
			} else {
				take = in.binary(ins.Tok, x, y, ins.Node.NodePos()).I != 0
			}
			if take == (ins.Op == bytecode.OpJmpCmpTrue) {
				pc += int(ins.A)
				continue
			}
		case bytecode.OpJmpFalse:
			v := stack[sp-1]
			sp--
			if v.K == KBox {
				v = in.unbox(v, ins.Node.NodePos())
			}
			if v.K != KBool {
				in.bugf(ins.Node.NodePos(), "condition is %v, not boolean", v.K)
			}
			if v.I == 0 {
				pc += int(ins.A)
				continue
			}
		case bytecode.OpJmpTrue:
			v := stack[sp-1]
			sp--
			if v.K == KBox {
				v = in.unbox(v, ins.Node.NodePos())
			}
			if v.K != KBool {
				in.bugf(ins.Node.NodePos(), "condition is %v, not boolean", v.K)
			}
			if v.I != 0 {
				pc += int(ins.A)
				continue
			}
		case bytecode.OpStoreLocal:
			sp--
			id := ins.Node.(*ast.Ident)
			if c := liveCell(fr, ins.A); c != nil {
				meter.Step(energy.OpLocal, 1)
				in.assignConv(&stack[sp], c.k, &c.t, id.Pos)
				c.v = stack[sp]
			} else {
				in.writeLValue(fr, id, &stack[sp])
			}
		case bytecode.OpIncLocal:
			n := ins.Node.(*ast.Unary)
			if c := liveCell(fr, ins.A); c != nil && c.v.K == KInt && c.k == KInt {
				// All-int ++/--: same charge sequence and 32-bit wrap as the
				// general arm below (step, local read, int arithmetic, local
				// write), but the cell store touches only the scalar word —
				// an int cell's reference word is nil and stays nil, so
				// skipping it skips the write barrier.
				in.step()
				meter.Step(energy.OpLocal, 1)
				meter.Step(energy.OpArithInt, 1)
				meter.Step(energy.OpLocal, 1)
				c.v.I = int64(int32(c.v.I) + ins.B)
			} else if c != nil {
				// Inline ++/--: the walker's readLValue step+charge, unbox,
				// increment, and writeLValue live-slot store.
				in.step()
				meter.Step(energy.OpLocal, 1)
				old := c.v
				if old.K == KBox {
					old = in.unbox(old, n.Pos)
				}
				updated := in.increment(old, n)
				meter.Step(energy.OpLocal, 1)
				in.assignConv(&updated, c.k, &c.t, n.X.(*ast.Ident).Pos)
				c.v = updated
			} else {
				in.evalUnary(fr, n)
			}
		case bytecode.OpCall:
			// An unqualified call (B == 0) takes the self lane, cached on the
			// frame's dynamic class, and a call on a user object the virtual
			// lane, cached on its class — the keys and entries dispatchCall
			// uses. Every other receiver dispatches on the walker's path.
			// Arguments pass as a window of the operand stack: the callee
			// reads them before anything can overwrite the window.
			argc := int(ins.A)
			if ins.B == 0 {
				n := ins.Node.(*ast.Call)
				sc := &in.siteCache[ins.C]
				if sc.class != fr.class {
					in.resolveSelf(sc, fr.class, n, argc)
				}
				ci, this := in.selfReceiver(fr, n, sc.m)
				sp -= argc
				stack[sp] = in.invoke(ci, this, sc.m, stack[sp:sp+argc])
				sp++
				break
			}
			recv := stack[sp-1-argc]
			if recv.K == KRef {
				obj := recv.R.(*Object)
				sc := &in.siteCache[ins.C]
				if sc.class != obj.Class {
					in.resolveVirtual(sc, obj.Class, ins.Node.(*ast.Call), argc)
				}
				sp -= argc + 1
				stack[sp] = in.invoke(obj.Class, obj, sc.m, stack[sp+1:sp+1+argc])
				sp++
				break
			}
			sp -= argc + 1
			stack[sp] = in.dispatchCall(fr, ins.Node.(*ast.Call), recv, true, stack[sp+1:sp+1+argc])
			sp++
		case bytecode.OpLoadIndex, bytecode.OpLoadIndexL:
			// aload pops its index; aload.l, the dominant a[i] shape, reads
			// it from slot A and charges the read exactly where the
			// stand-alone load instruction would have. The Node assertion
			// is deferred into the fallbacks so the hot lane does no
			// interface work.
			var iv Value
			if ins.Op == bytecode.OpLoadIndex {
				sp--
				iv = stack[sp]
			} else if c := liveCell(fr, ins.A); c != nil {
				meter.Step(energy.OpLocal, 1)
				iv = c.v
			} else {
				iv = in.evalIdent(fr, ins.Node.(*ast.Index).I.(*ast.Ident))
			}
			arr, idx, ok := inBounds(&stack[sp-1], &iv)
			if ok {
				meter.ArrayAccess(arr.addr(idx), arr.ES)
			} else {
				arr, idx = in.element(stack[sp-1], iv, ins.Node.(*ast.Index))
			}
			if arr.Kind == KInt {
				stack[sp-1] = Value{K: KInt, I: arr.I[idx]}
			} else {
				stack[sp-1] = arr.get(idx)
			}
		case bytecode.OpStoreIndex, bytecode.OpStoreIndexL:
			// The element store: the same index operands and element check
			// as the load arm above, then the kind-checked store.
			var iv Value
			if ins.Op == bytecode.OpStoreIndex {
				sp--
				iv = stack[sp]
			} else if c := liveCell(fr, ins.A); c != nil {
				meter.Step(energy.OpLocal, 1)
				iv = c.v
			} else {
				iv = in.evalIdent(fr, ins.Node.(*ast.Index).I.(*ast.Ident))
			}
			sp -= 2
			n := ins.Node.(*ast.Index)
			arr, idx, ok := inBounds(&stack[sp+1], &iv)
			if ok {
				meter.ArrayAccess(arr.addr(idx), arr.ES)
			} else {
				arr, idx = in.element(stack[sp+1], iv, n)
			}
			in.assignConv(&stack[sp], arr.Kind, &arr.Elem, n.Pos)
			arr.set(idx, stack[sp])
		case bytecode.OpLoadSelect:
			// An object receiver takes the object lane, its field slot cached
			// on the receiver's class; every other receiver goes to
			// selectFrom.
			x := stack[sp-1]
			if x.K != KRef {
				stack[sp-1] = in.selectFrom(x, ins.Node.(*ast.Select))
				break
			}
			obj := x.R.(*Object)
			sc := &in.siteCache[ins.C]
			if sc.class != obj.Class {
				in.resolveField(sc, obj.Class, ins.Node.(*ast.Select))
			}
			stack[sp-1] = *in.loadField(obj, int(sc.ix))
		case bytecode.OpStoreSelect:
			// The receiver expression is evaluated inside writeLValue, after
			// the RHS — the walker's assignment order.
			sp--
			in.writeLValue(fr, ins.Node.(*ast.Select), &stack[sp])
		case bytecode.OpStoreIdent:
			sp--
			in.writeLValue(fr, ins.Node.(*ast.Ident), &stack[sp])
		case bytecode.OpLoadIdent:
			stack[sp] = in.evalIdent(fr, ins.Node.(*ast.Ident))
			sp++
		case bytecode.OpQPushV:
			if ix := int(ins.A); ix < len(in.prog.classRefs) {
				stack[sp] = in.prog.classRefs[ix]
				sp++
				break
			}
			stack[sp] = in.evalIdent(fr, ins.Node.(*ast.Ident))
			sp++
		case bytecode.OpQLoadStatic:
			if ix := int(ins.A); ix < len(in.prog.statRefs) {
				stack[sp] = *in.loadStatic(in.prog.statRefs[ix])
			} else {
				stack[sp] = in.evalIdent(fr, ins.Node.(*ast.Ident))
			}
			sp++
		case bytecode.OpQStoreStatic:
			sp--
			if ix := int(ins.A); ix < len(in.prog.statRefs) {
				in.storeStatic(in.prog.statRefs[ix], &stack[sp], ins.Node.(*ast.Ident).Pos)
			} else {
				in.writeLValue(fr, ins.Node.(*ast.Ident), &stack[sp])
			}
		case bytecode.OpLoadThis:
			if fr.this == nil {
				in.bugf(ins.Node.NodePos(), "this in static context")
			}
			stack[sp] = Value{K: KRef, R: fr.this}
			sp++
		case bytecode.OpEval:
			stack[sp] = in.operand(fr, ins.Node.(ast.Expr))
			sp++
		case bytecode.OpLocalDecl:
			n := ins.Node.(*ast.LocalVar)
			c := &fr.locals[ins.A]
			if ins.B != 0 {
				c.v = in.evalInit(fr, n.Init, n.Type)
			} else {
				sp--
				c.v = stack[sp]
			}
			c.t, c.k, c.live = n.Type, kindOfType(n.Type), true
			in.assignConv(&c.v, c.k, &c.t, n.Pos)
			meter.Step(energy.OpLocal, 1)
		case bytecode.OpLocalZero:
			n := ins.Node.(*ast.LocalVar)
			fr.locals[ins.A] = cell{t: n.Type, k: kindOfType(n.Type), v: zeroValue(n.Type), live: true}
			meter.Step(energy.OpLocal, 1)
		case bytecode.OpNeg:
			stack[sp-1] = in.negate(stack[sp-1], ins.Node.(*ast.Unary))
		case bytecode.OpNot:
			n := ins.Node.(*ast.Unary)
			v := stack[sp-1]
			if v.K == KBox {
				v = in.unbox(v, n.Pos)
			}
			if v.K != KBool {
				in.bugf(n.Pos, "unary ! on %v", v.K)
			}
			meter.Step(energy.OpArithInt, 1)
			stack[sp-1] = BoolVal(v.I == 0)
		case bytecode.OpToBool:
			v := stack[sp-1]
			if v.K == KBox {
				v = in.unbox(v, ins.Node.NodePos())
			}
			if v.K != KBool {
				in.bugf(ins.Node.NodePos(), "condition is %v, not boolean", v.K)
			}
			stack[sp-1] = BoolVal(v.I != 0)
		case bytecode.OpPushBool:
			stack[sp] = BoolVal(ins.A != 0)
			sp++
		case bytecode.OpPop:
			sp--
		case bytecode.OpCharge:
			meter.Step(energy.Op(ins.A), int(ins.B))
		case bytecode.OpStep, bytecode.OpNop:
			// Steps were accounted above.
		case bytecode.OpNew:
			argc := int(ins.A)
			sp -= argc
			stack[sp] = in.newDispatch(ins.Node.(*ast.New), stack[sp:sp+argc])
			sp++
		case bytecode.OpLenCheck:
			n := ins.Node.(*ast.NewArray)
			lv := stack[sp-1]
			if lv.K == KBox {
				lv = in.unbox(lv, n.Pos)
			}
			if !lv.K.IsIntegral() {
				in.bugf(n.Pos, "array length is %v, not integral", lv.K)
			}
			if lv.I < 0 {
				in.throw("NegativeArraySizeException", strconv.FormatInt(lv.I, 10))
			}
			stack[sp-1] = lv
		case bytecode.OpNewArray:
			n := ins.Node.(*ast.NewArray)
			nd := int(ins.A)
			var buf [8]int
			lens := buf[:0]
			if nd > len(buf) {
				lens = make([]int, 0, nd)
			}
			for i := 0; i < nd; i++ {
				lens = append(lens, int(stack[sp-nd+i].I))
			}
			sp -= nd
			stack[sp] = in.newArray(n.Elem, lens)
			sp++
		case bytecode.OpCast:
			stack[sp-1] = in.castValue(stack[sp-1], ins.Node.(*ast.Cast))
		case bytecode.OpInstanceOf:
			n := ins.Node.(*ast.InstanceOf)
			v := stack[sp-1]
			meter.Step(energy.OpArithInt, 1)
			stack[sp-1] = BoolVal(in.valueInstanceOf(v, n.Name))
		case bytecode.OpThrow:
			n := ins.Node.(*ast.Throw)
			v := stack[sp-1]
			sp--
			if v.K != KThrow {
				in.bugf(n.Pos, "throw of non-throwable %v", v.K)
			}
			meter.Step(energy.OpThrow, 1)
			panic(javaPanic{v.R.(*Throwable)})
		case bytecode.OpSwitchTag:
			if stack[sp-1].K == KBox {
				stack[sp-1] = in.unbox(stack[sp-1], ins.Node.NodePos())
			}
		case bytecode.OpCaseCmp:
			n := ins.Node.(*ast.Switch)
			v := stack[sp-1]
			sp--
			meter.Step(energy.OpBranch, 1)
			if in.switchMatches(stack[sp-1], v, n.Pos) {
				sp-- // pop the tag; jump to the matched arm
				pc += int(ins.A)
				continue
			}
		case bytecode.OpSwitchEnd:
			sp--
			pc += int(ins.A)
			continue
		case bytecode.OpRet:
			return stack[sp-1], true
		case bytecode.OpRetVoid:
			return Value{}, ins.B != 0
		default:
			panic(bugPanic{"vm: unknown opcode " + ins.Op.String()})
		}
		pc++
	}
}
