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
// writeLValue, dispatchCall, coerceTo, ...) so the charges are shared code,
// not transcriptions.
//
// The VM adds two mechanisms on top, both charge-transparent:
//
//   - Runtime quickening: generic handlers patch their instruction (in this
//     instance's private code copy only) into a specialized form after first
//     execution. Every quick handler re-checks its guard and deopts by
//     flipping the opcode back and re-entering the dispatch switch via the
//     `dispatch` label — without re-counting the instruction's steps.
//   - Monomorphic inline caches (vmIC) pin resolved methods, field offsets
//     and static slots per site; a guard miss re-resolves through the same
//     lookups the generic path uses, so behaviour is identical.

// invokeVM runs a compiled method. It mirrors invoke exactly: the call
// charge, parameter coercion into pooled frame slots, the probe hook's
// events for a labelled method, and return-value coercion only for an
// explicit return in a non-void method.
func (in *Interp) invokeVM(ci *classInfo, this *Object, m *ast.Method, cf *compiledFn, args []Value) Value {
	fn := cf.fn
	in.enterCall()
	in.meter.Step(energy.OpCall, 1)
	w := in.warmFor(cf)
	code, ics := w.code, w.ics
	fr := frame{class: ci, this: this, locals: in.grabLocals(fn.NSlots)}
	stack := in.grabStack(fn.MaxStack)
	defer func() {
		in.calls--
		in.releaseLocals(fr.locals)
		in.releaseStack(stack)
	}()
	for i := range m.Params {
		p := &m.Params[i]
		pk := kindOfType(p.Type)
		av := args[i]
		if av.K != pk {
			av = in.coerceTo(av, p.Type, m.Pos)
		}
		fr.locals[i] = cell{t: p.Type, k: pk, v: av, live: true}
	}
	var ret Value
	var explicit bool
	if m.Probe != "" && in.hook != nil {
		in.probed(m.Probe, func() { ret, explicit = in.execVM(cf, code, ics, &fr, stack) })
	} else {
		ret, explicit = in.execVM(cf, code, ics, &fr, stack)
	}
	if explicit {
		if m.Ret.Kind != ast.Void || m.Ret.Dims > 0 {
			return in.coerceTo(ret, m.Ret, m.Pos)
		}
	}
	return Value{K: KVoid}
}

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
// OpArithInt step themselves (the charge vmIntFast's comparison lanes issue).
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

// vmIntFast applies an int,int binary operator, charging exactly what
// binaryFast's KInt lane charges. It exists so the dispatch loop's binary
// handlers pass two scalars instead of copying two full Values into a call;
// operators it skips (division, shifts, bitwise) fall through to binaryFast.
func vmIntFast(in *Interp, op token.Kind, a, b int64) (Value, bool) {
	switch op {
	case token.Plus:
		in.meter.Step(energy.OpArithInt, 1)
		return IntVal(a + b), true
	case token.Minus:
		in.meter.Step(energy.OpArithInt, 1)
		return IntVal(a - b), true
	case token.Star:
		in.meter.Step(energy.OpArithInt, 1)
		return IntVal(a * b), true
	case token.Lt:
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(a < b), true
	case token.Le:
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(a <= b), true
	case token.Gt:
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(a > b), true
	case token.Ge:
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(a >= b), true
	case token.Eq:
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(a == b), true
	case token.Ne:
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(a != b), true
	}
	return Value{}, false
}

// intLaneOp reports whether the int-specialized quick handlers implement op.
// It must cover exactly the operator set of binaryFast's KInt lane (which the
// handlers inline), so an installed OpQBinInt* can never meet an operator it
// has no lane for.
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
// code is this instance's private warm copy of the finalized stream, with
// ics its inline-cache table, so handlers patch opcodes without ever writing
// the shared Program.
//
// Identifier operands are read inline (liveCell + the walker's local charge)
// so the hot path does no interface type assertion; the assertions happen
// only on the slow resolution ladder.
func (in *Interp) execVM(cf *compiledFn, code []bytecode.Instr, ics []vmIC, fr *frame, stack []Value) (Value, bool) {
	meter := in.meter
	consts := cf.consts
	pc, sp := 0, 0
	for {
		ins := &code[pc]
		if ins.Steps != 0 {
			in.ops += int64(ins.Steps)
			if in.ops >= in.checkAt {
				in.checkpoint()
			}
		}
	dispatch:
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
		case bytecode.OpQBinIntLL, bytecode.OpQBinIntLC, bytecode.OpQBinInt:
			// One arm for all three int-specialized binary forms; they only
			// differ in where the operands come from. The charge sequence is
			// operand charges (locals/consts as the generic forms issue
			// them), then exactly one arithmetic charge — binaryFast's KInt
			// lane with the Step hoisted out of the operator switch.
			var a, b int64
			if ins.Op == bytecode.OpQBinInt {
				y := stack[sp-1]
				x := stack[sp-2]
				if x.K != KInt || y.K != KInt {
					ins.Op = bytecode.OpBinary
					goto dispatch
				}
				sp -= 2
				a, b = x.I, y.I
			} else {
				ca := liveCell(fr, ins.A)
				if ca == nil || ca.v.K != KInt {
					if ins.Op == bytecode.OpQBinIntLL {
						ins.Op = bytecode.OpBinLL
					} else {
						ins.Op = bytecode.OpBinLC
					}
					goto dispatch
				}
				if ins.Op == bytecode.OpQBinIntLC {
					cv := &consts[ins.B]
					meter.Step(energy.OpLocal, 1)
					if cv.charge {
						meter.Step(cv.op, 1)
					}
					b = cv.v.I
				} else {
					cb := liveCell(fr, ins.B)
					if cb == nil || cb.v.K != KInt {
						ins.Op = bytecode.OpBinLL
						goto dispatch
					}
					meter.Step(energy.OpLocal, 1)
					meter.Step(energy.OpLocal, 1)
					b = cb.v.I
				}
				a = ca.v.I
			}
			var v Value
			switch ins.Tok {
			case token.Slash, token.Percent:
				// Division cost before the zero check, like binaryFast.
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
					v = IntVal(a << uint(b&63))
				default: // token.Shr — intLaneOp admits nothing else
					v = IntVal(a >> uint(b&63))
				}
			}
			stack[sp] = v
			sp++
		case bytecode.OpBinLL:
			if intLaneOp(ins.Tok) {
				if ca := liveCell(fr, ins.A); ca != nil && ca.v.K == KInt {
					if cb := liveCell(fr, ins.B); cb != nil && cb.v.K == KInt {
						ins.Op = bytecode.OpQBinIntLL
						goto dispatch
					}
				}
			}
			var x, y Value
			if c := liveCell(fr, ins.A); c != nil {
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
			if x.K == KInt && y.K == KInt {
				if v, ok := vmIntFast(in, ins.Tok, x.I, y.I); ok {
					stack[sp] = v
					sp++
					break
				}
			}
			v, ok := in.binaryFast(ins.Tok, x, y)
			if !ok {
				v = in.binary(ins.Tok, x, y, ins.Node.NodePos())
			}
			stack[sp] = v
			sp++
		case bytecode.OpBinLC:
			if intLaneOp(ins.Tok) && consts[ins.B].v.K == KInt {
				if ca := liveCell(fr, ins.A); ca != nil && ca.v.K == KInt {
					ins.Op = bytecode.OpQBinIntLC
					goto dispatch
				}
			}
			var x Value
			if c := liveCell(fr, ins.A); c != nil {
				meter.Step(energy.OpLocal, 1)
				x = c.v
			} else {
				x = in.evalIdent(fr, ins.Node.(*ast.Binary).X.(*ast.Ident))
			}
			cv := &consts[ins.B]
			if cv.charge {
				meter.Step(cv.op, 1)
			}
			if x.K == KInt && cv.v.K == KInt {
				if v, ok := vmIntFast(in, ins.Tok, x.I, cv.v.I); ok {
					stack[sp] = v
					sp++
					break
				}
			}
			v, ok := in.binaryFast(ins.Tok, x, cv.v)
			if !ok {
				v = in.binary(ins.Tok, x, cv.v, ins.Node.NodePos())
			}
			stack[sp] = v
			sp++
		case bytecode.OpBinary:
			y := stack[sp-1]
			x := stack[sp-2]
			if x.K == KInt && y.K == KInt && intLaneOp(ins.Tok) {
				ins.Op = bytecode.OpQBinInt
				goto dispatch
			}
			sp--
			v, ok := in.binaryFast(ins.Tok, x, y)
			if !ok {
				v = in.binary(ins.Tok, x, y, ins.Node.NodePos())
			}
			stack[sp-1] = v
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
				v, ok := in.binaryFast(ins.Tok, x, y)
				if !ok {
					v = in.binary(ins.Tok, x, y, ins.Node.NodePos())
				}
				take = v.I != 0
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
				v, ok := in.binaryFast(ins.Tok, x, cv.v)
				if !ok {
					v = in.binary(ins.Tok, x, cv.v, ins.Node.NodePos())
				}
				take = v.I != 0
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
				v, ok := in.binaryFast(ins.Tok, x, y)
				if !ok {
					v = in.binary(ins.Tok, x, y, ins.Node.NodePos())
				}
				take = v.I != 0
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
		case bytecode.OpStoreLocal, bytecode.OpStoreLocalX:
			rhs := stack[sp-1]
			id := ins.Node.(*ast.Ident)
			if c := liveCell(fr, ins.A); c != nil {
				meter.Step(energy.OpLocal, 1)
				if rhs.K == c.k {
					c.v = rhs
				} else {
					c.v = in.coerceTo(rhs, c.t, id.Pos)
				}
			} else {
				in.writeLValue(fr, id, rhs)
			}
			if ins.Op == bytecode.OpStoreLocal {
				sp--
			}
		case bytecode.OpIncLocal, bytecode.OpIncLocalX:
			n := ins.Node.(*ast.Unary)
			var res Value
			if c := liveCell(fr, ins.A); c != nil && c.v.K == KInt && c.k == KInt {
				// All-int ++/--: same charge sequence as the general arm
				// below (step, local read, int arithmetic, local write), but
				// the cell store touches only the scalar word — an int cell's
				// reference word is nil and stays nil, so skipping it skips
				// the write barrier.
				in.step()
				meter.Step(energy.OpLocal, 1)
				old := c.v.I
				meter.Step(energy.OpArithInt, 1)
				upd := old + int64(ins.B)
				meter.Step(energy.OpLocal, 1)
				c.v.I = upd
				if n.Postfix {
					res = Value{K: KInt, I: old}
				} else {
					res = Value{K: KInt, I: upd}
				}
			} else if c != nil {
				// Inline ++/--: the walker's readLValue step+charge, unbox,
				// arithmetic charge, and writeLValue live-slot store.
				in.step()
				meter.Step(energy.OpLocal, 1)
				old := c.v
				if old.K == KBox {
					old = in.unbox(old, n.Pos)
				}
				delta := int64(ins.B)
				var updated Value
				switch old.K {
				case KInt:
					meter.Step(energy.OpArithInt, 1)
					updated = Value{K: KInt, I: old.I + delta}
				case KFloat:
					in.chargeArith(KFloat, token.Plus)
					updated = FloatVal(old.D + float64(delta))
				case KDouble:
					in.chargeArith(KDouble, token.Plus)
					updated = DoubleVal(old.D + float64(delta))
				case KLong:
					in.chargeArith(KLong, token.Plus)
					updated = LongVal(old.I + delta)
				case KShort, KByte, KChar:
					in.chargeArith(old.K, token.Plus)
					updated = Value{K: old.K, I: old.I + delta}
				default:
					in.bugf(n.Pos, "%v on %v", n.Op, old.K)
				}
				meter.Step(energy.OpLocal, 1)
				if updated.K == c.k {
					c.v = updated
				} else {
					c.v = in.coerceTo(updated, c.t, n.X.(*ast.Ident).Pos)
				}
				if n.Postfix {
					res = old
				} else {
					res = updated
				}
			} else {
				res = in.evalUnary(fr, n)
			}
			if ins.Op == bytecode.OpIncLocalX {
				stack[sp] = res
				sp++
			}
		case bytecode.OpCall:
			n := ins.Node.(*ast.Call)
			argc := int(ins.A)
			// Quicken on the observed shape; the quick handler performs this
			// very execution (installation charges nothing).
			var recv Value
			if ins.B != 0 {
				recv = stack[sp-1-argc]
			}
			if in.quickenCall(ins, ics, fr, recv) {
				goto dispatch
			}
			args := in.grabArgs(argc)
			copy(args, stack[sp-argc:sp])
			sp -= argc
			hasRecv := ins.B != 0
			if hasRecv {
				sp--
			}
			stack[sp] = in.dispatchCall(fr, n, recv, hasRecv, args)
			sp++
		case bytecode.OpQCallSelf:
			// Unqualified call, cache keyed on the frame's dynamic class —
			// the same key dispatchCall's site cache uses. The argument
			// window is passed as a stack slice: the callee copies its
			// parameters into frame slots before executing, so the window is
			// dead by the time anything can overwrite it.
			n := ins.Node.(*ast.Call)
			argc := int(ins.A)
			ic := &ics[ins.C]
			if ic.class != fr.class {
				in.icMissSelf(ic, fr, n, argc)
			}
			argv := stack[sp-argc : sp]
			sp -= argc
			var v Value
			if ic.static {
				v = in.icInvoke(ic, fr.class, nil, argv)
			} else {
				if fr.this == nil {
					in.bugf(n.Pos, "instance method %s called from static context", n.Name)
				}
				v = in.icInvoke(ic, fr.this.Class, fr.this, argv)
			}
			stack[sp] = v
			sp++
		case bytecode.OpQCallVirtual:
			argc := int(ins.A)
			recv := stack[sp-1-argc]
			if recv.K != KRef {
				ins.Op = bytecode.OpCall
				goto dispatch
			}
			obj := recv.R.(*Object)
			ic := &ics[ins.C]
			if ic.class != obj.Class {
				in.icMissVirtual(ic, obj, ins.Node.(*ast.Call), argc)
			}
			argv := stack[sp-argc : sp]
			sp -= argc + 1
			stack[sp] = in.icInvoke(ic, obj.Class, obj, argv)
			sp++
		case bytecode.OpQCallStatic:
			argc := int(ins.A)
			recv := stack[sp-1-argc]
			ic := &ics[ins.C]
			if recv.K != KClassRef || recv.R.(string) != ic.cls {
				ins.Op = bytecode.OpCall
				goto dispatch
			}
			argv := stack[sp-argc : sp]
			sp -= argc + 1
			stack[sp] = in.icInvoke(ic, ic.class, nil, argv)
			sp++
		case bytecode.OpQCallBuiltin:
			argc := int(ins.A)
			recv := stack[sp-1-argc]
			ic := &ics[ins.C]
			if recv.K != KClassRef || recv.R.(string) != ic.cls {
				ins.Op = bytecode.OpCall
				goto dispatch
			}
			argv := stack[sp-argc : sp]
			sp -= argc + 1
			stack[sp] = in.callQBuiltinStatic(ic.cls, ins.Node.(*ast.Call), argv)
			sp++
		case bytecode.OpQCallInstance:
			argc := int(ins.A)
			recv := stack[sp-1-argc]
			if recv.K == KRef || recv.K == KClassRef || recv.K == KNull {
				ins.Op = bytecode.OpCall
				goto dispatch
			}
			argv := stack[sp-argc : sp]
			sp -= argc + 1
			stack[sp] = in.callQBuiltinInstance(recv, ins.Node.(*ast.Call), argv)
			sp++
		case bytecode.OpLoadIndex:
			iv := stack[sp-1]
			xv := stack[sp-2]
			sp--
			var arr *Array
			var idx int
			if xv.K == KArr && iv.K == KInt {
				// In-bounds int index on an array: skip the generic ladder
				// (which charges nothing up to this point, so parity holds).
				arr = xv.R.(*Array)
				if idx = int(iv.I); uint(idx) >= uint(arr.Len()) {
					arr, idx = in.indexCheck(xv, iv, ins.Node.(*ast.Index))
				}
			} else {
				arr, idx = in.indexCheck(xv, iv, ins.Node.(*ast.Index))
			}
			meter.ArrayAccess(arr.addr(idx), arr.ES)
			if arr.Kind == KInt {
				stack[sp-1] = Value{K: KInt, I: arr.I[idx]}
			} else {
				stack[sp-1] = arr.get(idx)
			}
		case bytecode.OpLoadIndexL:
			// Fused a[i] with a local index: the index read is charged
			// exactly where the stand-alone load instruction would have.
			// The Node assertion is deferred into the resolution fallbacks
			// so the hot lane does no interface work.
			var iv Value
			if c := liveCell(fr, ins.A); c != nil {
				meter.Step(energy.OpLocal, 1)
				iv = c.v
			} else {
				iv = in.evalIdent(fr, ins.Node.(*ast.Index).I.(*ast.Ident))
			}
			xv := stack[sp-1]
			var arr *Array
			var idx int
			if xv.K == KArr && iv.K == KInt {
				arr = xv.R.(*Array)
				if idx = int(iv.I); uint(idx) >= uint(arr.Len()) {
					arr, idx = in.indexCheck(xv, iv, ins.Node.(*ast.Index))
				}
			} else {
				arr, idx = in.indexCheck(xv, iv, ins.Node.(*ast.Index))
			}
			meter.ArrayAccess(arr.addr(idx), arr.ES)
			if arr.Kind == KInt {
				stack[sp-1] = Value{K: KInt, I: arr.I[idx]}
			} else {
				stack[sp-1] = arr.get(idx)
			}
		case bytecode.OpStoreIndexL, bytecode.OpStoreIndexLX:
			var iv Value
			if c := liveCell(fr, ins.A); c != nil {
				meter.Step(energy.OpLocal, 1)
				iv = c.v
			} else {
				iv = in.evalIdent(fr, ins.Node.(*ast.Index).I.(*ast.Ident))
			}
			xv := stack[sp-1]
			rhs := stack[sp-2]
			sp -= 2
			var arr *Array
			var idx int
			if xv.K == KArr && iv.K == KInt {
				arr = xv.R.(*Array)
				if idx = int(iv.I); uint(idx) >= uint(arr.Len()) {
					arr, idx = in.indexCheck(xv, iv, ins.Node.(*ast.Index))
				}
			} else {
				arr, idx = in.indexCheck(xv, iv, ins.Node.(*ast.Index))
			}
			meter.ArrayAccess(arr.addr(idx), arr.ES)
			// Matching kinds store as-is — coerceTo's identity lane, with the
			// call skipped (the walker's field stores use the same pattern).
			if rhs.K == arr.Kind {
				arr.set(idx, rhs)
			} else {
				arr.set(idx, in.coerceTo(rhs, arr.Elem, ins.Node.NodePos()))
			}
			if ins.Op == bytecode.OpStoreIndexLX {
				stack[sp] = rhs
				sp++
			}
		case bytecode.OpStoreIndex, bytecode.OpStoreIndexX:
			iv := stack[sp-1]
			xv := stack[sp-2]
			rhs := stack[sp-3]
			sp -= 3
			var arr *Array
			var idx int
			if xv.K == KArr && iv.K == KInt {
				arr = xv.R.(*Array)
				if idx = int(iv.I); uint(idx) >= uint(arr.Len()) {
					arr, idx = in.indexCheck(xv, iv, ins.Node.(*ast.Index))
				}
			} else {
				arr, idx = in.indexCheck(xv, iv, ins.Node.(*ast.Index))
			}
			meter.ArrayAccess(arr.addr(idx), arr.ES)
			if rhs.K == arr.Kind {
				arr.set(idx, rhs)
			} else {
				arr.set(idx, in.coerceTo(rhs, arr.Elem, ins.Node.NodePos()))
			}
			if ins.Op == bytecode.OpStoreIndexX {
				stack[sp] = rhs
				sp++
			}
		case bytecode.OpLoadSelect:
			if in.quickenSelect(ins, ics, stack[sp-1]) {
				goto dispatch
			}
			stack[sp-1] = in.selectFrom(stack[sp-1], ins.Node.(*ast.Select))
		case bytecode.OpQGetField:
			x := stack[sp-1]
			if x.K != KRef {
				ins.Op = bytecode.OpLoadSelect
				goto dispatch
			}
			obj := x.R.(*Object)
			ic := &ics[ins.C]
			if ic.class != obj.Class {
				in.icMissField(ic, obj, ins.Node.(*ast.Select))
			}
			meter.FieldAccess(obj.Base + 16 + uint64(8*ic.ix))
			stack[sp-1] = obj.Slots[ic.ix]
		case bytecode.OpQGetStatic:
			x := stack[sp-1]
			ic := &ics[ins.C]
			if x.K != KClassRef || x.R.(string) != ic.cls {
				ins.Op = bytecode.OpLoadSelect
				goto dispatch
			}
			meter.StaticAccess(ic.cell.Addr)
			stack[sp-1] = ic.cell.V
		case bytecode.OpQGetConst:
			x := stack[sp-1]
			ic := &ics[ins.C]
			if x.K != KClassRef || x.R.(string) != ic.cls {
				ins.Op = bytecode.OpLoadSelect
				goto dispatch
			}
			meter.Step(energy.OpStatic, 1)
			stack[sp-1] = ic.v
		case bytecode.OpQArrLen:
			x := stack[sp-1]
			if x.K != KArr {
				ins.Op = bytecode.OpLoadSelect
				goto dispatch
			}
			meter.Step(energy.OpField, 1)
			stack[sp-1] = IntVal(int64(x.R.(*Array).Len()))
		case bytecode.OpStoreSelect, bytecode.OpStoreSelectX:
			// The receiver expression is evaluated inside writeLValue, after
			// the RHS — the walker's assignment order.
			rhs := stack[sp-1]
			in.writeLValue(fr, ins.Node.(*ast.Select), rhs)
			if ins.Op == bytecode.OpStoreSelect {
				sp--
			}
		case bytecode.OpStoreIdent, bytecode.OpStoreIdentX:
			rhs := stack[sp-1]
			in.writeLValue(fr, ins.Node.(*ast.Ident), rhs)
			if ins.Op == bytecode.OpStoreIdent {
				sp--
			}
		case bytecode.OpLoadIdent:
			n := ins.Node.(*ast.Ident)
			if n.RKind == ast.ResClass {
				// evalIdent's ResClass lane is charge-free and invariant.
				ics[ins.C] = vmIC{v: Value{K: KClassRef, R: n.Name}}
				ins.Op = bytecode.OpQPushV
				goto dispatch
			}
			stack[sp] = in.evalIdent(fr, n)
			sp++
		case bytecode.OpQPushV:
			stack[sp] = ics[ins.C].v
			sp++
		case bytecode.OpQLoadStatic:
			if ix := int(ins.A); ix < len(in.prog.statRefs) {
				c := in.static(in.prog.statRefs[ix])
				meter.StaticAccess(c.Addr)
				stack[sp] = c.V
				sp++
				break
			}
			stack[sp] = in.evalIdent(fr, ins.Node.(*ast.Ident))
			sp++
		case bytecode.OpQLoadField:
			if this := fr.this; this != nil {
				if ix := int(ins.A); ix < len(this.Slots) {
					meter.FieldAccess(this.Base + 16 + uint64(8*ix))
					stack[sp] = this.Slots[ix]
					sp++
					break
				}
			}
			stack[sp] = in.evalIdent(fr, ins.Node.(*ast.Ident))
			sp++
		case bytecode.OpQStoreStatic, bytecode.OpQStoreStaticX:
			rhs := stack[sp-1]
			if ix := int(ins.A); ix < len(in.prog.statRefs) {
				slot := in.prog.statRefs[ix]
				c := in.static(slot)
				meter.StaticAccess(c.Addr)
				if rhs.K == slot.K {
					c.V = rhs
				} else {
					c.V = in.coerceTo(rhs, slot.Type, ins.Node.NodePos())
				}
			} else {
				in.writeLValue(fr, ins.Node.(*ast.Ident), rhs)
			}
			if ins.Op == bytecode.OpQStoreStatic {
				sp--
			}
		case bytecode.OpQStoreField, bytecode.OpQStoreFieldX:
			rhs := stack[sp-1]
			if this := fr.this; this != nil && int(ins.A) < len(this.Slots) {
				ix := int(ins.A)
				meter.FieldAccess(this.Base + 16 + uint64(8*ix))
				if fi := &this.Class.fields[ix]; rhs.K == fi.K {
					this.Slots[ix] = rhs
				} else {
					this.Slots[ix] = in.coerceTo(rhs, fi.Type, ins.Node.NodePos())
				}
			} else {
				in.writeLValue(fr, ins.Node.(*ast.Ident), rhs)
			}
			if ins.Op == bytecode.OpQStoreField {
				sp--
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
		case bytecode.OpAssign, bytecode.OpAssignX:
			v := in.evalAssign(fr, ins.Node.(*ast.Assign))
			if ins.Op == bytecode.OpAssignX {
				stack[sp] = v
				sp++
			}
		case bytecode.OpLocalDecl:
			n := ins.Node.(*ast.LocalVar)
			k := kindOfType(n.Type)
			var v Value
			if ins.B != 0 {
				v = in.evalInit(fr, n.Init, n.Type)
			} else {
				v = stack[sp-1]
				sp--
			}
			if v.K != k {
				v = in.coerceTo(v, n.Type, n.Pos)
			}
			fr.locals[ins.A] = cell{t: n.Type, k: k, v: v, live: true}
			meter.Step(energy.OpLocal, 1)
		case bytecode.OpLocalZero:
			n := ins.Node.(*ast.LocalVar)
			fr.locals[ins.A] = cell{t: n.Type, k: kindOfType(n.Type), v: zeroValue(n.Type), live: true}
			meter.Step(energy.OpLocal, 1)
		case bytecode.OpNeg:
			n := ins.Node.(*ast.Unary)
			v := stack[sp-1]
			if v.K == KBox {
				v = in.unbox(v, n.Pos)
			}
			in.chargeArith(v.K, token.Minus)
			switch v.K {
			case KFloat:
				stack[sp-1] = FloatVal(-v.D)
			case KDouble:
				stack[sp-1] = DoubleVal(-v.D)
			case KLong:
				stack[sp-1] = LongVal(-v.I)
			case KInt, KShort, KByte, KChar:
				stack[sp-1] = IntVal(-v.I)
			default:
				in.bugf(n.Pos, "unary - on %v", v.K)
			}
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
			n := ins.Node.(*ast.New)
			argc := int(ins.A)
			args := in.grabArgs(argc)
			copy(args, stack[sp-argc:sp])
			sp -= argc
			stack[sp] = in.newDispatch(n, args)
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
