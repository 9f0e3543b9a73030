package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"jepo/internal/energy"
	"jepo/internal/minijava/token"
)

// isBuiltinClass reports whether a name denotes a class the runtime provides.
func isBuiltinClass(name string) bool {
	switch name {
	case "System", "Math", "String", "StringBuilder", "Object":
		return true
	}
	return wrapperKind(name) != KVoid || IsExceptionClass(name)
}

// builtinStaticField resolves constants like Integer.MAX_VALUE.
func builtinStaticField(class, name string) (Value, bool) {
	switch class {
	case "Integer":
		switch name {
		case "MAX_VALUE":
			return IntVal(math.MaxInt32), true
		case "MIN_VALUE":
			return IntVal(math.MinInt32), true
		}
	case "Long":
		switch name {
		case "MAX_VALUE":
			return LongVal(math.MaxInt64), true
		case "MIN_VALUE":
			return LongVal(math.MinInt64), true
		}
	case "Double":
		switch name {
		case "MAX_VALUE":
			return DoubleVal(math.MaxFloat64), true
		case "MIN_VALUE":
			return DoubleVal(4.9e-324), true
		case "POSITIVE_INFINITY":
			return DoubleVal(math.Inf(1)), true
		case "NEGATIVE_INFINITY":
			return DoubleVal(math.Inf(-1)), true
		case "NaN":
			return DoubleVal(math.NaN()), true
		}
	case "Float":
		switch name {
		case "MAX_VALUE":
			return FloatVal(math.MaxFloat32), true
		case "POSITIVE_INFINITY":
			return FloatVal(math.Inf(1)), true
		}
	case "Math":
		switch name {
		case "PI":
			return DoubleVal(math.Pi), true
		case "E":
			return DoubleVal(math.E), true
		}
	case "Short":
		switch name {
		case "MAX_VALUE":
			return ShortVal(math.MaxInt16), true
		case "MIN_VALUE":
			return ShortVal(math.MinInt16), true
		}
	case "Byte":
		switch name {
		case "MAX_VALUE":
			return ByteVal(math.MaxInt8), true
		case "MIN_VALUE":
			return ByteVal(math.MinInt8), true
		}
	}
	return Value{}, false
}

// constructBuiltin handles `new` of runtime-provided classes.
func (in *Interp) constructBuiltin(name string, args []Value, pos token.Pos) Value {
	switch {
	case name == "StringBuilder":
		in.meter.Step(energy.OpAllocObject, 1)
		sb := &SB{Base: in.meter.Alloc(32)}
		if len(args) == 1 && args[0].K == KString {
			s := args[0].Str()
			in.meter.Step(energy.OpSBAppendChar, len(s))
			sb.B.WriteString(s)
		}
		return Value{K: KSB, R: sb}
	case name == "Object":
		in.meter.Step(energy.OpAllocObject, 1)
		return Value{K: KRef, R: &Object{Class: &classInfo{Name: "Object"}, Base: in.meter.Alloc(16)}}
	case name == "String":
		in.meter.Step(energy.OpAllocObject, 1)
		if len(args) == 1 && args[0].K == KString {
			return args[0]
		}
		return StringVal("")
	case wrapperKind(name) != KVoid:
		if len(args) != 1 {
			in.bugf(pos, "wrapper constructor %s takes one argument", name)
		}
		// `new Integer(v)` always allocates, unlike valueOf.
		in.meter.Step(energy.OpBoxAlloc, 1)
		prim := in.coerceTo(args[0], typeOfKind(wrapperKind(name)), pos)
		return Value{K: KBox, R: &Box{Class: name, V: prim, Base: in.meter.Alloc(16)}}
	case IsExceptionClass(name):
		in.meter.Step(energy.OpAllocObject, 1)
		msg := ""
		if len(args) >= 1 && args[0].K == KString {
			msg = args[0].Str()
		}
		return Value{K: KThrow, R: &Throwable{Class: name, Msg: msg}}
	}
	in.bugf(pos, "unknown class %s", name)
	return Value{}
}

// callBuiltinStatic dispatches static calls on runtime classes.
func (in *Interp) callBuiltinStatic(class, name string, args []Value, pos token.Pos) (Value, bool) {
	switch class {
	case "System":
		return in.systemCall(name, args, pos)
	case "Math":
		return in.mathCall(name, args, pos)
	case "String":
		if name == "valueOf" && len(args) == 1 {
			s := args[0].JavaString()
			in.meter.Step(energy.OpStrSetup, 1)
			in.meter.Step(energy.OpStrConcatChar, len(s))
			return StringVal(s), true
		}
	case "Integer":
		switch name {
		case "valueOf":
			if len(args) == 1 {
				return in.box("Integer", args[0], pos), true
			}
		case "parseInt":
			if len(args) == 1 && args[0].K == KString {
				return in.parseIntegral(args[0].Str(), 32, pos), true
			}
		case "toString":
			if len(args) == 1 {
				return in.stringValueOf(args[0]), true
			}
		case "max":
			if len(args) == 2 {
				in.meter.Step(energy.OpArithInt, 1)
				return IntVal(maxI(args[0].AsI64(), args[1].AsI64())), true
			}
		case "min":
			if len(args) == 2 {
				in.meter.Step(energy.OpArithInt, 1)
				return IntVal(minI(args[0].AsI64(), args[1].AsI64())), true
			}
		}
	case "Long":
		switch name {
		case "valueOf":
			if len(args) == 1 {
				return in.box("Long", args[0], pos), true
			}
		case "parseLong":
			if len(args) == 1 && args[0].K == KString {
				return in.parseIntegral(args[0].Str(), 64, pos), true
			}
		}
	case "Double":
		switch name {
		case "valueOf":
			if len(args) == 1 {
				return in.box("Double", args[0], pos), true
			}
		case "parseDouble":
			if len(args) == 1 && args[0].K == KString {
				s := strings.TrimSpace(args[0].Str())
				in.meter.Step(energy.OpArithDouble, len(s))
				d, err := strconv.ParseFloat(s, 64)
				if err != nil {
					in.throw("NumberFormatException", "For input string: \""+s+"\"")
				}
				return DoubleVal(d), true
			}
		case "isNaN":
			if len(args) == 1 {
				in.meter.Step(energy.OpArithDouble, 1)
				return BoolVal(math.IsNaN(args[0].AsF64())), true
			}
		case "isInfinite":
			if len(args) == 1 {
				in.meter.Step(energy.OpArithDouble, 1)
				return BoolVal(math.IsInf(args[0].AsF64(), 0)), true
			}
		}
	case "Float", "Short", "Byte", "Character", "Boolean":
		if name == "valueOf" && len(args) == 1 {
			return in.box(class, args[0], pos), true
		}
	}
	return Value{}, false
}

func (in *Interp) stringValueOf(v Value) Value {
	s := v.JavaString()
	in.meter.Step(energy.OpStrSetup, 1)
	in.meter.Step(energy.OpStrConcatChar, len(s))
	return StringVal(s)
}

func (in *Interp) parseIntegral(s string, bits int, pos token.Pos) Value {
	t := strings.TrimSpace(s)
	in.meter.Step(energy.OpArithInt, len(t)+1)
	v, err := strconv.ParseInt(t, 10, bits)
	if err != nil {
		in.throw("NumberFormatException", "For input string: \""+s+"\"")
	}
	if bits == 32 {
		return IntVal(v)
	}
	return LongVal(v)
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (in *Interp) systemCall(name string, args []Value, pos token.Pos) (Value, bool) {
	switch name {
	case "arraycopy":
		if len(args) != 5 {
			in.bugf(pos, "System.arraycopy takes 5 arguments")
		}
		in.arraycopy(args, pos)
		return Value{K: KVoid}, true
	case "currentTimeMillis":
		ms := in.meter.Snapshot().Elapsed.Milliseconds()
		return LongVal(ms), true
	case "nanoTime":
		return LongVal(in.meter.Snapshot().Elapsed.Nanoseconds()), true
	}
	return Value{}, false
}

// arraycopy is the block copy Table I's "Arrays copy" row recommends: one
// cheap per-element charge plus two streaming cache passes, versus the load/
// store/branch/bounds sequence a manual loop pays.
func (in *Interp) arraycopy(args []Value, pos token.Pos) {
	src, dst := args[0], args[2]
	if src.K == KNull || dst.K == KNull {
		in.throw("NullPointerException", "arraycopy on null array")
	}
	if src.K != KArr || dst.K != KArr {
		in.bugf(pos, "arraycopy on non-arrays")
	}
	sa, da := src.R.(*Array), dst.R.(*Array)
	sp, dp, n := int(args[1].AsI64()), int(args[3].AsI64()), int(args[4].AsI64())
	if n < 0 || sp < 0 || dp < 0 || sp+n > sa.Len() || dp+n > da.Len() {
		in.throw("ArrayIndexOutOfBoundsException",
			fmt.Sprintf("arraycopy: last source index %d out of bounds for length %d", sp+n, sa.Len()))
	}
	if sa.Kind != da.Kind {
		in.throw("ArrayStoreException", "incompatible array types")
	}
	in.meter.Step(energy.OpArraycopyElem, n)
	if n > 0 {
		in.meter.Access(sa.addr(sp), n*sa.ES)
		in.meter.Access(da.addr(dp), n*da.ES)
	}
	switch sa.Kind {
	case KInt, KLong, KShort, KByte, KChar, KBool:
		copy(da.I[dp:dp+n], sa.I[sp:sp+n])
	case KFloat, KDouble:
		copy(da.D[dp:dp+n], sa.D[sp:sp+n])
	default:
		copy(da.R[dp:dp+n], sa.R[sp:sp+n])
	}
}

func (in *Interp) mathCall(name string, args []Value, pos token.Pos) (Value, bool) {
	one := func() float64 { return args[0].AsF64() }
	charge := func(n int) { in.meter.Step(energy.OpArithDouble, n) }
	switch name {
	case "sqrt":
		charge(4)
		return DoubleVal(math.Sqrt(one())), true
	case "log":
		charge(8)
		return DoubleVal(math.Log(one())), true
	case "exp":
		charge(8)
		return DoubleVal(math.Exp(one())), true
	case "pow":
		charge(10)
		return DoubleVal(math.Pow(args[0].AsF64(), args[1].AsF64())), true
	case "floor":
		charge(1)
		return DoubleVal(math.Floor(one())), true
	case "ceil":
		charge(1)
		return DoubleVal(math.Ceil(one())), true
	case "round":
		charge(1)
		return LongVal(int64(math.Floor(one() + 0.5))), true
	case "random":
		charge(2)
		return DoubleVal(in.nextRandom()), true
	case "abs":
		v := args[0]
		if v.K == KBox {
			v = in.unbox(v, pos)
		}
		in.chargeArith(v.K, token.Plus)
		switch v.K {
		case KFloat:
			return FloatVal(math.Abs(v.D)), true
		case KDouble:
			return DoubleVal(math.Abs(v.D)), true
		case KLong:
			if v.I < 0 {
				return LongVal(-v.I), true
			}
			return v, true
		default:
			if v.I < 0 {
				return IntVal(-v.I), true
			}
			return IntVal(v.I), true
		}
	case "max", "min":
		a, b := args[0], args[1]
		if a.K == KBox {
			a = in.unbox(a, pos)
		}
		if b.K == KBox {
			b = in.unbox(b, pos)
		}
		k := promote(a.K, b.K)
		in.chargeArith(k, token.Lt)
		bigger := compare(token.Gt, a, b, k)
		pick := a
		if (name == "max") != bigger {
			pick = b
		}
		switch k {
		case KDouble:
			return DoubleVal(pick.AsF64()), true
		case KFloat:
			return FloatVal(pick.AsF64()), true
		case KLong:
			return LongVal(pick.AsI64()), true
		default:
			return IntVal(pick.AsI64()), true
		}
	}
	return Value{}, false
}

// nextRandom is a deterministic SplitMix64 stream so runs are reproducible.
func (in *Interp) nextRandom() float64 {
	in.rngInt += 0x9E3779B97F4A7C15
	z := in.rngInt
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// callBuiltinInstance dispatches method calls on runtime value kinds.
func (in *Interp) callBuiltinInstance(recv Value, name string, args []Value, pos token.Pos) (Value, bool) {
	switch recv.K {
	case KClassRef:
		if recv.R.(string) == "System.out" {
			return in.printCall(name, args, pos)
		}
	case KString:
		return in.stringCall(recv.Str(), name, args, pos)
	case KSB:
		return in.sbCall(recv, name, args, pos)
	case KBox:
		return in.boxCall(recv.R.(*Box), name, args, pos)
	case KThrow:
		t := recv.R.(*Throwable)
		switch name {
		case "getMessage":
			in.meter.Step(energy.OpField, 1)
			return StringVal(t.Msg), true
		case "toString":
			return in.stringValueOf(recv), true
		}
	case KArr:
		// Arrays have no methods in the dialect.
	}
	return Value{}, false
}

func (in *Interp) printCall(name string, args []Value, pos token.Pos) (Value, bool) {
	switch name {
	case "println", "print":
		s := ""
		if len(args) == 1 {
			s = args[0].JavaString()
		} else if len(args) > 1 {
			in.bugf(pos, "println takes at most one argument")
		}
		in.meter.Step(energy.OpStrSetup, 1)
		in.meter.Step(energy.OpSBAppendChar, len(s))
		in.out.WriteString(s)
		if name == "println" {
			in.out.WriteByte('\n')
		}
		return Value{K: KVoid}, true
	}
	return Value{}, false
}

func (in *Interp) stringCall(s, name string, args []Value, pos token.Pos) (Value, bool) {
	switch name {
	case "length":
		in.meter.Step(energy.OpField, 1)
		return IntVal(int64(len(s))), true
	case "isEmpty":
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(len(s) == 0), true
	case "charAt":
		in.meter.Step(energy.OpArrayElem, 1)
		in.meter.Step(energy.OpBoundsCheck, 1)
		i := int(args[0].AsI64())
		if i < 0 || i >= len(s) {
			in.throw("StringIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, len(s)))
		}
		return CharVal(int64(s[i])), true
	case "equals":
		in.meter.Step(energy.OpStrSetup, 1)
		if len(args) != 1 {
			in.bugf(pos, "equals takes one argument")
		}
		o := args[0]
		if o.K != KString {
			return BoolVal(false), true
		}
		t := o.Str()
		if len(s) != len(t) {
			// Length check short-circuits: no per-char cost at all.
			return BoolVal(false), true
		}
		n := 0
		eq := true
		for i := 0; i < len(s); i++ {
			n++
			if s[i] != t[i] {
				eq = false
				break
			}
		}
		in.meter.Step(energy.OpStrEqualsChar, n)
		return BoolVal(eq), true
	case "compareTo":
		in.meter.Step(energy.OpStrSetup, 1)
		in.meter.Step(energy.OpStrSetup, 1) // compareTo's heavier setup
		if len(args) != 1 || args[0].K != KString {
			in.bugf(pos, "compareTo takes one String")
		}
		t := args[0].Str()
		n := 0
		res := 0
		for i := 0; i < len(s) && i < len(t); i++ {
			n++
			if s[i] != t[i] {
				res = int(s[i]) - int(t[i])
				break
			}
		}
		if res == 0 {
			res = len(s) - len(t)
		}
		in.meter.Step(energy.OpStrCompareToChar, n)
		return IntVal(int64(res)), true
	case "substring":
		in.meter.Step(energy.OpStrSetup, 1)
		lo := int(args[0].AsI64())
		hi := len(s)
		if len(args) == 2 {
			hi = int(args[1].AsI64())
		}
		if lo < 0 || hi > len(s) || lo > hi {
			in.throw("StringIndexOutOfBoundsException",
				fmt.Sprintf("begin %d, end %d, length %d", lo, hi, len(s)))
		}
		in.meter.Step(energy.OpStrConcatChar, hi-lo)
		return StringVal(s[lo:hi]), true
	case "indexOf":
		in.meter.Step(energy.OpStrSetup, 1)
		if len(args) == 1 && args[0].K == KString {
			in.meter.Step(energy.OpStrEqualsChar, len(s))
			return IntVal(int64(strings.Index(s, args[0].Str()))), true
		}
		if len(args) == 1 && args[0].K.IsIntegral() {
			in.meter.Step(energy.OpStrEqualsChar, len(s))
			return IntVal(int64(strings.IndexByte(s, byte(args[0].I)))), true
		}
	case "concat":
		if len(args) == 1 && args[0].K == KString {
			return in.binary(token.Plus, StringVal(s), args[0], pos), true
		}
	case "toString":
		in.meter.Step(energy.OpLocal, 1)
		return StringVal(s), true
	case "hashCode":
		in.meter.Step(energy.OpArithInt, len(s))
		var h int32
		for i := 0; i < len(s); i++ {
			h = 31*h + int32(s[i])
		}
		return IntVal(int64(h)), true
	case "startsWith":
		if len(args) == 1 && args[0].K == KString {
			p := args[0].Str()
			in.meter.Step(energy.OpStrSetup, 1)
			in.meter.Step(energy.OpStrEqualsChar, min(len(p), len(s)))
			return BoolVal(strings.HasPrefix(s, p)), true
		}
	case "trim":
		in.meter.Step(energy.OpStrSetup, 1)
		in.meter.Step(energy.OpStrEqualsChar, len(s))
		return StringVal(strings.TrimSpace(s)), true
	}
	return Value{}, false
}

func (in *Interp) sbCall(recv Value, name string, args []Value, pos token.Pos) (Value, bool) {
	sb := recv.R.(*SB)
	switch name {
	case "append":
		if len(args) != 1 {
			in.bugf(pos, "append takes one argument")
		}
		s := args[0].JavaString()
		in.meter.Step(energy.OpSBAppendChar, len(s))
		sb.B.WriteString(s)
		return recv, true // fluent: return the builder itself
	case "toString":
		s := sb.B.String()
		in.meter.Step(energy.OpStrSetup, 1)
		in.meter.Step(energy.OpStrConcatChar, len(s))
		return StringVal(s), true
	case "length":
		in.meter.Step(energy.OpField, 1)
		return IntVal(int64(sb.B.Len())), true
	case "setLength":
		if len(args) == 1 && args[0].AsI64() == 0 {
			in.meter.Step(energy.OpField, 1)
			sb.B.Reset()
			return Value{K: KVoid}, true
		}
	}
	return Value{}, false
}

func (in *Interp) boxCall(b *Box, name string, args []Value, pos token.Pos) (Value, bool) {
	switch name {
	case "intValue":
		in.meter.Step(energy.OpUnbox, 1)
		return IntVal(b.V.AsI64()), true
	case "longValue":
		in.meter.Step(energy.OpUnbox, 1)
		return LongVal(b.V.AsI64()), true
	case "doubleValue":
		in.meter.Step(energy.OpUnbox, 1)
		return DoubleVal(b.V.AsF64()), true
	case "floatValue":
		in.meter.Step(energy.OpUnbox, 1)
		return FloatVal(b.V.AsF64()), true
	case "shortValue":
		in.meter.Step(energy.OpUnbox, 1)
		return ShortVal(b.V.AsI64()), true
	case "byteValue":
		in.meter.Step(energy.OpUnbox, 1)
		return ByteVal(b.V.AsI64()), true
	case "booleanValue":
		in.meter.Step(energy.OpUnbox, 1)
		return BoolVal(b.V.I != 0), true
	case "charValue":
		in.meter.Step(energy.OpUnbox, 1)
		return CharVal(b.V.I), true
	case "equals":
		in.meter.Step(energy.OpArithInt, 2)
		if len(args) == 1 && args[0].K == KBox {
			o := args[0].R.(*Box)
			return BoolVal(b.Class == o.Class && b.V == o.V), true
		}
		return BoolVal(false), true
	case "compareTo":
		in.meter.Step(energy.OpArithInt, 2)
		if len(args) == 1 && args[0].K == KBox {
			o := args[0].R.(*Box)
			a, c := b.V.AsF64(), o.V.AsF64()
			switch {
			case a < c:
				return IntVal(-1), true
			case a > c:
				return IntVal(1), true
			default:
				return IntVal(0), true
			}
		}
	case "toString":
		return in.stringValueOf(b.V), true
	}
	return Value{}, false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
