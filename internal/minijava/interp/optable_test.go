package interp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"jepo/internal/energy"
)

// The operator table: every binary operator on every pair of numeric kinds,
// on both engines, against a Java reference written out here. The right
// operand takes three forms — a local, a literal and a parenthesized
// expression — so the VM runs OpBinLL, OpBinLC and OpBinary; every case runs
// twice on one instance, so the second run executes the quickened int lanes
// (qbin) and, for comparisons in a condition, the fused compare-jumps. The
// expression must charge exactly one arithmetic op, the one the reference
// names, counted against a baseline method that evaluates the same operands
// without the operator.

// opKind is one numeric operand kind of the table.
type opKind struct {
	name string  // Java type name
	vals []Value // operand values; the last is zero, for division by zero
	lit  string  // a literal of the type, "" where Java has none
	litV Value   // the literal's value
}

var opKinds = []opKind{
	// -16777217 is not a float; 2^32+33 and -1 show the 5- and 6-bit shift
	// masks apart.
	{"int", []Value{IntVal(math.MaxInt32), IntVal(-16777217), IntVal(0)}, "33", IntVal(33)},
	{"long", []Value{LongVal(1<<32 + 33), LongVal(-1), LongVal(0)}, "4294967329L", LongVal(1<<32 + 33)},
	{"short", []Value{ShortVal(math.MaxInt16), ShortVal(-300), ShortVal(0)}, "", Value{}},
	{"byte", []Value{ByteVal(math.MaxInt8), ByteVal(-5), ByteVal(0)}, "", Value{}},
	{"char", []Value{CharVal(math.MaxUint16), CharVal('A'), CharVal(0)}, "'A'", CharVal('A')},
	{"float", []Value{FloatVal(0.1), FloatVal(-3.5), FloatVal(0)}, "2.5f", FloatVal(2.5)},
	{"double", []Value{DoubleVal(0.1), DoubleVal(-1e300), DoubleVal(0)}, "0.1", DoubleVal(0.1)},
}

var tableOps = []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&", "|", "^", "<<", ">>"}

// arithCharges are the energy ops an arithmetic operator may charge.
var arithCharges = []energy.Op{
	energy.OpArithInt, energy.OpArithNarrow, energy.OpArithLong, energy.OpArithFloat,
	energy.OpArithDouble, energy.OpDivInt, energy.OpModInt, energy.OpDivFP,
}

// javaRef is the Java result of x op y (JLS §15.17–15.22), computed here on
// Go's fixed-width types: the value, the energy op the operator charges,
// whether it throws ArithmeticException (after the charge), and whether the
// operator is undefined on the operand kinds (bitwise and shift operators on
// float or double).
func javaRef(op string, x, y Value) (want Value, charge energy.Op, throws, invalid bool) {
	isFP := func(k Kind) bool { return k == KFloat || k == KDouble }
	switch op {
	case "&", "|", "^", "<<", ">>":
		if isFP(x.K) || isFP(y.K) {
			return Value{}, 0, false, true
		}
	}
	if op == "<<" || op == ">>" {
		// Each operand promotes on its own; the result has the left's type.
		if x.K == KLong {
			s := uint(y.I) & 63
			if op == "<<" {
				return LongVal(x.I << s), energy.OpArithLong, false, false
			}
			return LongVal(x.I >> s), energy.OpArithLong, false, false
		}
		a, s := int32(x.I), uint(y.I)&31
		if op == "<<" {
			return Value{K: KInt, I: int64(a << s)}, energy.OpArithInt, false, false
		}
		return Value{K: KInt, I: int64(a >> s)}, energy.OpArithInt, false, false
	}
	// Binary numeric promotion (JLS §5.6.2).
	switch {
	case x.K == KDouble || y.K == KDouble:
		f := func(v Value) float64 {
			if isFP(v.K) {
				return v.D
			}
			return float64(v.I)
		}
		a, b := f(x), f(y)
		charge = energy.OpArithDouble
		var r float64
		switch op {
		case "+":
			r = a + b
		case "-":
			r = a - b
		case "*":
			r = a * b
		case "/":
			r, charge = a/b, energy.OpDivFP
		case "%":
			r, charge = math.Mod(a, b), energy.OpDivFP
		default:
			return BoolVal(cmpRef(op, a < b, a == b, a > b)), charge, false, false
		}
		return Value{K: KDouble, D: r}, charge, false, false
	case x.K == KFloat || y.K == KFloat:
		f := func(v Value) float32 {
			if v.K == KFloat {
				return float32(v.D)
			}
			return float32(v.I)
		}
		a, b := f(x), f(y)
		charge = energy.OpArithFloat
		var r float32
		switch op {
		case "+":
			r = a + b
		case "-":
			r = a - b
		case "*":
			r = a * b
		case "/":
			r, charge = a/b, energy.OpDivFP
		case "%":
			r, charge = float32(math.Mod(float64(a), float64(b))), energy.OpDivFP
		default:
			return BoolVal(cmpRef(op, a < b, a == b, a > b)), charge, false, false
		}
		return Value{K: KFloat, D: float64(r)}, charge, false, false
	case x.K == KLong || y.K == KLong:
		a, b := x.I, y.I
		charge = energy.OpArithLong
		var r int64
		switch op {
		case "+":
			r = a + b
		case "-":
			r = a - b
		case "*":
			r = a * b
		case "/", "%":
			charge = energy.OpDivInt
			if op == "%" {
				charge = energy.OpModInt
			}
			if b == 0 {
				return Value{}, charge, true, false
			}
			r = a / b
			if op == "%" {
				r = a % b
			}
		case "&":
			r = a & b
		case "|":
			r = a | b
		case "^":
			r = a ^ b
		default:
			return BoolVal(cmpRef(op, a < b, a == b, a > b)), charge, false, false
		}
		return LongVal(r), charge, false, false
	}
	a, b := int32(x.I), int32(y.I)
	charge = energy.OpArithInt
	var r int32
	switch op {
	case "+":
		r = a + b
	case "-":
		r = a - b
	case "*":
		r = a * b
	case "/", "%":
		charge = energy.OpDivInt
		if op == "%" {
			charge = energy.OpModInt
		}
		if b == 0 {
			return Value{}, charge, true, false
		}
		r = a / b
		if op == "%" {
			r = a % b
		}
	case "&":
		r = a & b
	case "|":
		r = a | b
	case "^":
		r = a ^ b
	default:
		return BoolVal(cmpRef(op, a < b, a == b, a > b)), charge, false, false
	}
	return Value{K: KInt, I: int64(r)}, charge, false, false
}

func cmpRef(op string, lt, eq, gt bool) bool {
	switch op {
	case "<":
		return lt
	case "<=":
		return lt || eq
	case ">":
		return gt
	case ">=":
		return gt || eq
	case "==":
		return eq
	}
	return !eq // "!=", also true when an operand is NaN
}

// sameValue compares kinds and payloads, floating values bit for bit.
func sameValue(got, want Value) bool {
	if got.K != want.K {
		return false
	}
	if got.K == KFloat || got.K == KDouble {
		return math.Float64bits(got.D) == math.Float64bits(want.D) ||
			math.IsNaN(got.D) && math.IsNaN(want.D)
	}
	return got.I == want.I
}

func isComparison(op string) bool {
	switch op {
	case "<", "<=", ">", ">=", "==", "!=":
		return true
	}
	return false
}

// operatorCharges runs T.method(args) and then T.base(args) on one instance
// and returns the method's result and error, and the arithmetic charges the
// method issued beyond the baseline's, by op.
func operatorCharges(in *Interp, method, base string, args []Value) (Value, map[energy.Op]int64, error) {
	counts := func() []uint64 {
		c := make([]uint64, len(arithCharges))
		for i, op := range arithCharges {
			c[i] = in.Meter().OpCount(op)
		}
		return c
	}
	c0 := counts()
	v, err := in.CallStatic("T", method, args...)
	c1 := counts()
	if _, berr := in.CallStatic("T", base, args...); berr != nil {
		panic(fmt.Sprintf("baseline T.%s: %v", base, berr))
	}
	c2 := counts()
	d := map[energy.Op]int64{}
	for i, op := range arithCharges {
		if n := int64(c1[i]-c0[i]) - int64(c2[i]-c1[i]); n != 0 {
			d[op] = n
		}
	}
	return v, d, err
}

// tableCase is one operator on one kind pair, with the right operand in one
// form, as source: a value method, a condition method for comparisons, and
// the baseline.
type tableCase struct {
	form   string // "local", "literal" or "paren"
	method string
	cond   string // "" unless the operator is a comparison
	base   string
}

func TestOperatorTable(t *testing.T) {
	for _, l := range opKinds {
		for _, r := range opKinds {
			for _, op := range tableOps {
				name := fmt.Sprintf("%s%s%s", l.name, op, r.name)
				t.Run(name, func(t *testing.T) { testOperator(t, l, r, op) })
			}
		}
	}
}

func testOperator(t *testing.T, l, r opKind, op string) {
	// The declared result type is the reference's, so a return converts
	// nothing when an engine agrees with it; the charge check sees any
	// narrowing conversion it would take.
	ret := "double"
	if want, _, _, invalid := javaRef(op, l.vals[0], r.vals[0]); !invalid {
		ret = map[Kind]string{KInt: "int", KLong: "long", KFloat: "float", KDouble: "double", KBool: "boolean"}[want.K]
	}
	forms := map[string]string{"local": "y", "literal": r.lit, "paren": "(t ? y : y)"}
	var src strings.Builder
	fmt.Fprintf(&src, "class T {\n")
	var cases []tableCase
	for _, form := range []string{"local", "literal", "paren"} {
		rhs := forms[form]
		if rhs == "" {
			continue // no short or byte literal in Java
		}
		c := tableCase{form: form, method: "v_" + form, base: "b_" + form}
		params := fmt.Sprintf("(%s x, %s y, boolean t)", l.name, r.name)
		fmt.Fprintf(&src, "static %s %s%s { return x %s %s; }\n", ret, c.method, params, op, rhs)
		fmt.Fprintf(&src, "static void %s%s { %s a = x; %s b = %s; }\n", c.base, params, l.name, r.name, rhs)
		if isComparison(op) {
			c.cond = "c_" + form
			fmt.Fprintf(&src, "static boolean %s%s { if (x %s %s) { return true; } return false; }\n",
				c.cond, params, op, rhs)
		}
		cases = append(cases, c)
	}
	src.WriteString("}\n")

	vm, ast := newOn(t, EngineVM, src.String()), newOn(t, EngineAST, src.String())
	for _, c := range cases {
		for _, x := range l.vals {
			for _, y := range r.vals {
				ry := y
				if c.form == "literal" {
					ry = r.litV
				}
				want, charge, throws, invalid := javaRef(op, x, ry)
				args := []Value{x, y, BoolVal(true)}
				what := fmt.Sprintf("%s %s %s (%s form), x=%s y=%s", l.name, op, r.name, c.form, x.JavaString(), ry.JavaString())
				methods := []string{c.method}
				if c.cond != "" {
					methods = append(methods, c.cond)
				}
				for _, method := range methods {
					// Twice on one instance: cold, then through the quickened code.
					for run := 1; run <= 2; run++ {
						var errs []string
						for _, in := range []*Interp{vm, ast} {
							e := in.engine
							v, charged, err := operatorCharges(in, method, c.base, args)
							errs = append(errs, fmt.Sprint(err))
							switch {
							case invalid:
								if err == nil || !strings.Contains(err.Error(), "operator "+op) {
									t.Errorf("%v: %s run %d: got %v, %v; want an operator error", e, what, run, v, err)
								}
								continue
							case len(charged) != 1 || charged[charge] != 1:
								t.Errorf("%v: %s run %d: charged %v, want one %v", e, what, run, charged, charge)
							}
							switch {
							case throws:
								if err == nil || !strings.Contains(err.Error(), "ArithmeticException") {
									t.Errorf("%v: %s run %d: got %v, %v; want ArithmeticException", e, what, run, v, err)
								}
							case err != nil:
								t.Errorf("%v: %s run %d: %v", e, what, run, err)
							case method == c.cond && v.Bool() != want.Bool():
								t.Errorf("%v: %s run %d: condition %v, want %v", e, what, run, v.Bool(), want.Bool())
							case method == c.method && !sameValue(v, want):
								t.Errorf("%v: %s run %d: got %v %s, want %v %s", e, what, run, v.K, v.JavaString(), want.K, want.JavaString())
							}
						}
						if errs[0] != errs[1] {
							t.Errorf("%s run %d: engines fail differently\n  vm:  %s\n  ast: %s", what, run, errs[0], errs[1])
						}
					}
				}
			}
		}
	}
}

// TestUnaryTable runs unary minus, ++ and -- on every numeric kind on both
// engines, cold and quickened: each charges one ALU op of the operand's own
// kind, unary minus promotes a narrow operand to int, and ++/-- keep the
// operand's kind.
func TestUnaryTable(t *testing.T) {
	own := map[Kind]energy.Op{
		KInt: energy.OpArithInt, KLong: energy.OpArithLong, KShort: energy.OpArithNarrow,
		KByte: energy.OpArithNarrow, KChar: energy.OpArithNarrow, KFloat: energy.OpArithFloat,
		KDouble: energy.OpArithDouble,
	}
	for _, k := range opKinds {
		x := k.vals[1]
		negType, neg := k.name, Value{K: x.K, I: -x.I, D: -x.D}
		switch x.K {
		case KShort, KByte, KChar, KInt:
			negType, neg = "int", IntVal(-x.I)
		}
		inc := Value{K: x.K, I: x.I + 1, D: x.D + 1}
		dec := Value{K: x.K, I: x.I - 1, D: x.D - 1}
		exprs := []struct {
			body, ret string
			want      Value
		}{
			{"return -x;", negType, neg},
			{"x++; return x;", k.name, inc},
			{"return ++x;", k.name, inc},
			{"return x++;", k.name, x},
			{"return --x;", k.name, dec},
		}
		for _, c := range exprs {
			src := fmt.Sprintf("class T { static %s f(%s x) { %s } static void b(%s x) { %s a = x; } }",
				c.ret, k.name, c.body, k.name, k.name)
			for _, e := range engines {
				in := newOn(t, e, src)
				for run := 1; run <= 2; run++ {
					v, charged, err := operatorCharges(in, "f", "b", []Value{x})
					switch {
					case err != nil:
						t.Fatalf("%v: %s on %s: %v", e, c.body, k.name, err)
					case len(charged) != 1 || charged[own[x.K]] != 1:
						t.Errorf("%v: %s on %s run %d: charged %v, want one %v", e, c.body, k.name, run, charged, own[x.K])
					case !sameValue(v, c.want):
						t.Errorf("%v: %s on %s run %d: got %v %s, want %v %s", e, c.body, k.name, run, v.K, v.JavaString(), c.want.K, c.want.JavaString())
					}
				}
			}
		}
	}
}

// TestBooleanEquality: == and != on two booleans compare their values, on
// both engines.
func TestBooleanEquality(t *testing.T) {
	for _, e := range engines {
		in := newOn(t, e, "class T { static boolean eq(boolean a, boolean b) { return a == b; } "+
			"static boolean ne(boolean a, boolean b) { return a != b; } }")
		for _, a := range []bool{false, true} {
			for _, b := range []bool{false, true} {
				eq, err1 := in.CallStatic("T", "eq", BoolVal(a), BoolVal(b))
				ne, err2 := in.CallStatic("T", "ne", BoolVal(a), BoolVal(b))
				if err1 != nil || err2 != nil || eq.Bool() != (a == b) || ne.Bool() != (a != b) {
					t.Errorf("%v: %v == %v is %v, != is %v (%v, %v)", e, a, b, eq.Bool(), ne.Bool(), err1, err2)
				}
			}
		}
	}
}

// TestNumberBooleanEquality: == and != between a number and a boolean fail
// on both engines with one text, also when the boolean is boxed, while a
// boxed number still compares with null and with another box by value.
func TestNumberBooleanEquality(t *testing.T) {
	for _, c := range []struct {
		body, want string
		val        bool // the result when want is empty
	}{
		{"return 1 == true;", "operator == on int and boolean", false},
		{"return false != 0;", "operator != on boolean and int", false},
		{"Boolean b = true; return 1 == b;", "operator == on int and boolean", false},
		{"return 'a' == false;", "operator == on char and boolean", false},
		{"double d = 1.0; return d != true;", "operator != on double and boolean", false},
		{"Integer x = 5; return x == null;", "", false},
		{"Integer a = 1000; Integer b = 1000; return a == b;", "", true},
	} {
		src := "class T { static boolean f() { " + c.body + " } }"
		var vals []Value
		var errs []string
		for _, e := range engines {
			v, err := newOn(t, e, src).CallStatic("T", "f")
			got := ""
			if err != nil {
				got = err.Error()
			}
			if c.want == "" && (got != "" || v.Bool() != c.val) || !strings.HasSuffix(got, c.want) {
				t.Errorf("%v: %s: %v, err %q, want %q", e, c.body, v, got, c.want)
			}
			vals, errs = append(vals, v), append(errs, got)
		}
		if vals[0] != vals[1] || errs[0] != errs[1] {
			t.Errorf("%s: engines disagree: %v %q vs %v %q", c.body, vals[0], errs[0], vals[1], errs[1])
		}
	}
}
