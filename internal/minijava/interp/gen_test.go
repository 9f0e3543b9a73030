package interp_test

import (
	"fmt"
	"math/rand"
	"strings"
)

// This file holds the seeded program generator of the engine-diff fuzz
// (enginediff_test.go, behind the enginediff build tag). It is untagged so
// the tier-1 resolver test can load the same programs.

// --- the program generator ---

// gen holds the generator state: a deterministic source, the declared
// variables per kind, and a name counter. Loop counters are readable but
// never assignment targets, so every generated loop terminates; int and long
// divisions use nonzero-by-construction denominators except in the guarded
// try/catch template, which is the point. short, byte and char values come
// from casts and are read wherever an int is; they change only through ++,
// -- and compound assignment, which narrow implicitly. Assignments and
// ++/-- also appear as values, whose kind is the target's (JLS §15.26).
type gen struct {
	r      *rand.Rand
	sb     strings.Builder
	indent string
	vocab
	n int // name counter
}

// vocab is the variables in scope, per kind.
type vocab struct {
	ints, dbls, bools []string // readable variables
	longs, flts       []string
	mutInts, mutDbls  []string // assignable subsets
	mutBools          []string
	mutLongs, mutFlts []string
	narrows           []string // short, byte and char locals (also in ints)
}

func generate(r *rand.Rand) string {
	g := &gen{r: r, indent: "\t\t"}

	g.line("class P {")
	g.line("\tint v; double w; long u;")
	g.line("\tP(int v0) { this.v = v0; this.w = v0 * 0.5; this.u = v0 * 3000000000L; }")
	g.line("\tint bump() { this.v = this.v + 1; return this.v; }")
	g.line("}")
	g.line("class F {")
	g.line("\tstatic int sInt = 2;")
	g.line("\tstatic double sDbl = 0.5;")
	g.line("\tstatic long sLong = -5L;")
	g.line("\tstatic float sFlt = 0.75f;")
	g.line("\tstatic int g(int x) { return x * 3 - 7; }")
	g.line("\tstatic double h(double a, int b) { return a * 0.5 + b; }")
	g.line("\tstatic long k(long a, float b) { return a ^ (long) (b * 4.0f); }")
	// t throws from a compiled method into guard's handler, which the
	// walker runs on both engines (a method with try/catch has no lowering).
	g.line("\tstatic int t(int x) { if (x > 2) { throw new ArithmeticException(\"t\"); } return x; }")
	g.line("\tstatic int guard(int x) { try { return t(x); } catch (ArithmeticException e) { return x - 1; } }")
	g.line("\tstatic double f() {")

	// Preamble: a fixed vocabulary every expression can draw from. Arrays
	// are always length 8 and loop bounds never exceed 8, so loop counters
	// double as safe indices.
	g.line("\t\tint x0 = guard(4); int x1 = -5;")
	g.line("\t\tdouble d0 = 1.25; double d1 = 340.0;")
	g.line("\t\tlong l0 = 40000000000L; long l1 = -7L;")
	g.line("\t\tfloat f0 = 1.5f; float f1 = -0.3f;")
	g.line("\t\tshort s0 = (short) 300; byte y0 = (byte) -7; char c0 = 'q';")
	g.line("\t\tint[] a0 = new int[8];")
	g.line("\t\tdouble[] e0 = new double[8];")
	g.line("\t\tP p0 = new P(4);")
	g.line("\t\tboolean b0 = x1 < x0 || p0 instanceof P;")
	g.line("\t\tfor (int w0 = 0; w0 < 8; w0++) { a0[w0] = w0 * 2 - 3; e0[w0] = w0 * 0.75; }")
	g.ints = []string{"x0", "x1", "sInt", "p0.v", "s0", "y0", "c0"}
	g.mutInts = []string{"x0", "x1", "sInt", "p0.v"}
	g.dbls = []string{"d0", "d1", "sDbl", "p0.w"}
	g.mutDbls = []string{"d0", "d1", "sDbl", "p0.w"}
	g.longs = []string{"l0", "l1", "sLong", "p0.u"}
	g.mutLongs = []string{"l0", "l1", "sLong", "p0.u"}
	g.flts = []string{"f0", "f1", "sFlt"}
	g.mutFlts = []string{"f0", "f1", "sFlt"}
	g.narrows = []string{"s0", "y0", "c0"}
	g.bools = []string{"b0"}
	g.mutBools = []string{"b0"}

	for i, n := 0, 5+g.r.Intn(6); i < n; i++ {
		g.stmt(0)
	}

	g.line("\t\treturn d0 + x0 + x1 + sDbl + sInt + a0[3] + e0[5] + p0.v + p0.w" +
		" + l0 + l1 + sLong + p0.u + f0 + f1 + sFlt + s0 + y0 + c0;")
	g.line("\t}")
	g.line("}")
	return g.sb.String()
}

func (g *gen) line(s string) { g.sb.WriteString(s); g.sb.WriteByte('\n') }

func (g *gen) name(prefix string) string {
	g.n++
	return fmt.Sprintf("%s%d", prefix, g.n)
}

func (g *gen) pick(vs []string) string { return vs[g.r.Intn(len(vs))] }

// idx yields an in-bounds index expression for the length-8 arrays.
func (g *gen) idx() string { return fmt.Sprintf("%d", g.r.Intn(8)) }

// shiftDist yields a shift distance in -40..70, sometimes as a long, so
// both the 5-bit and the 6-bit masks and the left operand's promotion show.
func (g *gen) shiftDist() string {
	d := fmt.Sprintf("%d", g.r.Intn(111)-40)
	if g.r.Intn(3) == 0 {
		d += "L"
	}
	return d
}

// intExpr generates an int-typed expression.
func (g *gen) intExpr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(201)-100)
		case 1:
			return g.pick(g.ints)
		default:
			return "a0[" + g.idx() + "]"
		}
	}
	switch g.r.Intn(13) {
	case 0:
		return "(" + g.intExpr(depth-1) + " + " + g.intExpr(depth-1) + ")"
	case 1:
		return "(" + g.intExpr(depth-1) + " - " + g.intExpr(depth-1) + ")"
	case 2:
		return "(" + g.intExpr(depth-1) + " * " + g.intExpr(depth-1) + ")"
	case 3:
		// Positive constant denominators keep the hot path exception-free;
		// the try/catch template owns the div-by-zero parity case.
		return fmt.Sprintf("(%s %% %d)", g.intExpr(depth-1), []int{2, 3, 5, 7}[g.r.Intn(4)])
	case 4:
		return fmt.Sprintf("(%s / %d)", g.intExpr(depth-1), []int{2, 3, 5, 11}[g.r.Intn(4)])
	case 5:
		return "(" + g.boolExpr(depth-1) + " ? " + g.intExpr(depth-1) + " : " + g.intExpr(depth-1) + ")"
	case 6:
		return "g(" + g.intExpr(depth-1) + ")"
	case 7:
		return "(" + g.intExpr(depth-1) + " " + g.pick([]string{"&", "|", "^"}) + " " + g.intExpr(depth-1) + ")"
	case 8:
		return "(" + g.intExpr(depth-1) + " " + g.pick([]string{"<<", ">>"}) + " " + g.shiftDist() + ")"
	case 9:
		// A narrow value through a cast, read as an int.
		return "((" + g.pick([]string{"short", "byte", "char"}) + ") (" + g.intExpr(depth-1) + "))"
	case 10:
		// char with int: binary numeric promotion to int.
		return "(" + g.pick([]string{"c0", "'z'"}) + " " + g.pick([]string{"+", "-", "*"}) + " " + g.intExpr(depth-1) + ")"
	case 11:
		return "(int) (" + g.longExpr(depth-1) + ")"
	default:
		if g.r.Intn(2) == 0 {
			return "p0.bump()"
		}
		return "(int) (" + g.dblExpr(depth-1) + ")"
	}
}

// longExpr generates a long-typed expression.
func (g *gen) longExpr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%dL", g.r.Int63n(1<<40)-1<<39)
		case 1:
			return g.pick(g.longs)
		default:
			return fmt.Sprintf("%dL", g.r.Intn(201)-100)
		}
	}
	switch g.r.Intn(10) {
	case 0:
		return "(" + g.longExpr(depth-1) + " + " + g.longExpr(depth-1) + ")"
	case 1:
		return "(" + g.longExpr(depth-1) + " - " + g.longExpr(depth-1) + ")"
	case 2:
		return "(" + g.longExpr(depth-1) + " * " + g.longExpr(depth-1) + ")"
	case 3:
		return fmt.Sprintf("(%s %s %dL)", g.longExpr(depth-1), g.pick([]string{"/", "%"}), []int{3, 7, 1000003}[g.r.Intn(3)])
	case 4:
		return "(" + g.longExpr(depth-1) + " " + g.pick([]string{"&", "|", "^"}) + " " + g.longExpr(depth-1) + ")"
	case 5:
		return "(" + g.longExpr(depth-1) + " " + g.pick([]string{"<<", ">>"}) + " " + g.shiftDist() + ")"
	case 6:
		// int with long, either side: binary numeric promotion to long.
		if g.r.Intn(2) == 0 {
			return "(" + g.intExpr(depth-1) + " " + g.pick([]string{"+", "*", "-"}) + " " + g.longExpr(depth-1) + ")"
		}
		return "(" + g.longExpr(depth-1) + " " + g.pick([]string{"+", "*", "-"}) + " " + g.intExpr(depth-1) + ")"
	case 7:
		return "k(" + g.longExpr(depth-1) + ", " + g.fltExpr(depth-1) + ")"
	case 8:
		return "(long) (" + g.dblExpr(depth-1) + ")"
	default:
		return "(" + g.boolExpr(depth-1) + " ? " + g.longExpr(depth-1) + " : " + g.longExpr(depth-1) + ")"
	}
}

// fltExpr generates a float-typed expression.
func (g *gen) fltExpr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%.3ff", float64(g.r.Intn(8000))/64-60)
		case 1:
			return "2.5e1f" // scientific float literal
		default:
			return g.pick(g.flts)
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return "(" + g.fltExpr(depth-1) + " + " + g.fltExpr(depth-1) + ")"
	case 1:
		return "(" + g.fltExpr(depth-1) + " - " + g.fltExpr(depth-1) + ")"
	case 2:
		return "(" + g.fltExpr(depth-1) + " * " + g.fltExpr(depth-1) + ")"
	case 3:
		return "(" + g.fltExpr(depth-1) + " " + g.pick([]string{"/", "%"}) + " " + g.fltExpr(depth-1) + ")"
	case 4:
		// float with int and with long: promotion to float.
		if g.r.Intn(2) == 0 {
			return "(" + g.fltExpr(depth-1) + " * " + g.intExpr(depth-1) + ")"
		}
		return "(" + g.longExpr(depth-1) + " + " + g.fltExpr(depth-1) + ")"
	case 5:
		return "(float) (" + g.dblExpr(depth-1) + ")"
	case 6:
		return "(-(" + g.fltExpr(depth-1) + "))"
	default:
		return "(" + g.boolExpr(depth-1) + " ? " + g.fltExpr(depth-1) + " : " + g.fltExpr(depth-1) + ")"
	}
}

// dblExpr generates a double-typed expression.
func (g *gen) dblExpr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%.2f", float64(g.r.Intn(800))/4-50)
		case 1:
			return "3.5e2" // scientific literal: the costlier parse charge
		case 2:
			return g.pick(g.dbls)
		default:
			return "e0[" + g.idx() + "]"
		}
	}
	switch g.r.Intn(9) {
	case 0:
		return "(" + g.dblExpr(depth-1) + " + " + g.dblExpr(depth-1) + ")"
	case 1:
		return "(" + g.dblExpr(depth-1) + " - " + g.dblExpr(depth-1) + ")"
	case 2:
		return "(" + g.dblExpr(depth-1) + " * " + g.dblExpr(depth-1) + ")"
	case 3:
		return fmt.Sprintf("(%s / %d.0)", g.dblExpr(depth-1), []int{2, 4, 8}[g.r.Intn(3)])
	case 4:
		return "(" + g.boolExpr(depth-1) + " ? " + g.dblExpr(depth-1) + " : " + g.dblExpr(depth-1) + ")"
	case 5:
		return "h(" + g.dblExpr(depth-1) + ", " + g.intExpr(depth-1) + ")"
	case 6:
		// float with double, either side: promotion to double.
		if g.r.Intn(2) == 0 {
			return "(" + g.fltExpr(depth-1) + " " + g.pick([]string{"+", "*", "/"}) + " " + g.dblExpr(depth-1) + ")"
		}
		return "(" + g.dblExpr(depth-1) + " " + g.pick([]string{"-", "%", "*"}) + " " + g.fltExpr(depth-1) + ")"
	case 7:
		return "(" + g.longExpr(depth-1) + " * 0.5)"
	default:
		return "(double) (" + g.intExpr(depth-1) + ")"
	}
}

// boolExpr generates a boolean-typed expression.
func (g *gen) boolExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return g.pick(g.bools)
		case 1:
			return "true"
		default:
			return "false"
		}
	}
	cmps := []string{"<", "<=", ">", ">=", "==", "!="}
	switch g.r.Intn(7) {
	case 0:
		return "(" + g.intExpr(depth-1) + " " + g.pick(cmps) + " " + g.intExpr(depth-1) + ")"
	case 1:
		return "(" + g.dblExpr(depth-1) + " " + g.pick(cmps) + " " + g.dblExpr(depth-1) + ")"
	case 2:
		return "(" + g.longExpr(depth-1) + " " + g.pick(cmps) + " " + g.intExpr(depth-1) + ")"
	case 3:
		return "(" + g.fltExpr(depth-1) + " " + g.pick(cmps) + " " + g.dblExpr(depth-1) + ")"
	case 4:
		return "(" + g.boolExpr(depth-1) + " && " + g.boolExpr(depth-1) + ")"
	case 5:
		return "(" + g.boolExpr(depth-1) + " || " + g.boolExpr(depth-1) + ")"
	default:
		return "(!" + g.boolExpr(depth-1) + ")"
	}
}

// numExpr picks a numeric kind and generates an expression of it, returning
// the kind's index: 0 int, 1 double, 2 long, 3 float.
func (g *gen) numExpr(depth int) (int, string) {
	switch k := g.r.Intn(4); k {
	case 0:
		return k, g.intExpr(depth)
	case 1:
		return k, g.dblExpr(depth)
	case 2:
		return k, g.longExpr(depth)
	default:
		return k, g.fltExpr(depth)
	}
}

// stmt emits one statement at the current indent. nest bounds statement
// nesting so generated programs stay small.
func (g *gen) stmt(nest int) {
	in := g.indent
	const leaves = 9 // choices below this emit no nested statements
	choice := g.r.Intn(15)
	if nest >= 2 && choice >= leaves {
		choice = g.r.Intn(leaves)
	}
	muts := [][]string{g.mutInts, g.mutDbls, g.mutLongs, g.mutFlts}
	switch choice {
	case 0: // new numeric local
		k, e := g.numExpr(2)
		v := g.name([]string{"li", "ld", "ll", "lf"}[k])
		g.line(in + []string{"int", "double", "long", "float"}[k] + " " + v + " = " + e + ";")
		switch k {
		case 0:
			g.ints, g.mutInts = append(g.ints, v), append(g.mutInts, v)
		case 1:
			g.dbls, g.mutDbls = append(g.dbls, v), append(g.mutDbls, v)
		case 2:
			g.longs, g.mutLongs = append(g.longs, v), append(g.mutLongs, v)
		default:
			g.flts, g.mutFlts = append(g.flts, v), append(g.mutFlts, v)
		}
	case 1: // new narrow local, through a cast
		typ := g.pick([]string{"short", "byte", "char"})
		v := g.name("ln")
		g.line(in + typ + " " + v + " = (" + typ + ") (" + g.intExpr(2) + ");")
		g.ints, g.narrows = append(g.ints, v), append(g.narrows, v)
	case 2: // assignment
		k, e := g.numExpr(2)
		g.line(in + g.pick(muts[k]) + " = " + e + ";")
	case 3: // compound assignment
		k, e := g.numExpr(1)
		op := g.pick([]string{"+=", "-=", "*="})
		if (k == 0 || k == 2) && g.r.Intn(3) == 0 {
			// Integral targets also take the bitwise forms (the dialect
			// has no compound shift).
			op = g.pick([]string{"&=", "|=", "^="})
		}
		g.line(in + g.pick(muts[k]) + " " + op + " " + e + ";")
	case 4: // narrow ++, --, or compound assignment (implicitly narrowing)
		v := g.pick(g.narrows)
		switch g.r.Intn(3) {
		case 0:
			g.line(in + v + g.pick([]string{"++", "--"}) + ";")
		case 1:
			g.line(in + g.pick([]string{"++", "--"}) + v + ";")
		default:
			g.line(in + v + " " + g.pick([]string{"+=", "-=", "*=", "^="}) + " " + g.intExpr(1) + ";")
		}
	case 5: // array store
		if g.r.Intn(2) == 0 {
			g.line(in + "a0[" + g.idx() + "] = " + g.intExpr(2) + ";")
		} else {
			g.line(in + "e0[" + g.idx() + "] = " + g.dblExpr(2) + ";")
		}
	case 6: // println (both engines must produce identical output)
		_, e := g.numExpr(2)
		g.line(in + "System.out.println(" + e + ");")
	case 7: // increment of a long or float variable
		v := g.pick(append(append([]string(nil), g.mutLongs...), g.mutFlts...))
		g.line(in + v + g.pick([]string{"++", "--"}) + ";")
	case 8: // assignment and ++/-- used as values
		k, e := g.numExpr(1)
		switch g.r.Intn(5) {
		case 0: // x = (y op= e)
			g.line(in + g.pick(muts[k]) + " = (" + g.pick(muts[k]) + " " + g.pick([]string{"+=", "-=", "*="}) + " " + e + ");")
		case 1: // an int target takes a double; its int value widens back
			g.line(in + g.pick(g.mutDbls) + " = (" + g.pick(g.mutInts) + " += " + g.dblExpr(1) + ");")
		case 2: // a narrow target's value read as an int
			g.line(in + g.pick(g.mutInts) + " = (" + g.pick(g.narrows) + " " + g.pick([]string{"+=", "-=", "^="}) + " " + g.intExpr(1) + ");")
		case 3: // an element store indexed by ++/--, masked into bounds
			g.line(in + "a0[(" + g.pick(g.mutInts) + g.pick([]string{"++", "--"}) + ") & 7] = (" + g.pick(g.mutInts) + " = " + g.intExpr(1) + ");")
		default: // prefix and postfix values in an expression
			v := g.pick(muts[k])
			if g.r.Intn(2) == 0 {
				v = g.pick([]string{"++", "--"}) + v
			} else {
				v += g.pick([]string{"++", "--"})
			}
			g.line(in + g.pick(muts[k]) + " = " + v + " * 2 + " + e + ";")
		}
	case 9: // if / else
		g.line(in + "if (" + g.boolExpr(2) + ") {")
		g.nested(nest, 1+g.r.Intn(2))
		if g.r.Intn(2) == 0 {
			g.line(in + "} else {")
			g.nested(nest, 1+g.r.Intn(2))
		}
		g.line(in + "}")
	case 10: // bounded for loop; the counter is readable but never assigned
		v := g.name("i")
		bound := 2 + g.r.Intn(7)
		g.line(in + fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {", v, v, bound, v))
		g.ints = append(g.ints, v)
		g.nested(nest, 1+g.r.Intn(2))
		g.line(in + "}")
		g.ints = g.ints[:len(g.ints)-1]
	case 11: // countdown while loop
		v := g.name("w")
		g.line(in + fmt.Sprintf("int %s = %d;", v, 2+g.r.Intn(6)))
		g.line(in + "while (" + v + " > 0) {")
		g.indent += "\t"
		g.line(g.indent + v + " = " + v + " - 1;")
		g.indent = in
		g.ints = append(g.ints, v)
		g.nested(nest, 1)
		g.line(in + "}")
		g.ints = g.ints[:len(g.ints)-1]
	case 12: // switch over a small int range
		g.line(in + "switch (" + g.intExpr(1) + " % 3) {")
		g.line(in + "case 0: " + g.pick(g.mutDbls) + " += 1.0; break;")
		g.line(in + "case 1: " + g.pick(g.mutInts) + " -= 2; break;")
		g.line(in + "default: " + g.pick(g.mutDbls) + " *= 0.5;")
		g.line(in + "}")
	case 13: // guarded division: exception paths must also agree
		tgt := g.pick(g.mutInts)
		ex := g.name("ex")
		g.line(in + "try { " + tgt + " = " + g.intExpr(1) + " / (" + g.intExpr(1) + " % 2); }")
		g.line(in + "catch (ArithmeticException " + ex + ") { " + tgt + " = " + tgt + " + 1; }")
	default: // do-while countdown
		v := g.name("q")
		g.line(in + fmt.Sprintf("int %s = %d;", v, 1+g.r.Intn(5)))
		g.line(in + "do {")
		g.indent += "\t"
		g.line(g.indent + v + " = " + v + " - 1;")
		g.line(g.indent + g.pick(g.mutDbls) + " += 0.25;")
		g.indent = in
		g.line(in + "} while (" + v + " > 0);")
	}
}

// nested emits count statements one indent level deeper, restoring the
// variable vocabulary afterwards so inner declarations stay scoped.
func (g *gen) nested(nest, count int) {
	in, saved := g.indent, g.vocab
	g.indent = in + "\t"
	for i := 0; i < count; i++ {
		g.stmt(nest + 1)
	}
	g.indent, g.vocab = in, saved
}
