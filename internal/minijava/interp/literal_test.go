package interp

import (
	"math"
	"testing"

	"jepo/internal/energy"
)

// opCounts reads every op counter of in's meter.
func opCounts(in *Interp) [energy.NumOps]uint64 {
	var c [energy.NumOps]uint64
	for op := range c {
		c[op] = in.Meter().OpCount(energy.Op(op))
	}
	return c
}

// TestIntegerLiteralRanges runs the integer literals JLS §3.10.1 admits at
// the edges of int and long, hex digits grouped by underscores among them,
// on both engines: each gives Java's value and charges exactly what its
// in-range neighbour does, op for op.
func TestIntegerLiteralRanges(t *testing.T) {
	for _, c := range []struct {
		typ, lit, neighbour string
		want                int64
	}{
		{"int", "-2147483648", "-2147483647", math.MinInt32},
		{"int", "0xFFFFFFFF", "0x7FFFFFFF", -1},
		{"int", "0x80000000", "0x7FFFFFFF", math.MinInt32},
		{"int", "037777777777", "017777777777", -1},
		{"long", "-9223372036854775808L", "-9223372036854775807L", math.MinInt64},
		{"long", "0xFFFFFFFFFFFFFFFFL", "0x7FFFFFFFFFFFFFFFL", -1},
		{"int", "0x7FFF_FFFF", "0x7FFFFFFE", math.MaxInt32},
		{"int", "0xFFFF_FFFF", "0x7FFFFFFF", -1},
		{"long", "0xFFFF_FFFF_FFFF_FFFFL", "0x7FFFFFFFFFFFFFFFL", -1},
	} {
		src := "class T { static " + c.typ + " f() { return " + c.lit + "; } static " +
			c.typ + " g() { return " + c.neighbour + "; } }"
		for _, e := range engines {
			in := newOn(t, e, src)
			c0, ops0 := opCounts(in), in.Ops()
			v, err := in.CallStatic("T", "f")
			c1, ops1 := opCounts(in), in.Ops()
			if _, err := in.CallStatic("T", "g"); err != nil {
				t.Fatalf("%v %s: %v", e, c.neighbour, err)
			}
			c2, ops2 := opCounts(in), in.Ops()
			if err != nil || v.I != c.want {
				t.Errorf("%v: %s = %v (%v), want %d", e, c.lit, v, err, c.want)
			}
			if ops1-ops0 != ops2-ops1 {
				t.Errorf("%v: %s steps %d, %s steps %d", e, c.lit, ops1-ops0, c.neighbour, ops2-ops1)
			}
			for op := range c0 {
				if c1[op]-c0[op] != c2[op]-c1[op] {
					t.Errorf("%v: %s charges %v %d times, %s %d times",
						e, c.lit, energy.Op(op), c1[op]-c0[op], c.neighbour, c2[op]-c1[op])
				}
			}
		}
	}
}
