package classify

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"jepo/internal/dataset"
)

func TestFPRounding(t *testing.T) {
	x := 0.1
	if Double.R(x) != x {
		t.Error("double mode must be identity")
	}
	if Single.R(x) == x {
		t.Error("single mode must round 0.1 through float32")
	}
	if Single.R(x) != float64(float32(x)) {
		t.Error("single mode must equal float32 round-trip")
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	r := NewRNG(0) // zero seed remapped, must not panic or stick
	if r.Next() == r.Next() {
		t.Error("rng stuck")
	}
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 3, 2}) != 1 {
		t.Error("argmax wrong")
	}
	if ArgMax([]float64{5, 5, 5}) != 0 {
		t.Error("tie must pick first")
	}
}

func encDataset() *dataset.Dataset {
	d := dataset.New("enc", 2,
		dataset.NewNumeric("x"),
		dataset.NewNominal("c", "a", "b", "c"),
		dataset.NewNominal("y", "n", "p"),
	)
	d.Add([]float64{1, 0, 0})
	d.Add([]float64{3, 1, 1})
	d.Add([]float64{5, 2, 0})
	return d
}

// dense expands a sparse row to its dense vector of length dim.
func dense(r Row, dim int) []float64 {
	out := make([]float64, dim)
	for _, f := range r {
		out[f.I] = f.V
	}
	return out
}

func TestEncoderLayout(t *testing.T) {
	d := encDataset()
	e := NewEncoder(d)
	if e.Dim() != 4 { // 1 numeric + 3 one-hot; class excluded
		t.Fatalf("dim = %d, want 4", e.Dim())
	}
	out := dense(e.Encode(d.X[1]), e.Dim())
	// Numeric standardized: mean 3, std sqrt(8/3).
	if math.Abs(out[0]) > 1e-9 {
		t.Errorf("standardized middle value = %v, want 0", out[0])
	}
	if out[1] != 0 || out[2] != 1 || out[3] != 0 {
		t.Errorf("one-hot = %v", out[1:])
	}
}

func TestEncoderHandlesConstantColumn(t *testing.T) {
	d := dataset.New("const", 1, dataset.NewNumeric("x"), dataset.NewNominal("y", "a", "b"))
	d.Add([]float64{2, 0})
	d.Add([]float64{2, 1})
	e := NewEncoder(d)
	out := dense(e.Encode(d.X[0]), e.Dim())
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Error("constant column produced non-finite feature")
	}
}

func TestEncodeAll(t *testing.T) {
	d := encDataset()
	e := NewEncoder(d)
	x, y := e.EncodeAll(d)
	if len(x) != 3 || len(y) != 3 {
		t.Fatal("shape wrong")
	}
	if y[0] != 0 || y[1] != 1 {
		t.Error("labels wrong")
	}
	for i, row := range d.X {
		if !reflect.DeepEqual(x[i], e.Encode(row)) {
			t.Errorf("row %d: EncodeAll %v, Encode %v", i, x[i], e.Encode(row))
		}
	}
}

// Property: encoding never produces non-finite features for in-schema rows.
func TestEncoderFiniteProperty(t *testing.T) {
	d := encDataset()
	e := NewEncoder(d)
	f := func(x float64, nom uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		row := []float64{math.Mod(x, 1e6), float64(nom % 3), 0}
		for _, f := range e.Encode(row) {
			if math.IsNaN(f.V) || math.IsInf(f.V, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEncodeSparseForm checks the row form the training loops rely on:
// indices strictly ascending and no exact zero. A numeric value equal to the
// training mean standardizes to zero and is left out; a missing (NaN) value
// is kept, as the dense loops' v != 0 tests kept it; a nominal index out of
// range sets no feature.
func TestEncodeSparseForm(t *testing.T) {
	d := encDataset()
	e := NewEncoder(d)
	mean, std, _ := d.NumericStats(0, -1)
	for _, c := range []struct {
		row  []float64
		want Row
	}{
		{[]float64{mean, 1, 0}, Row{{2, 1}}},
		{[]float64{5, 2, 0}, Row{{0, (5 - mean) / std}, {3, 1}}},
		{[]float64{math.NaN(), 0, 0}, Row{{0, math.NaN()}, {1, 1}}},
		{[]float64{mean, math.NaN(), 0}, Row{}},
		{[]float64{mean, 3, 0}, Row{}},
	} {
		got := e.Encode(c.row)
		if len(got) != len(c.want) {
			t.Errorf("Encode(%v) = %v, want %v", c.row, got, c.want)
			continue
		}
		for k, f := range got {
			w := c.want[k]
			if f.I != w.I || !(f.V == w.V || math.IsNaN(f.V) && math.IsNaN(w.V)) {
				t.Errorf("Encode(%v) = %v, want %v", c.row, got, c.want)
				break
			}
		}
	}
	r := NewRNG(5)
	prop := func(x float64, nom uint8) bool {
		row := []float64{x, float64(int(nom%5) - 1), 0}
		if r.Intn(4) == 0 {
			row[0] = mean
		}
		got := e.Encode(row)
		for k, f := range got {
			if f.V == 0 || f.I < 0 || f.I >= e.Dim() || k > 0 && got[k-1].I >= f.I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// denseDot is the kernel loop the sparse rows replaced: it skips a feature
// unless both vectors hold a non-zero there and sums in index order.
func denseDot(a, b []float64) float64 {
	dot := 0.0
	for k, v := range a {
		if v != 0 && b[k] != 0 {
			dot += v * b[k]
		}
	}
	return dot
}

// TestDotMatchesDenseLoop checks Dot against the dense loop bit for bit on
// random sparse rows, NaNs included.
func TestDotMatchesDenseLoop(t *testing.T) {
	r := NewRNG(11)
	const dim = 40
	randRow := func() Row {
		var row Row
		for i := 0; i < dim; i++ {
			switch r.Intn(4) {
			case 0:
				row = append(row, Feature{i, r.Float64()*200 - 100})
			case 1:
				if r.Intn(20) == 0 {
					row = append(row, Feature{i, math.NaN()})
				}
			}
		}
		return row
	}
	for n := 0; n < 2000; n++ {
		a, b := randRow(), randRow()
		got, want := Dot(a, b), denseDot(dense(a, dim), dense(b, dim))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Dot(%v, %v) = %v, dense loop %v", a, b, got, want)
		}
	}
}
