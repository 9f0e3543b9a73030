// Package classify is the WEKA substrate: from-scratch implementations of
// the ten classifiers the paper's Table II/IV evaluate — J48 (C4.5),
// RandomTree, RandomForest, REPTree, NaiveBayes, Logistic (ridge), SMO, SGD,
// KStar and IBk — over the dataset package's instances, plus stratified
// cross-validation in the eval subpackage.
//
// Every classifier supports a single-precision mode in which key numeric
// accumulations are rounded through float32. This reproduces the paper's
// accuracy-drop mechanism: its Table IV notes "there was precision loss when
// we changed double to float or long to int".
package classify

import (
	"jepo/internal/dataset"
)

// Classifier is the common training/prediction interface.
type Classifier interface {
	// Name is the WEKA-style display name.
	Name() string
	// Train fits the model to the dataset.
	Train(d *dataset.Dataset) error
	// Predict returns the predicted class index for a row laid out in the
	// training schema (the class cell is ignored).
	Predict(row []float64) int
}

// FP controls numeric precision. The zero value is double precision; Single
// rounds accumulations through float32, reproducing a double→float refactor.
type FP bool

// Precision modes.
const (
	Double FP = false
	Single FP = true
)

// R rounds a value according to the precision mode.
func (fp FP) R(x float64) float64 {
	if fp {
		return float64(float32(x))
	}
	return x
}

// Options configure classifier construction.
type Options struct {
	Seed uint64
	FP   FP
}

// RNG is the deterministic generator shared by the randomized classifiers.
type RNG struct{ s uint64 }

// NewRNG seeds a generator (seed 0 is remapped to a fixed constant).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Next returns the next 64 random bits (SplitMix64).
func (r *RNG) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Next()>>11) / float64(1<<53) }

// Feature is one non-zero feature of an encoded row.
type Feature struct {
	I int     // index into the encoded dimension
	V float64 // value: never an exact zero (a NaN is kept)
}

// Row is an encoded row: its non-zero features, indices ascending.
type Row []Feature

// Dot is the inner product of two rows. It merges them in index order and
// adds the product of each index both hold, left to right: the same terms in
// the same order as a dense loop that skips zeros, so the same bits.
func Dot(a, b Row) float64 {
	dot := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].I < b[j].I:
			i++
		case a[i].I > b[j].I:
			j++
		default:
			dot += a[i].V * b[j].V
			i++
			j++
		}
	}
	return dot
}

// Encoder maps dataset rows to sparse feature vectors: numeric attributes are
// standardized, nominal attributes are one-hot encoded, and only the non-zero
// features are kept. The linear models (Logistic, SGD, SMO) share it.
type Encoder struct {
	attrs    []*dataset.Attribute
	classIdx int
	offsets  []int // feature offset per attribute (-1 for the class)
	dim      int
	mean     []float64 // per numeric attr
	std      []float64
}

// NewEncoder builds an encoder for the dataset's schema and fits the numeric
// standardization to its rows.
func NewEncoder(d *dataset.Dataset) *Encoder {
	e := &Encoder{attrs: d.Attrs, classIdx: d.ClassIdx}
	e.offsets = make([]int, len(d.Attrs))
	e.mean = make([]float64, len(d.Attrs))
	e.std = make([]float64, len(d.Attrs))
	for j, a := range d.Attrs {
		if j == d.ClassIdx {
			e.offsets[j] = -1
			continue
		}
		e.offsets[j] = e.dim
		if a.Kind == dataset.Nominal {
			e.dim += a.NumValues()
		} else {
			m, s, _ := d.NumericStats(j, -1)
			if s == 0 {
				s = 1
			}
			e.mean[j], e.std[j] = m, s
			e.dim++
		}
	}
	return e
}

// Dim is the encoded feature dimension.
func (e *Encoder) Dim() int { return e.dim }

// Encode returns row's non-zero features, indices ascending.
func (e *Encoder) Encode(row []float64) Row {
	return e.appendRow(make(Row, 0, len(e.attrs)), row)
}

// appendRow appends row's non-zero features to dst: at most one per
// attribute. Attribute offsets grow with the attribute index, so the indices
// come out ascending.
func (e *Encoder) appendRow(dst Row, row []float64) Row {
	for j, a := range e.attrs {
		if j == e.classIdx {
			continue
		}
		off := e.offsets[j]
		if a.Kind == dataset.Nominal {
			v := int(row[j])
			if v >= 0 && v < a.NumValues() {
				dst = append(dst, Feature{off + v, 1})
			}
			continue
		}
		if v := (row[j] - e.mean[j]) / e.std[j]; v != 0 {
			dst = append(dst, Feature{off, v})
		}
	}
	return dst
}

// EncodeAll encodes every row of d plus its class label. The rows share one
// backing array.
func (e *Encoder) EncodeAll(d *dataset.Dataset) ([]Row, []int) {
	x := make([]Row, d.NumInstances())
	y := make([]int, d.NumInstances())
	flat := make(Row, 0, d.NumInstances()*len(e.attrs))
	for i, row := range d.X {
		start := len(flat)
		flat = e.appendRow(flat, row)
		x[i] = flat[start:len(flat):len(flat)]
		y[i] = d.Class(i)
	}
	return x, y
}

// ArgMax returns the index of the largest value (first on ties).
func ArgMax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
