// Package dataset is the WEKA-style data layer: attributes (nominal and
// numeric), instance storage, stratified k-fold splitting, and ARFF/CSV
// round-tripping. Nominal values are stored as value indices in float64
// cells, exactly as WEKA's Instances does.
package dataset

import (
	"fmt"
	"math"
)

// AttrKind distinguishes nominal from numeric attributes.
type AttrKind int

// Attribute kinds. Binary class attributes are nominal with two values.
const (
	Numeric AttrKind = iota
	Nominal
)

// String names the kind as Table III does.
func (k AttrKind) String() string {
	if k == Nominal {
		return "Nominal"
	}
	return "Numeric"
}

// Attribute describes one column.
type Attribute struct {
	Name   string
	Kind   AttrKind
	Values []string // nominal values, in index order
	index  map[string]int
}

// NewNumeric builds a numeric attribute.
func NewNumeric(name string) *Attribute { return &Attribute{Name: name, Kind: Numeric} }

// NewNominal builds a nominal attribute over the given value set.
func NewNominal(name string, values ...string) *Attribute {
	a := &Attribute{Name: name, Kind: Nominal, Values: values, index: map[string]int{}}
	for i, v := range values {
		a.index[v] = i
	}
	return a
}

// IndexOf resolves a nominal value to its index, adding it when new values
// are permitted (index map initialized) and the value is unseen.
func (a *Attribute) IndexOf(v string) (int, bool) {
	i, ok := a.index[v]
	return i, ok
}

// NumValues is the nominal cardinality (0 for numeric attributes).
func (a *Attribute) NumValues() int { return len(a.Values) }

// Dataset is a set of instances over a fixed attribute schema.
type Dataset struct {
	Name     string
	Attrs    []*Attribute
	ClassIdx int
	X        [][]float64
}

// New builds an empty dataset; classIdx names the class attribute.
func New(name string, classIdx int, attrs ...*Attribute) *Dataset {
	if classIdx < 0 || classIdx >= len(attrs) {
		panic("dataset: class index out of range")
	}
	return &Dataset{Name: name, Attrs: attrs, ClassIdx: classIdx}
}

// Add appends one instance. The row is used directly (not copied).
func (d *Dataset) Add(row []float64) error {
	if len(row) != len(d.Attrs) {
		return fmt.Errorf("dataset: row has %d cells, schema has %d attributes", len(row), len(d.Attrs))
	}
	for j, a := range d.Attrs {
		if a.Kind == Nominal && !math.IsNaN(row[j]) {
			if v := int(row[j]); v < 0 || v >= a.NumValues() {
				return fmt.Errorf("dataset: attribute %s value index %d out of range [0,%d)",
					a.Name, v, a.NumValues())
			}
		}
	}
	d.X = append(d.X, row)
	return nil
}

// NumInstances is the number of rows.
func (d *Dataset) NumInstances() int { return len(d.X) }

// NumAttrs is the number of attributes including the class.
func (d *Dataset) NumAttrs() int { return len(d.Attrs) }

// ClassAttr is the class attribute.
func (d *Dataset) ClassAttr() *Attribute { return d.Attrs[d.ClassIdx] }

// NumClasses is the class cardinality.
func (d *Dataset) NumClasses() int { return d.ClassAttr().NumValues() }

// Class returns the class index of row i.
func (d *Dataset) Class(i int) int { return int(d.X[i][d.ClassIdx]) }

// Empty returns a dataset with the same schema and no rows.
func (d *Dataset) Empty() *Dataset {
	return &Dataset{Name: d.Name, Attrs: d.Attrs, ClassIdx: d.ClassIdx}
}

// Subset copies the given rows into a new dataset sharing the schema.
func (d *Dataset) Subset(rows []int) *Dataset {
	out := d.Empty()
	out.X = make([][]float64, 0, len(rows))
	for _, r := range rows {
		out.X = append(out.X, d.X[r])
	}
	return out
}

// ClassCounts tallies instances per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	for i := range d.X {
		counts[d.Class(i)]++
	}
	return counts
}

// MajorityClass returns the most frequent class index.
func (d *Dataset) MajorityClass() int {
	counts := d.ClassCounts()
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best
}

// NumericStats reports mean and standard deviation of a numeric column,
// optionally restricted to one class (class < 0 means all rows).
func (d *Dataset) NumericStats(attr, class int) (mean, std float64, n int) {
	var sum, sumSq float64
	for i, row := range d.X {
		if class >= 0 && d.Class(i) != class {
			continue
		}
		v := row[attr]
		if math.IsNaN(v) {
			continue
		}
		sum += v
		sumSq += v * v
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance), n
}

// DistinctValues counts distinct non-missing values in a column. For nominal
// columns it is the number of values actually present, which is how the paper
// reports 18 airlines and 293 airports in Table III.
func (d *Dataset) DistinctValues(attr int) int {
	seen := map[float64]bool{}
	for _, row := range d.X {
		if !math.IsNaN(row[attr]) {
			seen[row[attr]] = true
		}
	}
	return len(seen)
}

// rng is a small deterministic PRNG (xorshift*), used so splits are
// reproducible without the banned global clock seeding.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x2545F4914F6CDD1D
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a uniform int in [0, n).
func (r *rng) Intn(n int) int { return int(r.next() % uint64(n)) }

// StratifiedFolds splits row indices into k folds preserving class ratios —
// the paper's "stratified 10-fold cross-validation". The split is
// deterministic for a given seed.
func (d *Dataset) StratifiedFolds(k int, seed uint64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("dataset: need at least 2 folds, got %d", k)
	}
	if d.NumInstances() < k {
		return nil, fmt.Errorf("dataset: %d instances cannot fill %d folds", d.NumInstances(), k)
	}
	r := newRNG(seed)
	// Group rows by class, shuffle within class, deal round-robin.
	byClass := make([][]int, d.NumClasses())
	for i := range d.X {
		c := d.Class(i)
		byClass[c] = append(byClass[c], i)
	}
	folds := make([][]int, k)
	next := 0
	for _, rows := range byClass {
		for i := len(rows) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			rows[i], rows[j] = rows[j], rows[i]
		}
		for _, row := range rows {
			folds[next%k] = append(folds[next%k], row)
			next++
		}
	}
	return folds, nil
}

// TrainTest materializes the train/test split for fold f.
func (d *Dataset) TrainTest(folds [][]int, f int) (train, test *Dataset) {
	var trainRows []int
	for i, fold := range folds {
		if i == f {
			continue
		}
		trainRows = append(trainRows, fold...)
	}
	return d.Subset(trainRows), d.Subset(folds[f])
}

// Shuffle returns a row-shuffled copy (deterministic for a seed).
func (d *Dataset) Shuffle(seed uint64) *Dataset {
	r := newRNG(seed)
	rows := make([]int, len(d.X))
	for i := range rows {
		rows[i] = i
	}
	for i := len(rows) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		rows[i], rows[j] = rows[j], rows[i]
	}
	return d.Subset(rows)
}
