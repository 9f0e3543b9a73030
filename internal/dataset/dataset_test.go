package dataset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func sample(t *testing.T) *Dataset {
	t.Helper()
	d := New("toy", 2,
		NewNumeric("x"),
		NewNominal("color", "red", "green", "blue"),
		NewNominal("class", "no", "yes"),
	)
	rows := [][]float64{
		{1.5, 0, 0},
		{2.5, 1, 1},
		{3.5, 2, 0},
		{4.5, 0, 1},
		{5.5, 1, 0},
		{6.5, 2, 1},
		{7.5, 0, 0},
		{8.5, 1, 1},
	}
	for _, r := range rows {
		if err := d.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestBasicAccessors(t *testing.T) {
	d := sample(t)
	if d.NumInstances() != 8 || d.NumAttrs() != 3 || d.NumClasses() != 2 {
		t.Fatalf("shape wrong: %d×%d, %d classes", d.NumInstances(), d.NumAttrs(), d.NumClasses())
	}
	if d.Class(1) != 1 || d.Class(0) != 0 {
		t.Error("class extraction wrong")
	}
	if got := d.ClassCounts(); got[0] != 4 || got[1] != 4 {
		t.Errorf("class counts = %v", got)
	}
	if d.DistinctValues(1) != 3 {
		t.Errorf("distinct colors = %d", d.DistinctValues(1))
	}
}

func TestAddValidates(t *testing.T) {
	d := sample(t)
	if err := d.Add([]float64{1, 2}); err == nil {
		t.Error("short row accepted")
	}
	if err := d.Add([]float64{1, 9, 0}); err == nil {
		t.Error("out-of-range nominal accepted")
	}
	if err := d.Add([]float64{1, math.NaN(), 0}); err != nil {
		t.Errorf("missing nominal rejected: %v", err)
	}
}

func TestNewPanicsOnBadClassIdx(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad class index must panic")
		}
	}()
	New("bad", 5, NewNumeric("x"))
}

func TestNumericStats(t *testing.T) {
	d := sample(t)
	mean, std, n := d.NumericStats(0, -1)
	if n != 8 || math.Abs(mean-5.0) > 1e-12 {
		t.Errorf("mean = %v over %d", mean, n)
	}
	if std <= 0 {
		t.Error("std must be positive")
	}
	meanYes, _, nYes := d.NumericStats(0, 1)
	if nYes != 4 || math.Abs(meanYes-(2.5+4.5+6.5+8.5)/4) > 1e-12 {
		t.Errorf("class-conditional mean = %v over %d", meanYes, nYes)
	}
}

func TestStratifiedFolds(t *testing.T) {
	d := sample(t)
	folds, err := d.StratifiedFolds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 4 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]bool{}
	for _, fold := range folds {
		if len(fold) != 2 {
			t.Errorf("fold size = %d, want 2", len(fold))
		}
		classes := map[int]int{}
		for _, r := range fold {
			if seen[r] {
				t.Errorf("row %d in two folds", r)
			}
			seen[r] = true
			classes[d.Class(r)]++
		}
		// Perfectly balanced data, stratified: one of each class per fold.
		if classes[0] != 1 || classes[1] != 1 {
			t.Errorf("fold class balance = %v", classes)
		}
	}
	if len(seen) != 8 {
		t.Errorf("rows covered = %d", len(seen))
	}
	train, test := d.TrainTest(folds, 0)
	if train.NumInstances() != 6 || test.NumInstances() != 2 {
		t.Errorf("split sizes = %d/%d", train.NumInstances(), test.NumInstances())
	}
	// Determinism.
	folds2, _ := d.StratifiedFolds(4, 1)
	for i := range folds {
		for j := range folds[i] {
			if folds[i][j] != folds2[i][j] {
				t.Fatal("folds not deterministic for fixed seed")
			}
		}
	}
}

func TestStratifiedFoldsErrors(t *testing.T) {
	d := sample(t)
	if _, err := d.StratifiedFolds(1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := d.StratifiedFolds(100, 1); err == nil {
		t.Error("k>n accepted")
	}
}

func TestSubsetHeadShuffle(t *testing.T) {
	d := sample(t)
	s := d.Subset([]int{0, 2})
	if s.NumInstances() != 2 || s.X[1][0] != 3.5 {
		t.Error("subset wrong")
	}
	sh := d.Shuffle(7)
	if sh.NumInstances() != 8 {
		t.Error("shuffle changed size")
	}
	var sum float64
	for _, row := range sh.X {
		sum += row[0]
	}
	if math.Abs(sum-(1.5+2.5+3.5+4.5+5.5+6.5+7.5+8.5)) > 1e-9 {
		t.Error("shuffle lost rows")
	}
}

func TestMajorityClass(t *testing.T) {
	d := sample(t)
	d.Add([]float64{9.5, 0, 1})
	if d.MajorityClass() != 1 {
		t.Error("majority wrong")
	}
}

func TestARFFRoundTrip(t *testing.T) {
	d := sample(t)
	d.X[0][0] = math.NaN() // exercise a missing value
	var buf bytes.Buffer
	if err := d.WriteARFF(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadARFF(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if got.NumInstances() != d.NumInstances() || got.NumAttrs() != d.NumAttrs() {
		t.Fatalf("shape changed: %d×%d", got.NumInstances(), got.NumAttrs())
	}
	if got.Attrs[1].Kind != Nominal || got.Attrs[1].Values[2] != "blue" {
		t.Error("nominal attribute lost")
	}
	if !math.IsNaN(got.X[0][0]) {
		t.Error("missing value lost")
	}
	for i := 1; i < d.NumInstances(); i++ {
		for j := 0; j < d.NumAttrs(); j++ {
			if got.X[i][j] != d.X[i][j] {
				t.Errorf("cell (%d,%d) = %v, want %v", i, j, got.X[i][j], d.X[i][j])
			}
		}
	}
}

func TestARFFQuoting(t *testing.T) {
	d := New("has space", 1, NewNominal("a", "v 1", "v,2"), NewNominal("c", "x", "y"))
	d.Add([]float64{1, 0})
	var buf bytes.Buffer
	if err := d.WriteARFF(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadARFF(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if got.Attrs[0].Values[1] != "v,2" {
		t.Errorf("quoted value lost: %q", got.Attrs[0].Values[1])
	}
}

func TestARFFErrors(t *testing.T) {
	for _, src := range []string{
		"@data\n1,2\n",
		"@relation r\n@attribute a wat\n@data\n",
		"@relation r\n@attribute a numeric\n@data\n1,2\n",
		"@relation r\n@attribute a numeric\n@data\nxyz\n",
		"@relation r\n@attribute a {x,y}\n@data\nz\n",
		"@relation r\n@attribute a numeric\n",
		"bogus\n",
	} {
		if _, err := ReadARFF(bytes.NewBufferString(src)); err == nil {
			t.Errorf("ReadARFF(%q): want error", src)
		}
	}
}

// Property: stratified folds always partition the row set, for any k and
// class skew.
func TestStratifiedFoldsPartitionProperty(t *testing.T) {
	f := func(nRows uint8, kRaw uint8, seed uint64) bool {
		n := int(nRows)%200 + 10
		k := int(kRaw)%8 + 2
		d := New("p", 1, NewNumeric("x"), NewNominal("c", "a", "b", "cc"))
		for i := 0; i < n; i++ {
			d.Add([]float64{float64(i), float64(i % 3)})
		}
		folds, err := d.StratifiedFolds(k, seed)
		if err != nil {
			return n < k
		}
		seen := map[int]bool{}
		total := 0
		for _, fold := range folds {
			total += len(fold)
			for _, r := range fold {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
