package tree

import (
	"strings"
	"testing"

	"jepo/internal/classify"
	"jepo/internal/dataset"
)

// xorish builds a dataset a linear model cannot fit but a depth-2 tree can:
// class = a XOR b over two nominal attributes.
func xorish(n int) *dataset.Dataset {
	d := dataset.New("xor", 2,
		dataset.NewNominal("a", "f", "t"),
		dataset.NewNominal("b", "f", "t"),
		dataset.NewNominal("y", "0", "1"),
	)
	r := classify.NewRNG(5)
	for i := 0; i < n; i++ {
		a, b := float64(r.Intn(2)), float64(r.Intn(2))
		y := 0.0
		if a != b {
			y = 1
		}
		d.Add([]float64{a, b, y})
	}
	return d
}

// thresholdData: class flips at x = 4.25.
func thresholdData(n int) *dataset.Dataset {
	d := dataset.New("thr", 1, dataset.NewNumeric("x"), dataset.NewNominal("y", "lo", "hi"))
	r := classify.NewRNG(9)
	for i := 0; i < n; i++ {
		x := 10 * r.Float64()
		y := 0.0
		if x > 4.25 {
			y = 1
		}
		d.Add([]float64{x, y})
	}
	return d
}

func trainAcc(t *testing.T, c classify.Classifier, d *dataset.Dataset) float64 {
	t.Helper()
	if err := c.Train(d); err != nil {
		t.Fatalf("%s train: %v", c.Name(), err)
	}
	correct := 0
	for i, row := range d.X {
		if c.Predict(row) == d.Class(i) {
			correct++
		}
	}
	return 100 * float64(correct) / float64(d.NumInstances())
}

func TestJ48LearnsXOR(t *testing.T) {
	d := xorish(200)
	c := NewJ48(classify.Options{})
	if acc := trainAcc(t, c, d); acc != 100 {
		t.Errorf("J48 XOR training accuracy = %.1f%%, want 100%%", acc)
	}
	if c.NumNodes() < 3 {
		t.Errorf("J48 tree trivially small: %d nodes", c.NumNodes())
	}
}

func TestJ48FindsNumericThreshold(t *testing.T) {
	d := thresholdData(300)
	c := NewJ48(classify.Options{})
	if acc := trainAcc(t, c, d); acc < 99 {
		t.Errorf("J48 threshold accuracy = %.1f%%", acc)
	}
}

func TestJ48PruningShrinksTree(t *testing.T) {
	// Noisy data: the unpruned tree memorizes, the pruned one must be smaller.
	d := thresholdData(400)
	r := classify.NewRNG(3)
	for i := range d.X {
		if r.Float64() < 0.15 { // 15% label noise
			d.X[i][1] = 1 - d.X[i][1]
		}
	}
	unpruned := NewJ48(classify.Options{})
	unpruned.Unpruned = true
	unpruned.Train(d)
	pruned := NewJ48(classify.Options{})
	pruned.Train(d)
	if pruned.NumNodes() >= unpruned.NumNodes() {
		t.Errorf("pruned %d nodes, unpruned %d — pruning had no effect",
			pruned.NumNodes(), unpruned.NumNodes())
	}
}

func TestJ48EmptyDataset(t *testing.T) {
	d := thresholdData(1).Empty()
	if err := NewJ48(classify.Options{}).Train(d); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestREPTreePrunesAgainstHoldout(t *testing.T) {
	d := thresholdData(600)
	r := classify.NewRNG(3)
	for i := range d.X {
		if r.Float64() < 0.2 {
			d.X[i][1] = 1 - d.X[i][1]
		}
	}
	noPrune := NewREPTree(classify.Options{Seed: 2})
	noPrune.NoPruning = true
	noPrune.Train(d)
	pruned := NewREPTree(classify.Options{Seed: 2})
	pruned.Train(d)
	if pruned.NumNodes() > noPrune.NumNodes() {
		t.Errorf("REP pruning grew the tree: %d > %d", pruned.NumNodes(), noPrune.NumNodes())
	}
	if acc := trainAcc(t, pruned, d); acc < 70 {
		t.Errorf("REPTree accuracy = %.1f%%", acc)
	}
}

func TestRandomTreeUsesSeed(t *testing.T) {
	d := xorish(120)
	a := NewRandomTree(classify.Options{Seed: 1})
	b := NewRandomTree(classify.Options{Seed: 1})
	c := NewRandomTree(classify.Options{Seed: 99})
	a.Train(d)
	b.Train(d)
	c.Train(d)
	if a.NumNodes() != b.NumNodes() {
		t.Error("same seed produced different trees")
	}
	// XOR is learnable regardless of subset randomness here (K covers both).
	if acc := trainAcc(t, a, d); acc < 95 {
		t.Errorf("RandomTree XOR accuracy = %.1f%%", acc)
	}
}

func TestRandomForestMajorityBeatsSingleTreeOnNoise(t *testing.T) {
	d := thresholdData(500)
	r := classify.NewRNG(4)
	for i := range d.X {
		if r.Float64() < 0.25 {
			d.X[i][1] = 1 - d.X[i][1]
		}
	}
	// Hold out the last 100 rows.
	train := d.Subset(seq(0, 400))
	test := d.Subset(seq(400, 500))
	tree := NewRandomTree(classify.Options{Seed: 6})
	tree.Train(train)
	forest := NewRandomForest(classify.Options{Seed: 6}, 25)
	forest.Train(train)
	tAcc := testAcc(tree, test)
	fAcc := testAcc(forest, test)
	// With one attribute, bagging has little to decorrelate — the check is
	// that the ensemble works and is not catastrophically worse.
	if fAcc < 60 || fAcc < tAcc-5 {
		t.Errorf("forest (%.1f%%) degenerate vs single tree (%.1f%%) on noisy data", fAcc, tAcc)
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func testAcc(c classify.Classifier, d *dataset.Dataset) float64 {
	correct := 0
	for i, row := range d.X {
		if c.Predict(row) == d.Class(i) {
			correct++
		}
	}
	return 100 * float64(correct) / float64(d.NumInstances())
}

func TestPredictUnseenNominalFallsBack(t *testing.T) {
	d := xorish(100)
	c := NewJ48(classify.Options{})
	c.Train(d)
	// Out-of-range nominal index routes to the node majority, not a panic.
	if p := c.Predict([]float64{5, 5, 0}); p != 0 && p != 1 {
		t.Errorf("fallback prediction = %d", p)
	}
}

func TestZScore(t *testing.T) {
	// z for the one-sided 25% tail is ≈0.6745.
	z := zScore(0.25)
	if z < 0.67 || z > 0.68 {
		t.Errorf("zScore(0.25) = %v, want ≈0.6745", z)
	}
	if z05 := zScore(0.05); z05 < 1.64 || z05 > 1.65 {
		t.Errorf("zScore(0.05) = %v, want ≈1.645", z05)
	}
}

func TestRandomForestParallelEmptyData(t *testing.T) {
	f := NewRandomForest(classify.Options{}, 4)
	if err := f.Train(thresholdData(1).Empty()); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestJ48StringRendering(t *testing.T) {
	d := xorish(200)
	c := NewJ48(classify.Options{})
	if (&J48{}).String() == "" {
		t.Error("untrained tree must still render")
	}
	c.Train(d)
	c.SetLabels([]string{"a", "b"}, []string{"zero", "one"})
	out := c.String()
	for _, want := range []string{"J48 pruned tree", "a = ", "zero", "one", "Number of Nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree rendering missing %q:\n%s", want, out)
		}
	}
	// Numeric splits render thresholds.
	d2 := thresholdData(200)
	c2 := NewJ48(classify.Options{})
	c2.Train(d2)
	c2.SetLabels([]string{"x"}, []string{"lo", "hi"})
	if out := c2.String(); !strings.Contains(out, "x <= ") || !strings.Contains(out, "x > ") {
		t.Errorf("numeric split rendering missing:\n%s", out)
	}
}
