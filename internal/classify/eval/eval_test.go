package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"jepo/internal/airlines"
	"jepo/internal/classify"
	"jepo/internal/classify/bayes"
	"jepo/internal/classify/lazy"
	"jepo/internal/classify/linear"
	"jepo/internal/classify/svm"
	"jepo/internal/classify/tree"
	"jepo/internal/dataset"
)

// factories enumerates all ten paper classifiers with fast test settings.
func factories(opts classify.Options) map[string]Factory {
	return map[string]Factory{
		"J48":          func() classify.Classifier { return tree.NewJ48(opts) },
		"RandomTree":   func() classify.Classifier { return tree.NewRandomTree(opts) },
		"RandomForest": func() classify.Classifier { return tree.NewRandomForest(opts, 10) },
		"REPTree":      func() classify.Classifier { return tree.NewREPTree(opts) },
		"NaiveBayes":   func() classify.Classifier { return bayes.New(opts) },
		"Logistic": func() classify.Classifier {
			c := linear.NewLogistic(opts)
			c.Epochs = 15
			return c
		},
		"SMO": func() classify.Classifier {
			c := svm.New(opts)
			c.MaxPasses = 2
			return c
		},
		"SGD": func() classify.Classifier {
			c := linear.NewSGD(opts)
			c.Epochs = 15
			return c
		},
		"KStar": func() classify.Classifier { return lazy.NewKStar(opts) },
		"IBk":   func() classify.Classifier { return lazy.NewIBk(opts, 3) },
	}
}

// separable builds a trivially separable two-class dataset: class is 1 when
// x > 5, with a correlated nominal attribute.
func separable(n int) *dataset.Dataset {
	d := dataset.New("sep", 2,
		dataset.NewNumeric("x"),
		dataset.NewNominal("hint", "lo", "hi"),
		dataset.NewNominal("class", "neg", "pos"),
	)
	r := classify.NewRNG(11)
	for i := 0; i < n; i++ {
		x := 10 * r.Float64()
		cls := 0.0
		hint := 0.0
		if x > 5 {
			cls, hint = 1, 1
		}
		d.Add([]float64{x, hint, cls})
	}
	return d
}

func TestAllClassifiersLearnSeparableData(t *testing.T) {
	d := separable(300)
	for name, mk := range factories(classify.Options{Seed: 3}) {
		res, err := CrossValidate(d, 5, 7, mk)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Accuracy() < 95 {
			t.Errorf("%s accuracy on separable data = %.2f%%, want ≥95%%", name, res.Accuracy())
		}
		if res.Kappa() < 0.85 {
			t.Errorf("%s kappa = %.3f, want high", name, res.Kappa())
		}
	}
}

func TestAllClassifiersBeatMajorityOnAirlines(t *testing.T) {
	d := airlines.Generate(1200, 42)
	maj := 100 * float64(d.ClassCounts()[d.MajorityClass()]) / float64(d.NumInstances())
	for name, mk := range factories(classify.Options{Seed: 5}) {
		res, err := CrossValidate(d, 5, 9, mk)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Accuracy() <= maj {
			t.Errorf("%s airlines accuracy = %.2f%%, majority = %.2f%% — no learning",
				name, res.Accuracy(), maj)
		}
		t.Logf("%-12s airlines accuracy = %.2f%% (majority %.2f%%)", name, res.Accuracy(), maj)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	d := airlines.Generate(600, 42)
	for name, mk := range factories(classify.Options{Seed: 5}) {
		a, err := CrossValidate(d, 4, 9, mk)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CrossValidate(d, 4, 9, mk)
		if err != nil {
			t.Fatal(err)
		}
		if a.Accuracy() != b.Accuracy() {
			t.Errorf("%s not deterministic: %.4f vs %.4f", name, a.Accuracy(), b.Accuracy())
		}
	}
}

// Single-precision mode must stay close to double precision — the paper's
// Table IV reports accuracy drops of at most 0.48%… small but sometimes
// non-zero.
func TestSinglePrecisionDropIsSmall(t *testing.T) {
	d := airlines.Generate(1200, 42)
	for name := range factories(classify.Options{}) {
		dbl, err := CrossValidate(d, 4, 9, factories(classify.Options{Seed: 5, FP: classify.Double})[name])
		if err != nil {
			t.Fatal(err)
		}
		sgl, err := CrossValidate(d, 4, 9, factories(classify.Options{Seed: 5, FP: classify.Single})[name])
		if err != nil {
			t.Fatal(err)
		}
		drop := dbl.Accuracy() - sgl.Accuracy()
		if math.Abs(drop) > 3.0 {
			t.Errorf("%s precision drop = %.3f%%, want small", name, drop)
		}
		t.Logf("%-12s double=%.2f%% single=%.2f%% drop=%+.3f%%", name, dbl.Accuracy(), sgl.Accuracy(), drop)
	}
}

func TestHoldout(t *testing.T) {
	d := separable(400)
	folds, err := d.StratifiedFolds(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.TrainTest(folds, 0)
	res, err := Holdout(train, test, func() classify.Classifier {
		return tree.NewJ48(classify.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != test.NumInstances() {
		t.Errorf("holdout total = %d", res.Total)
	}
	if res.Accuracy() < 95 {
		t.Errorf("holdout accuracy = %.2f%%", res.Accuracy())
	}
	if !strings.Contains(res.String(), "Correctly Classified") {
		t.Error("summary rendering broken")
	}
}

func TestCrossValidateErrors(t *testing.T) {
	d := separable(10)
	if _, err := CrossValidate(d, 100, 1, func() classify.Classifier {
		return bayes.New(classify.Options{})
	}); err == nil {
		t.Error("k > n accepted")
	}
	empty := d.Empty()
	if _, err := Holdout(empty, d, func() classify.Classifier {
		return bayes.New(classify.Options{})
	}); err == nil {
		t.Error("empty training set accepted")
	}
}

// TestPerFoldFiniteAtMinimumFoldSize drives CrossValidate at the k == n
// extreme where every test fold holds exactly one instance, the closest the
// public API gets to the degenerate empty-fold case PerFold guards against:
// every per-fold accuracy must be a finite 0 or 100, never NaN.
func TestPerFoldFiniteAtMinimumFoldSize(t *testing.T) {
	d := separable(8)
	res, err := CrossValidate(d, 8, 5, func() classify.Classifier {
		return bayes.New(classify.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFold) != 8 {
		t.Fatalf("got %d folds, want 8", len(res.PerFold))
	}
	for f, acc := range res.PerFold {
		if math.IsNaN(acc) || math.IsInf(acc, 0) {
			t.Errorf("fold %d accuracy is %v, want finite", f, acc)
		}
		if acc != 0 && acc != 100 {
			t.Errorf("fold %d accuracy %v, want 0 or 100 for 1-instance folds", f, acc)
		}
	}
}

func TestConfusionMatrixConsistent(t *testing.T) {
	d := separable(200)
	res, err := CrossValidate(d, 4, 3, func() classify.Classifier {
		return lazy.NewIBk(classify.Options{}, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, diag := 0, 0
	for i := range res.Confusion {
		for j := range res.Confusion[i] {
			sum += res.Confusion[i][j]
			if i == j {
				diag += res.Confusion[i][j]
			}
		}
	}
	if sum != res.Total || diag != res.Correct {
		t.Errorf("confusion sum=%d diag=%d vs total=%d correct=%d", sum, diag, res.Total, res.Correct)
	}
}

// seededTreeFactory builds a per-fold RandomTree from the fold's pre-derived
// seed — the randomized classifier most sensitive to its stream.
func seededTreeFactory(fp classify.FP) SeededFactory {
	return func(_ int, foldSeed uint64) classify.Classifier {
		return tree.NewRandomTree(classify.Options{Seed: foldSeed, FP: fp})
	}
}

// TestFoldSeedsPureAndDistinct pins the seed derivation: a pure function of
// (seed, fold), no shared generator, distinct streams per fold.
func TestFoldSeedsPureAndDistinct(t *testing.T) {
	a := FoldSeeds(9, 10)
	b := FoldSeeds(9, 10)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fold %d seed not deterministic: %#x vs %#x", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("fold %d reuses another fold's seed %#x", i, a[i])
		}
		seen[a[i]] = true
	}
	if FoldSeeds(9, 3)[2] != a[2] {
		t.Error("fold 2's seed depends on k, not only on (seed, fold)")
	}
}

// TestCrossValidateSeededOrderIndependent is the regression test for the
// latent order-dependence the fold loop used to have: with pre-derived
// per-fold seeds, fold f's outcome is a pure function of (dataset, seed, f).
// It must not matter whether the other folds ran before it, after it, or
// concurrently — proven by (a) bit-identical results at every worker count
// and (b) recomputing one fold in isolation and matching the full run.
func TestCrossValidateSeededOrderIndependent(t *testing.T) {
	d := airlines.Generate(400, 42)
	const k, seed = 5, 9
	want, err := CrossValidateSeeded(context.Background(), d, k, seed, seededTreeFactory(classify.Double), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 5, 8} {
		got, err := CrossValidateSeeded(context.Background(), d, k, seed, seededTreeFactory(classify.Double), jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got.Correct != want.Correct || got.Total != want.Total {
			t.Errorf("jobs=%d: %d/%d correct, sequential %d/%d",
				jobs, got.Correct, got.Total, want.Correct, want.Total)
		}
		for f := range want.PerFold {
			if math.Float64bits(got.PerFold[f]) != math.Float64bits(want.PerFold[f]) {
				t.Errorf("jobs=%d: fold %d accuracy %v, sequential %v",
					jobs, f, got.PerFold[f], want.PerFold[f])
			}
		}
		for a := range want.Confusion {
			for p := range want.Confusion[a] {
				if got.Confusion[a][p] != want.Confusion[a][p] {
					t.Errorf("jobs=%d: confusion[%d][%d] = %d, sequential %d",
						jobs, a, p, got.Confusion[a][p], want.Confusion[a][p])
				}
			}
		}
	}

	// Recompute the last fold alone, outside the harness: same split, same
	// pre-derived seed, no other fold ever trained. Its accuracy must equal
	// the full run's PerFold entry bit for bit.
	folds, err := d.StratifiedFolds(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	f := k - 1
	train, test := d.TrainTest(folds, f)
	c := seededTreeFactory(classify.Double)(f, FoldSeeds(seed, k)[f])
	if err := c.Train(train); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range test.X {
		if c.Predict(row) == test.Class(i) {
			correct++
		}
	}
	alone := 100 * float64(correct) / float64(test.NumInstances())
	if math.Float64bits(alone) != math.Float64bits(want.PerFold[f]) {
		t.Errorf("fold %d alone = %v, inside the full run = %v — fold outcome depends on execution order",
			f, alone, want.PerFold[f])
	}
}

// TestCrossValidateCompatWrapper pins that the zero-argument-factory entry
// point still behaves exactly as before: every fold gets the factory's
// classifier unchanged, sequentially.
func TestCrossValidateCompatWrapper(t *testing.T) {
	d := separable(200)
	a, err := CrossValidate(d, 4, 3, factories(classify.Options{Seed: 5})["J48"])
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidateSeeded(context.Background(), d, 4, 3,
		func(int, uint64) classify.Classifier { return tree.NewJ48(classify.Options{Seed: 5}) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Correct != b.Correct || a.Total != b.Total {
		t.Errorf("wrapper diverges: %d/%d vs %d/%d", a.Correct, a.Total, b.Correct, b.Total)
	}
}
