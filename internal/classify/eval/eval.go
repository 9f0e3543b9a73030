// Package eval implements the evaluation harness: stratified k-fold
// cross-validation with accuracy and confusion-matrix reporting, matching
// the paper's "stratified 10-fold cross-validation" methodology.
package eval

import (
	"context"
	"fmt"
	"strings"

	"jepo/internal/classify"
	"jepo/internal/dataset"
	"jepo/internal/sched"
)

// Result is the outcome of one evaluation.
type Result struct {
	Name      string
	Correct   int
	Total     int
	PerFold   []float64 // accuracy per fold (empty for holdout evaluation)
	Confusion [][]int   // [actual][predicted]
}

// Accuracy in percent.
func (r *Result) Accuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Correct) / float64(r.Total)
}

// Kappa is Cohen's kappa against the chance agreement of the marginals.
func (r *Result) Kappa() float64 {
	if r.Total == 0 {
		return 0
	}
	n := float64(r.Total)
	po := float64(r.Correct) / n
	pe := 0.0
	for k := range r.Confusion {
		var rowSum, colSum float64
		for j := range r.Confusion {
			rowSum += float64(r.Confusion[k][j])
			colSum += float64(r.Confusion[j][k])
		}
		pe += (rowSum / n) * (colSum / n)
	}
	if pe == 1 {
		return 0
	}
	return (po - pe) / (1 - pe)
}

// String renders a WEKA-like summary block.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", r.Name)
	fmt.Fprintf(&sb, "Correctly Classified Instances   %6d  %8.4f %%\n", r.Correct, r.Accuracy())
	fmt.Fprintf(&sb, "Incorrectly Classified Instances %6d  %8.4f %%\n",
		r.Total-r.Correct, 100-r.Accuracy())
	fmt.Fprintf(&sb, "Kappa statistic                  %8.4f\n", r.Kappa())
	fmt.Fprintf(&sb, "Total Number of Instances        %6d\n", r.Total)
	return sb.String()
}

// Factory builds a fresh classifier per fold.
type Factory func() classify.Classifier

// SeededFactory builds a fresh classifier for one fold from that fold's
// pre-derived seed. Randomized classifiers (RandomTree, RandomForest,
// REPTree, the SGD shufflers) should seed their streams from foldSeed so
// every fold draws an independent, order-free stream.
type SeededFactory func(fold int, foldSeed uint64) classify.Classifier

// FoldSeeds pre-derives one independent RNG seed per fold from the split
// seed. The derivation is a pure function of (seed, fold index) — no
// generator is shared across fold iterations — so fold f's stream is the
// same whether the folds run first, last, sequentially or concurrently.
// This is the determinism fix that lets fold training parallelize: a single
// RNG threaded through the fold loop would hand each fold a stream that
// depends on how many draws earlier folds consumed, an order dependence
// that breaks bit-identical parallel runs.
func FoldSeeds(seed uint64, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = sched.TaskSeed(seed, i)
	}
	return out
}

// FoldEval is one fold's independently computed evaluation, merged into
// the Result in fold order.
type FoldEval struct {
	Name      string
	Correct   int
	Total     int
	Confusion [][]int // [actual][predicted]
}

// EvalFold trains and evaluates exactly one fold of a stratified split:
// its own classifier from the fold's pre-derived seed, its own confusion
// counts, no shared state. folds must come from d.StratifiedFolds; the
// fold seed from FoldSeeds. This is the unit the cross-validation pool
// shards.
func EvalFold(d *dataset.Dataset, folds [][]int, fold int, foldSeed uint64, make SeededFactory) (FoldEval, error) {
	train, test := d.TrainTest(folds, fold)
	c := make(fold, foldSeed)
	out := FoldEval{Name: c.Name(), Confusion: newConfusion(d.NumClasses())}
	if err := c.Train(train); err != nil {
		return FoldEval{}, fmt.Errorf("eval: fold %d: %w", fold, err)
	}
	for i, row := range test.X {
		pred := c.Predict(row)
		actual := test.Class(i)
		if pred >= 0 && pred < len(out.Confusion) {
			out.Confusion[actual][pred]++
		}
		if pred == actual {
			out.Correct++
		}
	}
	out.Total = test.NumInstances()
	return out, nil
}

// mergeFold accumulates one fold into the result.
func mergeFold(res *Result, out FoldEval) {
	if res.Name == "" {
		res.Name = out.Name
	}
	for a := range out.Confusion {
		for p := range out.Confusion[a] {
			res.Confusion[a][p] += out.Confusion[a][p]
		}
	}
	res.Correct += out.Correct
	res.Total += out.Total
	// A fold can end up with zero test instances when k is close to the
	// dataset size; report 0 accuracy rather than NaN.
	foldAcc := 0.0
	if out.Total > 0 {
		foldAcc = 100 * float64(out.Correct) / float64(out.Total)
	}
	res.PerFold = append(res.PerFold, foldAcc)
}

// CrossValidate runs stratified k-fold cross-validation. Every fold's
// classifier comes from the same zero-argument factory, so all folds share
// the classifier's configured seed; use CrossValidateSeeded to give each
// fold an independent pre-derived stream and to train folds in parallel.
func CrossValidate(d *dataset.Dataset, k int, seed uint64, make Factory) (*Result, error) {
	return CrossValidateSeeded(context.Background(), d, k, seed, func(int, uint64) classify.Classifier { return make() }, 1)
}

// CrossValidateSeeded runs stratified k-fold cross-validation with
// pre-derived per-fold seeds (see FoldSeeds) on a bounded worker pool.
// Each fold trains and evaluates in isolation — its own classifier, its own
// confusion counts — and fold outcomes are merged in fold-index order, so
// the Result is bit-identical at any jobs count, including jobs == 1, which
// runs the folds inline in order.
func CrossValidateSeeded(ctx context.Context, d *dataset.Dataset, k int, seed uint64, make SeededFactory, jobs int) (*Result, error) {
	folds, err := d.StratifiedFolds(k, seed)
	if err != nil {
		return nil, err
	}
	seeds := FoldSeeds(seed, len(folds))
	res := &Result{Confusion: newConfusion(d.NumClasses())}
	_, _, err = sched.MapCommit(ctx, sched.Config{Jobs: jobs, Seed: seed}, folds,
		func(task sched.Task, _ []int) (FoldEval, error) {
			return EvalFold(d, folds, task.Index, seeds[task.Index], make)
		},
		func(_ sched.Task, out FoldEval) {
			mergeFold(res, out)
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func newConfusion(nc int) [][]int {
	m := make([][]int, nc)
	for i := range m {
		m[i] = make([]int, nc)
	}
	return m
}
