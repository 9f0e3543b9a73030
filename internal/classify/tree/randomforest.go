package tree

import (
	"fmt"

	"jepo/internal/classify"
	"jepo/internal/dataset"
)

// RandomForest is bagging over RandomTrees with probability voting, as in
// WEKA's RandomForest. The trees train in index order, each drawing from its
// own seed-derived random stream.
type RandomForest struct {
	// Trees is the ensemble size (WEKA default 100; the experiment harness
	// uses a smaller forest to keep simulated runs tractable).
	Trees int

	opts   classify.Options
	ntrees []*RandomTree
	nc     int
}

// NewRandomForest builds a forest with the given ensemble size (0 → 20).
func NewRandomForest(opts classify.Options, trees int) *RandomForest {
	if trees <= 0 {
		trees = 20
	}
	return &RandomForest{Trees: trees, opts: opts}
}

// Name implements Classifier.
func (c *RandomForest) Name() string { return "RandomForest" }

// treeSeed derives an independent, deterministic stream seed for tree t.
func (c *RandomForest) treeSeed(t int) uint64 {
	z := c.opts.Seed + 0x9E3779B97F4A7C15*uint64(t+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Train implements Classifier.
func (c *RandomForest) Train(d *dataset.Dataset) error {
	if d.NumInstances() == 0 {
		return fmt.Errorf("randomforest: empty training set")
	}
	c.nc = d.NumClasses()
	c.ntrees = make([]*RandomTree, c.Trees)
	n := d.NumInstances()

	for t := range c.ntrees {
		rng := classify.NewRNG(c.treeSeed(t))
		sample := make([]int, n)
		for i := range sample {
			sample[i] = rng.Intn(n)
		}
		rt := NewRandomTree(c.opts)
		if err := rt.trainRows(d, sample, rng); err != nil {
			return err
		}
		c.ntrees[t] = rt
	}
	return nil
}

// Predict implements Classifier: average the trees' leaf distributions.
func (c *RandomForest) Predict(row []float64) int {
	votes := make([]float64, c.nc)
	fp := c.opts.FP
	for _, t := range c.ntrees {
		dist := t.distribution(row)
		total := 0.0
		for _, v := range dist {
			total += v
		}
		if total == 0 {
			continue
		}
		for k, v := range dist {
			votes[k] = fp.R(votes[k] + v/total)
		}
	}
	return classify.ArgMax(votes)
}
