// Package linear implements the linear models: multinomial ridge Logistic
// regression (WEKA's Logistic, after le Cessie & van Houwelingen) and the
// stochastic-gradient-descent learner (WEKA's SGD with hinge loss).
package linear

import (
	"fmt"
	"math"

	"jepo/internal/classify"
	"jepo/internal/dataset"
)

// Logistic is multinomial logistic regression with an L2 (ridge) penalty,
// fit by deterministic mini-batch gradient descent over one-hot encoded
// features.
type Logistic struct {
	// Ridge is the L2 penalty (WEKA default 1e-8; a slightly larger value
	// stabilizes the one-hot airports).
	Ridge float64
	// Epochs is the number of full passes.
	Epochs int
	// LearningRate for gradient descent.
	LearningRate float64

	opts classify.Options
	enc  *classify.Encoder
	w    [][]float64 // [class][dim+1], last cell the intercept
	nc   int
}

// NewLogistic builds a Logistic with stock parameters.
func NewLogistic(opts classify.Options) *Logistic {
	return &Logistic{Ridge: 1e-4, Epochs: 30, LearningRate: 0.1, opts: opts}
}

// Name implements Classifier.
func (c *Logistic) Name() string { return "Logistic" }

// Train implements Classifier.
func (c *Logistic) Train(d *dataset.Dataset) error {
	if d.NumInstances() == 0 {
		return fmt.Errorf("logistic: empty training set")
	}
	c.enc = classify.NewEncoder(d)
	x, y := c.enc.EncodeAll(d)
	c.nc = d.NumClasses()
	dim := c.enc.Dim()
	c.w = make([][]float64, c.nc)
	for k := range c.w {
		c.w[k] = make([]float64, dim+1)
	}
	fp := c.opts.FP
	probs := make([]float64, c.nc)
	rng := classify.NewRNG(c.opts.Seed)
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	lr := c.LearningRate
	for epoch := 0; epoch < c.Epochs; epoch++ {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, i := range order {
			c.scores(x[i], probs)
			softmax(probs, fp)
			for k := 0; k < c.nc; k++ {
				g := probs[k]
				if k == y[i] {
					g -= 1
				}
				wk := c.w[k]
				step := lr * g
				for _, ft := range x[i] {
					wk[ft.I] = fp.R(wk[ft.I] - step*ft.V - lr*c.Ridge*wk[ft.I])
				}
				wk[dim] = fp.R(wk[dim] - step)
			}
		}
		lr *= 0.9 // simple decay
	}
	return nil
}

// scores writes wᵀx per class into out.
func (c *Logistic) scores(feat classify.Row, out []float64) {
	fp := c.opts.FP
	dim := c.enc.Dim()
	for k := 0; k < c.nc; k++ {
		s := c.w[k][dim]
		wk := c.w[k]
		for _, ft := range feat {
			s = fp.R(s + wk[ft.I]*ft.V)
		}
		out[k] = s
	}
}

func softmax(xs []float64, fp classify.FP) {
	max := xs[0]
	for _, v := range xs {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range xs {
		xs[i] = math.Exp(fp.R(v - max))
		sum += xs[i]
	}
	for i := range xs {
		xs[i] = fp.R(xs[i] / sum)
	}
}

// Predict implements Classifier.
func (c *Logistic) Predict(row []float64) int {
	out := make([]float64, c.nc)
	c.scores(c.enc.Encode(row), out)
	return classify.ArgMax(out)
}
