// Package svm implements SMO — sequential minimal optimization for training
// a support vector classifier (Platt 1998, with the Keerthi et al.
// improvements WEKA cites) — with a linear (polynomial exponent 1) kernel
// over one-hot encoded features, as WEKA's default SMO configuration uses.
package svm

import (
	"fmt"
	"math"

	"jepo/internal/classify"
	"jepo/internal/dataset"
)

// SMO is a binary support vector classifier trained by sequential minimal
// optimization.
type SMO struct {
	// C is the complexity constant (WEKA -C, default 1).
	C float64
	// Tol is the KKT tolerance (WEKA -L, default 1e-3).
	Tol float64
	// MaxPasses bounds full no-change sweeps before stopping.
	MaxPasses int
	// Exponent selects the polynomial kernel degree (default 1 = linear;
	// only 1 uses the fast path with an explicit weight vector).
	Exponent int

	opts  classify.Options
	enc   *classify.Encoder
	x     []classify.Row
	y     []float64 // ±1
	alpha []float64
	b     float64
	w     []float64 // maintained for the linear kernel
}

// New builds an SMO with WEKA-default parameters.
func New(opts classify.Options) *SMO {
	return &SMO{C: 1, Tol: 1e-3, MaxPasses: 3, Exponent: 1, opts: opts}
}

// Name implements Classifier.
func (c *SMO) Name() string { return "SMO" }

// Train implements Classifier.
func (c *SMO) Train(d *dataset.Dataset) error {
	if d.NumInstances() == 0 {
		return fmt.Errorf("smo: empty training set")
	}
	if d.NumClasses() != 2 {
		return fmt.Errorf("smo: binary classes required, got %d", d.NumClasses())
	}
	if c.Exponent < 1 {
		return fmt.Errorf("smo: kernel exponent must be ≥1, got %d", c.Exponent)
	}
	c.enc = classify.NewEncoder(d)
	feats, labels := c.enc.EncodeAll(d)
	c.x = feats
	c.y = make([]float64, len(labels))
	for i, yi := range labels {
		c.y[i] = float64(2*yi - 1)
	}
	n := len(c.x)
	c.alpha = make([]float64, n)
	c.b = 0
	c.w = make([]float64, c.enc.Dim())
	rng := classify.NewRNG(c.opts.Seed)
	fp := c.opts.FP

	passes := 0
	for passes < c.MaxPasses {
		changed := 0
		for i := 0; i < n; i++ {
			ei := fp.R(c.f(c.x[i]) - c.y[i])
			if (c.y[i]*ei < -c.Tol && c.alpha[i] < c.C) ||
				(c.y[i]*ei > c.Tol && c.alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				if c.optimizePair(i, j, ei, fp) {
					changed++
				}
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return nil
}

// f evaluates the decision function on an encoded row.
func (c *SMO) f(feat classify.Row) float64 {
	fp := c.opts.FP
	if c.Exponent == 1 {
		s := c.b
		for _, ft := range feat {
			s = fp.R(s + c.w[ft.I]*ft.V)
		}
		return s
	}
	s := c.b
	for i := range c.x {
		if c.alpha[i] == 0 {
			continue
		}
		s = fp.R(s + c.alpha[i]*c.y[i]*c.kernel(c.x[i], feat))
	}
	return s
}

func (c *SMO) kernel(a, b classify.Row) float64 {
	dot := classify.Dot(a, b)
	if c.Exponent == 1 {
		return dot
	}
	return math.Pow(dot, float64(c.Exponent))
}

// optimizePair performs one SMO step on (i, j).
func (c *SMO) optimizePair(i, j int, ei float64, fp classify.FP) bool {
	ej := fp.R(c.f(c.x[j]) - c.y[j])
	ai, aj := c.alpha[i], c.alpha[j]
	var lo, hi float64
	if c.y[i] != c.y[j] {
		lo = math.Max(0, aj-ai)
		hi = math.Min(c.C, c.C+aj-ai)
	} else {
		lo = math.Max(0, ai+aj-c.C)
		hi = math.Min(c.C, ai+aj)
	}
	if lo == hi {
		return false
	}
	kii := c.kernel(c.x[i], c.x[i])
	kjj := c.kernel(c.x[j], c.x[j])
	kij := c.kernel(c.x[i], c.x[j])
	eta := 2*kij - kii - kjj
	if eta >= 0 {
		return false
	}
	newAj := fp.R(aj - c.y[j]*(ei-ej)/eta)
	if newAj > hi {
		newAj = hi
	} else if newAj < lo {
		newAj = lo
	}
	if math.Abs(newAj-aj) < 1e-5 {
		return false
	}
	newAi := fp.R(ai + c.y[i]*c.y[j]*(aj-newAj))
	// Threshold update (Platt's b1/b2 rule).
	b1 := c.b - ei - c.y[i]*(newAi-ai)*kii - c.y[j]*(newAj-aj)*kij
	b2 := c.b - ej - c.y[i]*(newAi-ai)*kij - c.y[j]*(newAj-aj)*kjj
	switch {
	case newAi > 0 && newAi < c.C:
		c.b = fp.R(b1)
	case newAj > 0 && newAj < c.C:
		c.b = fp.R(b2)
	default:
		c.b = fp.R((b1 + b2) / 2)
	}
	if c.Exponent == 1 {
		di := (newAi - ai) * c.y[i]
		dj := (newAj - aj) * c.y[j]
		for _, ft := range c.x[i] {
			c.w[ft.I] = fp.R(c.w[ft.I] + di*ft.V)
		}
		for _, ft := range c.x[j] {
			c.w[ft.I] = fp.R(c.w[ft.I] + dj*ft.V)
		}
	}
	c.alpha[i], c.alpha[j] = newAi, newAj
	return true
}

// Predict implements Classifier.
func (c *SMO) Predict(row []float64) int {
	if c.f(c.enc.Encode(row)) >= 0 {
		return 1
	}
	return 0
}

// NumSupportVectors reports how many training points carry non-zero alpha.
func (c *SMO) NumSupportVectors() int {
	n := 0
	for _, a := range c.alpha {
		if a > 1e-9 {
			n++
		}
	}
	return n
}
