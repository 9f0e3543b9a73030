// Package stats implements the paper's measurement methodology (§VIII): run
// each configuration repeatedly, detect outliers with Tukey's method, replace
// outlier measurements with fresh runs, repeat until no outliers remain, then
// take the mean.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean is the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev is the sample standard deviation.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// Median is the middle value (mean of the middle pair for even lengths).
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles computes Q1 and Q3 using Tukey's hinges (medians of the lower and
// upper halves, including the overall median in both halves for odd lengths),
// matching the exploratory-data-analysis method the paper cites.
func Quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 3 {
		return 0, 0, fmt.Errorf("stats: need at least 3 values for quartiles, got %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	half := n / 2
	if n%2 == 0 {
		return Median(s[:half]), Median(s[half:]), nil
	}
	return Median(s[:half+1]), Median(s[half:]), nil
}

// TukeyFences returns the [lo, hi] inlier interval Q1−1.5·IQR, Q3+1.5·IQR.
func TukeyFences(xs []float64) (lo, hi float64, err error) {
	q1, q3, err := Quartiles(xs)
	if err != nil {
		return 0, 0, err
	}
	iqr := q3 - q1
	return q1 - 1.5*iqr, q3 + 1.5*iqr, nil
}

// OutlierIndices reports positions of values outside the Tukey fences.
func OutlierIndices(xs []float64) ([]int, error) {
	lo, hi, err := TukeyFences(xs)
	if err != nil {
		return nil, err
	}
	var out []int
	for i, x := range xs {
		if x < lo || x > hi {
			out = append(out, i)
		}
	}
	return out, nil
}

// Protocol is the repeat-until-outlier-free measurement loop.
type Protocol struct {
	Runs      int // measurements kept per configuration (paper: 10)
	MaxRounds int // safety bound on replacement rounds
}

// Measure collects p.Runs samples from measure, then repeatedly replaces any
// Tukey outliers with fresh measurements until none remain (or MaxRounds is
// hit, in which case the final set is used). It returns the mean and the
// final sample set.
func (p Protocol) Measure(measure func() float64) (float64, []float64, error) {
	if p.Runs < 3 {
		return 0, nil, fmt.Errorf("stats: protocol needs at least 3 runs, got %d", p.Runs)
	}
	xs := make([]float64, p.Runs)
	for i := range xs {
		xs[i] = measure()
	}
	for round := 0; round < p.MaxRounds; round++ {
		outliers, err := OutlierIndices(xs)
		if err != nil {
			return 0, nil, err
		}
		if len(outliers) == 0 {
			break
		}
		for _, i := range outliers {
			xs[i] = measure()
		}
	}
	return Mean(xs), xs, nil
}

// Improvement returns the percentage improvement of after relative to before:
// 100 × (before − after) / before. Positive means "after" is better (lower).
func Improvement(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (before - after) / before
}
