package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanMedianStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Median(xs) != 4.5 {
		t.Errorf("median = %v", Median(xs))
	}
	if math.Abs(StdDev(xs)-2.138089935299395) > 1e-12 {
		t.Errorf("std = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || Median(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs must be 0")
	}
}

func TestQuartilesTukeyHinges(t *testing.T) {
	// Odd length: hinges include the median in both halves, so for 1..7 the
	// lower half is [1,2,3,4] with median 2.5 and the upper [4,5,6,7] → 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	q1, q3, err := Quartiles(xs)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 2.5 || q3 != 5.5 {
		t.Errorf("hinges = %v, %v, want 2.5, 5.5", q1, q3)
	}
	// Even length.
	q1, q3, _ = Quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.5 || q3 != 3.5 {
		t.Errorf("even hinges = %v, %v, want 1.5, 3.5", q1, q3)
	}
	if _, _, err := Quartiles([]float64{1, 2}); err == nil {
		t.Error("too-short input accepted")
	}
}

func TestOutlierDetection(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 12, 10, 11, 9, 10, 100}
	idx, err := OutlierIndices(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != 9 {
		t.Errorf("outliers = %v, want [9]", idx)
	}
	clean := []float64{10, 11, 9, 10, 12}
	idx, _ = OutlierIndices(clean)
	if len(idx) != 0 {
		t.Errorf("clean data flagged: %v", idx)
	}
}

func TestProtocolReplacesOutliers(t *testing.T) {
	// The measurement source yields a spike on the third call and stable
	// values otherwise; the protocol must converge to ≈10.
	calls := 0
	measure := func() float64 {
		calls++
		if calls == 3 {
			return 500
		}
		return 10 + float64(calls%3)*0.1
	}
	p := Protocol{Runs: 10, MaxRounds: 20}
	mean, xs, err := p.Measure(measure)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 10 {
		t.Fatalf("kept %d samples", len(xs))
	}
	if mean < 9 || mean > 11 {
		t.Errorf("protocol mean = %v, want ≈10 after outlier replacement", mean)
	}
	if calls <= 10 {
		t.Error("no replacement measurements were taken")
	}
	sort.Float64s(xs)
	if xs[len(xs)-1] > 50 {
		t.Error("outlier survived the protocol")
	}
}

func TestProtocolErrors(t *testing.T) {
	p := Protocol{Runs: 2, MaxRounds: 1}
	if _, _, err := p.Measure(func() float64 { return 1 }); err == nil {
		t.Error("runs<3 accepted")
	}
}

func TestProtocolTerminatesOnPathologicalSource(t *testing.T) {
	// Alternating extreme values never converge; MaxRounds must bound work.
	i := 0
	p := Protocol{Runs: 5, MaxRounds: 3}
	_, xs, err := p.Measure(func() float64 {
		i++
		if i%2 == 0 {
			return 1e9
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 5 {
		t.Errorf("kept %d samples", len(xs))
	}
}

func TestImprovement(t *testing.T) {
	if math.Abs(Improvement(100, 85.54)-14.46) > 1e-9 {
		t.Errorf("improvement = %v", Improvement(100, 85.54))
	}
	if Improvement(0, 5) != 0 {
		t.Error("zero baseline must yield 0")
	}
	if Improvement(100, 110) != -10 {
		t.Error("regressions must be negative")
	}
}

// Property: the fences always contain the median, and scaling the data scales
// the fences.
func TestFencesContainMedianProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			xs[i] = math.Mod(v, 1000)
		}
		lo, hi, err := TukeyFences(xs)
		if err != nil {
			return false
		}
		med := Median(xs)
		return lo <= med && med <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
