package svm

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jepo/internal/airlines"
	"jepo/internal/classify"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_weights.txt")

// writeBits renders one parameter array as float64 bit patterns, eight to a
// line, each line led by the array's name and the index of its first value.
func writeBits(sb *strings.Builder, name string, xs []float64) {
	for i := 0; i < len(xs); i += 8 {
		fmt.Fprintf(sb, "%s[%d]", name, i)
		for _, x := range xs[i:min(i+8, len(xs))] {
			fmt.Fprintf(sb, " %016x", math.Float64bits(x))
		}
		sb.WriteByte('\n')
	}
}

// TestGoldenWeights pins every trained weight, the bias and every alpha of
// SMO on the airlines data, in both precisions and with the quadratic
// kernel, bit for bit: a change to how the features are stored or iterated
// must not move a single bit.
//
// Regenerate (only after an intended change to training) with:
//
//	go test ./internal/classify/svm -run GoldenWeights -update
func TestGoldenWeights(t *testing.T) {
	d := airlines.Generate(400, 11)
	var sb strings.Builder
	for _, fp := range []classify.FP{classify.Double, classify.Single} {
		c := New(classify.Options{Seed: 11, FP: fp})
		if err := c.Train(d); err != nil {
			t.Fatal(err)
		}
		mode := "double"
		if fp == classify.Single {
			mode = "single"
		}
		writeBits(&sb, mode+".b", []float64{c.b})
		writeBits(&sb, mode+".w", c.w)
		writeBits(&sb, mode+".alpha", c.alpha)
	}
	// The quadratic kernel evaluates the decision function over the support
	// vectors instead of a weight vector.
	quad := New(classify.Options{Seed: 11})
	quad.Exponent = 2
	if err := quad.Train(d); err != nil {
		t.Fatal(err)
	}
	writeBits(&sb, "quadratic.b", []float64{quad.b})
	writeBits(&sb, "quadratic.alpha", quad.alpha)
	compareGolden(t, filepath.Join("testdata", "golden_weights.txt"), sb.String())
}

// compareGolden checks got against the golden file line by line, or writes
// it under -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := strings.Split(string(blob), "\n")
	have := strings.Split(got, "\n")
	for i := 0; i < max(len(want), len(have)); i++ {
		var w, h string
		if i < len(want) {
			w = want[i]
		}
		if i < len(have) {
			h = have[i]
		}
		if w != h {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, h, w)
		}
	}
}
