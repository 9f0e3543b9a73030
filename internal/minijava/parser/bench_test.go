package parser_test

import (
	"runtime"
	"testing"

	"jepo/internal/corpus"
	"jepo/internal/minijava/parser"
)

// BenchmarkParse parses every file of the J48 corpus at seed 1 (the files
// `jepo corpus -classifier J48 -seed 1` parses) once per iteration, and
// reports the cost per file: CPU time, bytes allocated and allocations.
// Allocated bytes are what the collector has to mark and sweep afterwards,
// so they are read next to the time.
func BenchmarkParse(b *testing.B) {
	p, err := corpus.Generate("J48", 1)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		for _, f := range p.Files {
			if _, err := parser.Parse(f.Path, f.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	files := float64(b.N * len(p.Files))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/files, "ns/file")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/files, "B/file")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/files, "allocs/file")
}
