package passes_test

import (
	"testing"

	"jepo/internal/corpus"
	"jepo/internal/passes"
)

// BenchmarkRefactor refactors the J48 corpus at the golden seed (the corpus
// a Table IV row refactors) from frozen parse masters, once per iteration.
// Bytes and allocations per op do not move with code layout, so they
// compare two versions of the refactoring where the time may not.
func BenchmarkRefactor(b *testing.B) {
	p, err := corpus.Generate("J48", corpusSeed)
	if err != nil {
		b.Fatal(err)
	}
	masters, err := p.Parse()
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range masters {
		f.Freeze()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		passes.Refactor(masters)
	}
}
