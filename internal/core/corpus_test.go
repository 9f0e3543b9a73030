package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"jepo/internal/corpus"
	"jepo/internal/engine"
)

const corpusSeed = 20200518

// TestAnalyzeCorpusPlacements: AnalyzeAll on the pool yields the report the
// inline run yields — every diagnostic, verdict and joule bit, not only the
// rendered view. Each run gets a fresh store, so no report is a cache hit.
func TestAnalyzeCorpusPlacements(t *testing.T) {
	proj, err := corpus.Generate("RandomTree", corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := AnalyzeAll(context.Background(), proj, AnalyzeConfig{Jobs: 1, Cache: engine.New(engine.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("jobs=2", func(t *testing.T) {
		got, tel, err := AnalyzeAll(context.Background(), proj, AnalyzeConfig{Jobs: 2, Cache: engine.New(engine.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		if tel.Jobs != 2 {
			t.Errorf("ran on %d workers, want 2: %s", tel.Jobs, tel)
		}
		if CorpusView(got) != CorpusView(want) {
			t.Error("pool corpus view diverges from the inline render")
		}
		if !reflect.DeepEqual(flattenCorpus(got), flattenCorpus(want)) {
			t.Error("pool corpus reports diverge from the inline reports")
		}
	})
}

// TestAnalysisReportRoundTrip: a report encodes to JSON whole. Decoded, it
// renders and flattens exactly like the original; only the fixes stay
// behind, since they close over the analyzed AST nodes.
func TestAnalysisReportRoundTrip(t *testing.T) {
	rep, err := Analyze(context.Background(), Project{"Work.java": measurableProject}, AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back AnalysisReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if AnalysisView(&back) != AnalysisView(rep) || !reflect.DeepEqual(flattenReport(&back), flattenReport(rep)) {
		t.Error("report drifted across a JSON round trip")
	}
	for _, d := range back.Diags {
		if d.Fix != nil {
			t.Errorf("%s: a decoded diagnostic carries a fix", d.Diagnostic)
		}
	}
}

// TestSharedStoreRaceStress is the concurrency acceptance gate for the
// artifact engine: an in-process pool at -jobs GOMAXPROCS (AnalyzeAll)
// hammers ONE shared store concurrently with loops of direct Sample calls.
// Run under -race by scripts/check.sh. Assertions: every consumer's output
// is bit-identical to a baseline taken on a fresh store, and the shared
// store tallies both hits and misses (i.e. the consumers really did share
// artifacts rather than each building their own).
func TestSharedStoreRaceStress(t *testing.T) {
	const classifier = "RandomTree"
	proj, err := corpus.Generate(classifier, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline on a fresh store of its own: every artifact built cold.
	baseline, _, err := AnalyzeAll(context.Background(), proj, AnalyzeConfig{Jobs: 1, Cache: engine.New(engine.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	baseView := CorpusView(baseline)

	// One shared store for everything below.
	shared := engine.New(engine.Config{})

	benchSrcs := []engine.Source{{Path: "bench.java", Source: `class B {
	static double f() {
		double acc = 0;
		for (int i = 0; i < 5000; i++) { acc += i % 7; }
		return acc;
	}
}`}}
	benchSpec := engine.RunSpec{CallClass: "B", CallMethod: "f", MaxOps: 10_000_000}
	benchRef, err := engine.New(engine.Config{}).Sample(context.Background(), benchSrcs, benchSpec)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var poolReport *CorpusReport
	var poolErr error
	errs := make(chan error, 16)

	// Consumer 1: in-process pool at full width, explicitly on the shared store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		poolReport, _, poolErr = AnalyzeAll(context.Background(), proj,
			AnalyzeConfig{Jobs: runtime.GOMAXPROCS(0), Cache: shared})
	}()

	// Consumer 2: direct Sample traffic on the same store — every returned
	// sample must be bit-identical to the fresh-store reference.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				s, err := shared.Sample(context.Background(), benchSrcs, benchSpec)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(float64(s.Package)) != math.Float64bits(float64(benchRef.Package)) {
					t.Error("concurrent Sample diverged from the fresh-store reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if poolErr != nil {
		t.Fatal(poolErr)
	}

	if got := CorpusView(poolReport); got != baseView {
		t.Errorf("pool AnalyzeAll view diverged from the fresh-store baseline:\n%s\n---\n%s", got, baseView)
	}
	// Joule bits per file: a hit must not move a single charge.
	for i, fa := range poolReport.Files {
		ref := baseline.Files[i]
		if fa.Path != ref.Path {
			t.Fatalf("file order diverged: %s vs %s", fa.Path, ref.Path)
		}
		if math.Float64bits(float64(fa.Report.Baseline.Package)) != math.Float64bits(float64(ref.Report.Baseline.Package)) {
			t.Errorf("%s: baseline joule bits diverged under the shared store", fa.Path)
		}
	}

	st := shared.Stats()
	if st.Misses == 0 {
		t.Error("shared store recorded no misses — nothing was built?")
	}
	if st.Hits == 0 {
		t.Error("shared store recorded no hits — consumers did not share artifacts")
	}
	if st.Entries > st.Capacity {
		t.Errorf("store over capacity: %d > %d", st.Entries, st.Capacity)
	}
	t.Logf("shared store after stress: %s", st)
}
