package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"jepo/internal/corpus"
	"jepo/internal/dist"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
	"jepo/internal/sched"
)

const corpusSeed = 20200518

// pipeWorkers places a map on in-process pipe workers; the reports still
// ride the full JSON task/result protocol.
func pipeWorkers(workers int, plan *dist.FaultPlan) sched.Config {
	return sched.Config{
		Workers:  workers,
		Seed:     corpusSeed,
		Deadline: 30 * time.Second,
		Spawn:    dist.PipeSpawner(sched.Handle),
		Plan:     plan,
	}
}

// TestAnalyzeCorpusPlacements: the corpusfile kind yields the report an
// in-process AnalyzeAll yields — every diagnostic, verdict and joule bit,
// not only the rendered view — in process and on pipe workers, even with a
// worker killed mid-map.
func TestAnalyzeCorpusPlacements(t *testing.T) {
	proj, err := corpus.Generate("RandomTree", corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := AnalyzeAll(context.Background(), proj, AnalyzeConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ex   sched.Config
		kill bool
	}{
		{"jobs=2", sched.Config{Jobs: 2, Seed: corpusSeed}, false},
		{"workers=4", pipeWorkers(4, &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{2: {3: dist.FaultKill}}}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, tel, err := AnalyzeCorpus(context.Background(), tc.ex, "RandomTree", corpusSeed, interp.EngineVM)
			if err != nil {
				t.Fatal(err)
			}
			if CorpusView(got) != CorpusView(want) {
				t.Error("corpus view diverges from the in-process AnalyzeAll render")
			}
			if !reflect.DeepEqual(flattenCorpus(got), flattenCorpus(want)) {
				t.Error("corpus reports diverge from the in-process AnalyzeAll reports")
			}
			if tc.kill && tel.Quarantines != 1 {
				t.Errorf("expected one quarantine: %s", tel)
			}
		})
	}
}

// TestAnalysisReportRoundTrip: a report crosses the wire whole. Decoded, it
// renders and flattens exactly like the original; only the fixes stay
// behind, since they close over the sender's AST nodes.
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
// artifact engine: an in-process pool at -jobs GOMAXPROCS (AnalyzeAll) and
// the corpusfile kind on pipe workers (AnalyzeCorpus) hammer ONE shared
// store concurrently, alongside a loop of direct Sample calls over the same
// sources. Run under -race by scripts/check.sh. Assertions: every consumer's
// output is bit-identical to a baseline taken on a fresh store, and the
// shared store tallies both hits and misses (i.e. the consumers really did
// share artifacts rather than each building their own).
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

	// One shared store for everything below. The pipe workers run in
	// process and reach their cache via engine.Default(), so the default is
	// swapped to the shared engine for the duration.
	shared := engine.New(engine.Config{})
	prev := engine.SetDefault(shared)
	defer engine.SetDefault(prev)

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
	var poolReport, placedReport *CorpusReport
	var poolErr, placedErr error
	errs := make(chan error, 16)

	// Consumer 1: in-process pool at full width, explicitly on the shared store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		poolReport, _, poolErr = AnalyzeAll(context.Background(), proj,
			AnalyzeConfig{Jobs: runtime.GOMAXPROCS(0), Cache: shared})
	}()

	// Consumer 2: the corpusfile kind on pipe workers, which hydrate from the
	// same store through engine.Default().
	wg.Add(1)
	go func() {
		defer wg.Done()
		placedReport, _, placedErr = AnalyzeCorpus(context.Background(), pipeWorkers(3, nil), classifier, corpusSeed, interp.EngineVM)
	}()

	// Consumer 3: direct Sample traffic on the same store — every returned
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
	if placedErr != nil {
		t.Fatal(placedErr)
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
	if got := CorpusView(placedReport); got != baseView {
		t.Errorf("placed AnalyzeCorpus view diverged from the fresh-store baseline:\n%s\n---\n%s", got, baseView)
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
