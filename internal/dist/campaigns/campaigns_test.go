package campaigns

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"jepo/internal/core"
	"jepo/internal/corpus"
	"jepo/internal/dist"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
	"jepo/internal/tables"
)

const campaignSeed = 20200518

// distCfg builds a dispatcher config over in-process pipe workers with the
// given chaos plan, mirroring how the CLIs run minus the process boundary.
func distCfg(workers int, plan *dist.FaultPlan) dist.Config {
	return dist.Config{
		Workers:   workers,
		Seed:      campaignSeed,
		Retries:   2,
		Deadline:  2 * time.Second,
		Heartbeat: 20 * time.Millisecond,
		Spawn:     dist.PipeSpawner(Registry()),
		Plan:      plan,
	}
}

// TestTable2RowsDistMatchesInline: the Table II campaign sharded across
// workers — one of which is killed mid-campaign — must produce exactly the
// rows of the in-process pool.
func TestTable2RowsDistMatchesInline(t *testing.T) {
	want, _, err := tables.Table2Parallel(context.Background(), campaignSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{1: {1: dist.FaultKill}}}
	got, rep, err := Table2Rows(context.Background(), distCfg(3, plan), campaignSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dist rows diverge from inline:\n got %+v\nwant %+v", got, want)
	}
	if rep.Quarantines != 1 || rep.Deaths != 1 {
		t.Errorf("expected the killed worker quarantined: %s", rep.String())
	}
}

// TestAnalyzeCorpusDistMatchesInline: the corpus campaign's reconstructed
// report must render byte-identically to an in-process core.AnalyzeAll run,
// even with a worker killed mid-campaign.
func TestAnalyzeCorpusDistMatchesInline(t *testing.T) {
	proj, err := corpus.Generate("RandomTree", campaignSeed)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.AnalyzeAll(context.Background(), proj, core.AnalyzeConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{2: {3: dist.FaultKill}}}
	got, rep, err := AnalyzeCorpus(context.Background(), distCfg(4, plan), "RandomTree", campaignSeed, interp.EngineVM)
	if err != nil {
		t.Fatal(err)
	}
	if core.CorpusView(got) != core.CorpusView(want) {
		t.Error("dist corpus view diverges from inline render")
	}
	if len(got.Files) != len(want.Files) {
		t.Errorf("file count %d, want %d", len(got.Files), len(want.Files))
	}
	if rep.Quarantines != 1 {
		t.Errorf("expected one quarantine: %s", rep.String())
	}
}

// TestMeasureRunsDistMatchesInline: repeated measurement runs are identical
// by construction; a worker-computed run must carry the same counter bits
// as an inline one, including the health tally.
func TestMeasureRunsDistMatchesInline(t *testing.T) {
	p := MeasureParams{
		Files: []SourceFile{{Path: "Work.java", Source: `class Work {
	public static void main(String[] args) {
		long total = 0;
		for (int i = 0; i < 200; i++) {
			total = total + i % 8;
		}
		System.out.println(total);
	}
}`}},
		Engine: "vm",
	}
	want, _, err := MeasureRuns(context.Background(), dist.Config{Workers: 1, Seed: campaignSeed}, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := MeasureRuns(context.Background(), distCfg(2, nil), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dist measurements diverge:\n got %+v\nwant %+v", got, want)
	}
	for i, m := range got {
		if math.Float64bits(m.Pkg) != math.Float64bits(want[i].Pkg) {
			t.Errorf("run %d: pkg bits diverge", i)
		}
	}
	if rep.Workers != 2 {
		t.Errorf("report workers = %d, want 2", rep.Workers)
	}
}

// TestTable1RowsDistSubset runs the full Table I campaign through pipe
// workers with one kill and compares every measured bit against the inline
// pool. Skipped under -short: the campaign executes all 22 benchmark
// variants twice.
func TestTable1RowsDistSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 measurement campaign is slow")
	}
	want, _, err := tables.Table1Jobs(context.Background(), interp.EngineVM, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The dispatched run gets an empty store. With the inline run's
	// artifacts cached every task is a hit, and one node can drain the queue
	// before the other reaches its scripted third task.
	prev := engine.SetDefault(engine.New(engine.Config{}))
	defer engine.SetDefault(prev)
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{0: {2: dist.FaultKill}}}
	got, rep, err := Table1Rows(context.Background(), distCfg(2, plan), interp.EngineVM)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("dist Table I rows diverge from inline")
	}
	for i := range got {
		if math.Float64bits(got[i].MeasuredPct) != math.Float64bits(want[i].MeasuredPct) {
			t.Errorf("row %d: measured pct bits diverge", i)
		}
	}
	if rep.Quarantines != 1 {
		t.Errorf("expected one quarantine: %s", rep.String())
	}
}
