package main

import (
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values is not NaN")
	}
}

func TestSummarize(t *testing.T) {
	// The Tukey hinges are 3 and 8; 100 lies beyond the upper fence.
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100})
	if s.N != 10 || s.Median != 5.5 || s.Q1 != 3 || s.Q3 != 8 || s.Outliers != 1 {
		t.Errorf("summarize = %+v", s)
	}
	if got := s.iqrFrac(); math.Abs(got-5/5.5) > 1e-12 {
		t.Errorf("iqrFrac = %v, want %v", got, 5/5.5)
	}
	if s := summarize([]float64{2, 4}); s.Q1 != 3 || s.Q3 != 3 || s.iqrFrac() != 0 {
		t.Errorf("two values: %+v, want no spread", s)
	}
}

// runs returns n values around center, spread by +-frac.
func runs(n int, center, frac float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = center * (1 + frac*(2*rng.Float64()-1))
	}
	return xs
}

func TestJudge(t *testing.T) {
	base := runs(10, 100, 0.01, 1)
	cases := []struct {
		name     string
		old, new []float64
		lower    bool
		bound    float64
		want     string
	}{
		{"same", base, runs(10, 100, 0.01, 2), true, 0.1, verdictUnchanged},
		{"slower beyond bound", base, runs(10, 120, 0.01, 3), true, 0.1, verdictWorse},
		{"slower within bound", base, runs(10, 105, 0.01, 4), true, 0.1, verdictUnchanged},
		{"faster on every pair", base, runs(10, 90, 0.01, 5), true, 0.1, verdictBetter},
		{"faster but too few pairs", base[:5], runs(5, 90, 0.01, 6), true, 0.1, verdictUnchanged},
		{"higher is better", base, runs(10, 90, 0.01, 7), false, 0.05, verdictWorse},
		{"spread wider than bound", runs(10, 100, 0.5, 8), runs(10, 100, 0.5, 9), true, 0.1, verdictUnresolved},
		{"noisy but every run faster", runs(10, 100, 0.3, 10), runs(10, 20, 0.3, 11), true, 0.1, verdictBetter},
		{"per-layer metric", base, runs(10, 50, 0.01, 12), true, 0, verdictInfo},
		{"no runs", nil, base, true, 0.1, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.old, c.new, c.lower, c.bound).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Eight wins in ten pairs is short of nine tenths.
	old := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	new := []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}
	if j := judge(old, new, true, 0.2); j.Wins != 8 || j.Pairs != 10 || j.Verdict != verdictUnchanged {
		t.Errorf("8 of 10 wins: %+v, want unchanged", j)
	}
}

const demo = `class D {
	static int f(int n) { return n; }
	public static void main(String[] a) { System.out.println(f(400) + f(300) + f(120)); }
}`

func TestServePlanDeterminism(t *testing.T) {
	a, err := newServePlan(demo, 7, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newServePlan(demo, 7, 300)
	c, _ := newServePlan(demo, 8, 300)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a.Requests, c.Requests) || reflect.DeepEqual(a.Initial, c.Initial) {
		t.Error("different seeds gave the same schedule or sources")
	}
	if len(a.Initial) != serveSessions || len(a.Requests) != 300 {
		t.Fatalf("plan has %d sessions and %d requests", len(a.Initial), len(a.Requests))
	}
	seen := map[string]bool{}
	for _, src := range a.Initial {
		seen[src] = true
	}
	kinds := map[string]int{}
	for _, r := range a.Requests {
		kinds[r.Kind]++
		if r.Session < 0 || r.Session >= serveSessions {
			t.Fatalf("session %d out of range", r.Session)
		}
		if r.Kind != "edit" {
			continue
		}
		if seen[r.Source] || r.Source == demo {
			t.Fatal("an edit uploads a source the run already used: it would not be cold")
		}
		seen[r.Source] = true
	}
	if kinds["read"] != 195 || kinds["edit"] != 75 || kinds["profile"] != 30 {
		t.Errorf("request mix %v, want exactly 65%% reads, 25%% edits, 10%% profiles", kinds)
	}
}

func TestVariantNeedsIntegerArguments(t *testing.T) {
	if _, err := variant("class X {}", rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("variant of a source with nothing to vary did not fail")
	}
}

func TestCheckRejectsMutatedResponse(t *testing.T) {
	plan := &servePlan{Initial: []string{"a0", "b0"}}
	st := newServeState(plan, []string{"s1", "s2"}, []string{"A0", "B0"})
	steps := []struct {
		r    serveReq
		body string
		ok   bool
	}{
		{serveReq{Kind: "read", Session: 0}, "A0", true},
		{serveReq{Kind: "read", Session: 0}, "A0 mutated", false},
		{serveReq{Kind: "read", Session: 1}, "A0", false}, // another session's response
		{serveReq{Kind: "edit", Session: 0, Source: "a1"}, "A1", true},
		{serveReq{Kind: "read", Session: 0}, "A0", false}, // stale after the edit
		{serveReq{Kind: "read", Session: 0}, "A1", true},
		{serveReq{Kind: "profile", Session: 0}, "P1", true},
		{serveReq{Kind: "profile", Session: 0}, "P1 mutated", false},
		{serveReq{Kind: "profile", Session: 1}, "Q0", true}, // different source, no reference yet
	}
	for i, s := range steps {
		err := st.check(s.r, s.body)
		if (err == nil) != s.ok {
			t.Errorf("step %d (%s %q): error %v, want ok=%v", i, s.r.Kind, s.body, err, s.ok)
		}
	}
}

func TestParseTelemetry(t *testing.T) {
	stderr := "sched: jobs=2 tasks=10 attempts=10 steals=0 panics=0 wall=1s util=90% straggler=#6(500ms)\n" +
		"sched: jobs=2 tasks=11 attempts=11 steals=0 panics=0 wall=1s util=50% straggler=#1(100ms)\n" +
		"cache: 12 hits, 4 misses (75.0% hit rate), 0 evictions, 4/16384 entries, 4 parses\n"
	tel, err := parseTelemetry(stderr)
	if err != nil {
		t.Fatal(err)
	}
	want := telemetry{hits: 12, misses: 4, tasks: 21, util: 0.7, stragglerFrac: 0.3}
	if math.Abs(tel.util-want.util) > 1e-12 || math.Abs(tel.stragglerFrac-want.stragglerFrac) > 1e-12 {
		t.Errorf("telemetry %+v, want %+v", tel, want)
	}
	tel.util, tel.stragglerFrac = want.util, want.stragglerFrac
	if tel != want {
		t.Errorf("telemetry %+v, want %+v", tel, want)
	}
	if _, err := parseTelemetry("nothing here"); err == nil {
		t.Error("stderr without a cache line parsed")
	}
}

func TestResultLine(t *testing.T) {
	sp := &spec{
		EndToEnd: []specMetric{{Name: "latency_p50_ms", Unit: "ms"}, {Name: "setup_s", Unit: "s"}},
		PerLayer: []specMetric{{Name: "parser.share", Unit: "frac"}},
	}
	rec := newRecord("w", 1, 1, false)
	rec.Attempted = 3
	rec.set("latency_p50_ms", "ms", 1.25)
	rec.set("setup_s", "s", 0.5)
	rec.set("extra", "ms", 9)
	line, err := sp.resultLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_p50_ms":{"value":1.25,"unit":"ms"},"setup_s":{"value":0.5,"unit":"s"}}}`
	if line != want {
		t.Errorf("result line\n%s\nwant\n%s", line, want)
	}
	rec.set("setup_s", "ms", 500)
	if _, err := sp.resultLine(rec); err == nil {
		t.Error("a metric in the wrong unit passed")
	}
	rec.Trace = true
	if _, err := sp.resultLine(rec); err == nil {
		t.Error("a traced record without its per-layer metrics passed")
	}
}

// The committed BENCHMARK.json must name only workloads the harness runs.
func TestSpecWorkloadsKnown(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sp.workloadNames() {
		if !knownWorkload(name) {
			t.Errorf("BENCHMARK.json names unknown workload %q", name)
		}
	}
	if _, err := os.Stat("../" + serveExample); err != nil {
		t.Errorf("serve workload source: %v", err)
	}
}
