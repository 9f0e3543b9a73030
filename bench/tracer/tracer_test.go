package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jepo/internal/airlines"
	"jepo/internal/core"
	"jepo/internal/corpus"
	"jepo/internal/engine"
	"jepo/internal/service"
	"jepo/internal/stats"
	"jepo/internal/tables"
)

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	l := tr.lane()
	l.begin(glue)
	l.begin(layerEngine)
	l.begin(layerParser)
	time.Sleep(2 * time.Millisecond)
	l.end()
	l.end()
	l.count(cParseFiles, 3)
	l.end()
	l.release()
	if l2 := tr.lane(); l2.tid != l.tid {
		t.Errorf("released lane id %d not reused (got %d)", l.tid, l2.tid)
	}
	tot := tr.totals()
	var sum int64
	for _, s := range tr.spans {
		sum += s.dur - s.child
	}
	if root := tr.spans[0]; sum != root.dur {
		t.Errorf("self times add up to %d, root span lasted %d", sum, root.dur)
	}
	if tot.self[layerParser] < int64(2*time.Millisecond) || tot.counts[cParseFiles] != 3 || tot.spans != 3 {
		t.Errorf("totals %+v", tot)
	}
	var nl *lane // the untraced pipeline's lane
	nl.begin(layerExec)
	nl.count(cVMOps, 1)
	nl.end()
	nl.release()
	if (*tracer)(nil).lane() != nil {
		t.Error("a nil tracer handed out a lane")
	}
}

// smoke runs one traced iteration of a batch pipeline, checks its output
// against the program's own top-level call for the same inputs, and checks
// that the layer spans account for at least 75% of the traced time.
func smoke(t *testing.T, name string, seed uint64, want string) {
	t.Helper()
	tr := newTracer()
	out, err := pipelines[name](newMirror(context.Background(), tr), seed)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Fatalf("%s: traced pipeline output differs from the program's:\n%s\n--- want ---\n%s", name, out, want)
	}
	tot := tr.totals()
	m := layerMetrics(tot, runtimeUse{}, 1, 1, 1)
	if c := m["trace.coverage"].Value; c < 0.75 {
		t.Errorf("%s: trace coverage %.3f < 0.75", name, c)
	}
	if tot.counts[cParseFiles] == 0 || tot.counts[cPrograms] == 0 {
		t.Errorf("%s: no parses or loads counted: %v", name, tot.counts)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != tot.spans {
		t.Errorf("%s: Chrome trace has %d events for %d spans (%v)", name, len(doc.TraceEvents), tot.spans, err)
	}
}

func TestTable1Pipeline(t *testing.T) {
	rows, _, err := tables.Table1Jobs(context.Background(), vm, 1)
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, "table1", 1, service.RenderTable1(rows))
}

func TestCorpusPipeline(t *testing.T) {
	const seed = 3
	p, err := corpus.Generate("J48", seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := core.AnalyzeAll(context.Background(), p, core.AnalyzeConfig{Engine: vm, Jobs: 2, Cache: engine.New(engine.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, "corpus", seed, core.CorpusView(rep))
}

// TestTablesPipeline compares against the tables package's own runners,
// printed the way wekaexp -table all prints them.
func TestTablesPipeline(t *testing.T) {
	const seed = 5
	ctx := context.Background()
	prev := engine.SetDefault(engine.New(engine.Config{}))
	defer engine.SetDefault(prev)
	var sb strings.Builder
	rows1, _, err := tables.Table1Jobs(ctx, vm, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString("=== Table I: Java components & suggestions (measured) ===\n" + tables.RenderTable1(rows1) + "\n")
	rows2, _, err := tables.Table2Parallel(ctx, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(service.RenderTable2(rows2))
	sb.WriteString("=== Table III: MOA airlines data ===\n" + tables.Table3(400, seed) + "\n")
	acfg := tables.DefaultAblationConfig()
	acfg.Seed, acfg.Instances = seed, 400
	arows, err := tables.Ablate(ctx, acfg)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString("=== Ablation: cost-model mechanisms behind the Table IV headline ===\n" + tables.RenderAblation(acfg.Classifier, arows) + "\n")
	rows4, err := tables.Table4Supervised(ctx, tables.Table4Config{
		Seed: seed, Instances: 400, Reps: 1, Protocol: stats.Protocol{Runs: 3, MaxRounds: 10}, CVFolds: 3, Slots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString("=== Table IV: WEKA evaluation ===\n" + tables.RenderTable4(rows4) + "\n")
	smoke(t, "tables", seed, sb.String())
}

// The kernel inputs must match what the tables package binds: a kernel
// measurement of the same classifier agrees only if the data does.
func TestKernelInputs(t *testing.T) {
	in := newKernelInputs(airlines.Generate(50, 9))
	for i, row := range in.feats {
		for j, x := range row {
			if x < 0 || x > 1 {
				t.Fatalf("feature [%d][%d] = %v outside [0,1]", i, j, x)
			}
		}
		if c := in.labels[i]; c != 0 && c != 1 {
			t.Fatalf("label %d = %d", i, c)
		}
	}
}

// TestServeReplay replays a short session script against responses taken
// from the service layer itself.
func TestServeReplay(t *testing.T) {
	base, err := os.ReadFile("../../examples/java/EnergyDemo.java")
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(base), "mod(400)", "mod(411)", 1)
	ctx := context.Background()
	svc := service.New(service.Config{Jobs: 2, Slots: 2})
	defer svc.Close()
	p := &replayPlan{Path: "EnergyDemo.java", Initial: []string{string(base), string(base)}}
	var sessions []*service.Session
	for range p.Initial {
		s, err := svc.CreateSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutFile(p.Path, string(base)); err != nil {
			t.Fatal(err)
		}
		res, err := s.Analyze(ctx, service.Request{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Warm = append(p.Warm, res.Output)
		sessions = append(sessions, s)
	}
	type req = struct {
		Kind    string `json:"kind"`
		Session int    `json:"session"`
		Source  string `json:"source"`
		Expect  string `json:"expect"`
	}
	for _, r := range []req{{Kind: "read", Session: 0}, {Kind: "edit", Session: 1, Source: edited}, {Kind: "profile", Session: 1}, {Kind: "read", Session: 1}} {
		s := sessions[r.Session]
		if r.Kind == "edit" {
			if err := s.PutFile(p.Path, r.Source); err != nil {
				t.Fatal(err)
			}
		}
		if r.Kind == "profile" {
			res, err := s.Profile(ctx, service.Request{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.Expect = res.Output
		} else {
			res, err := s.Analyze(ctx, service.Request{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.Expect = res.Output
		}
		p.Requests = append(p.Requests, r)
	}
	tr := newTracer()
	s, n, err := newMirror(ctx, tr).setUp(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.requests()
	if err != nil {
		t.Fatal(err)
	}
	if n+m != 0 {
		t.Errorf("%d replayed responses differ from the service's", n+m)
	}
	tot := tr.totals()
	if tot.self[layerExec] == 0 || tot.self[layerRender] == 0 || tot.counts[cParseFiles] != 1 {
		t.Errorf("replay totals %+v: want exec and render time and exactly one parse (the edit)", tot)
	}
}
