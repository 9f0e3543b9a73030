package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"jepo/internal/core"
	"jepo/internal/corpus"
	"jepo/internal/engine"
	"jepo/internal/tables"
)

// TestStoreColdThenWarm runs the `jepo analyze examples/java`, `wekaexp
// -table 2` and `jepo corpus -classifier J48` pipelines twice on one fresh
// process-wide store. The warm pass must render byte-identical output from
// hits alone: some lookups hit, and nothing is parsed again.
func TestStoreColdThenWarm(t *testing.T) {
	const seed = 20200518
	demo, err := os.ReadFile(filepath.Join("..", "..", "examples", "java", "EnergyDemo.java"))
	if err != nil {
		t.Fatal(err)
	}
	project := core.Project{"examples/java/EnergyDemo.java": string(demo)}
	ctx := context.Background()
	pipelines := []struct {
		name string
		run  func() (string, error)
	}{
		{"analyze", func() (string, error) {
			rep, err := core.Analyze(ctx, project, core.AnalyzeConfig{Jobs: 2})
			if err != nil {
				return "", err
			}
			return RenderAnalyze(rep), nil
		}},
		{"table2", func() (string, error) {
			rows, _, err := tables.Table2Parallel(ctx, seed, 2)
			if err != nil {
				return "", err
			}
			return RenderTable2(rows), nil
		}},
		{"corpus", func() (string, error) {
			p, err := corpus.Generate("J48", seed)
			if err != nil {
				return "", err
			}
			rep, _, err := core.AnalyzeAll(ctx, p, core.AnalyzeConfig{Jobs: 2})
			if err != nil {
				return "", err
			}
			return core.CorpusView(rep), nil
		}},
	}

	store := engine.New(engine.Config{})
	prev := engine.SetDefault(store)
	defer engine.SetDefault(prev)
	cold := make([]string, len(pipelines))
	for i, p := range pipelines {
		if cold[i], err = p.run(); err != nil {
			t.Fatalf("cold %s: %v", p.name, err)
		}
	}
	before := store.Stats()
	for i, p := range pipelines {
		warm, err := p.run()
		if err != nil {
			t.Fatalf("warm %s: %v", p.name, err)
		}
		if warm != cold[i] {
			t.Errorf("warm %s output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", p.name, cold[i], warm)
		}
	}
	after := store.Stats()
	if after.Hits <= before.Hits {
		t.Errorf("warm pass made no hits: %s, then %s", before, after)
	}
	if after.Parses != before.Parses {
		t.Errorf("warm pass parsed again: %s, then %s", before, after)
	}
}
