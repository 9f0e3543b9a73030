package tables

import (
	"context"
	"os"
	"reflect"
	"sync"
	"testing"

	"jepo/internal/core"
	"jepo/internal/corpus"
	"jepo/internal/engine"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/parser"
	"jepo/internal/stats"
)

// TestReadOnlyMastersShared shares one artifact store's parse masters
// between every reader and every mutating path at once: the Table I
// analysis, metrics, printing and cloning read the masters in place, while
// engine.Sample, a measured core.Analyze, core.Optimize, core.Profile and a
// Table IV row copy them and link or rewrite the copies. Under the race
// detector it proves the masters are never written; afterwards every master
// must print like a fresh parse and carry no resolver annotation and no
// probe label.
func TestReadOnlyMastersShared(t *testing.T) {
	const seed = 20200518
	const classifier = "NaiveBayes"
	demoSrc, err := os.ReadFile("../../examples/java/EnergyDemo.java")
	if err != nil {
		t.Fatal(err)
	}
	demo := core.Project{"EnergyDemo.java": string(demoSrc)}
	proj, err := corpus.Generate(classifier, seed)
	if err != nil {
		t.Fatal(err)
	}
	slice := proj.Files[:24]
	sliceSrcs := make([]engine.Source, len(slice))
	for i, f := range slice {
		sliceSrcs[i] = engine.Source{Path: f.Path, Source: f.Source}
	}

	e := engine.New(engine.Config{})
	defer engine.SetDefault(engine.SetDefault(e))
	// Store the masters before the goroutines start, so every path below
	// shares them from its first lookup.
	masters, err := e.ParseAll(append(engine.Sources(demo), sliceSrcs...))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	inputs, err := newTable4Inputs(Table4Config{
		Seed: seed, Instances: 40, Reps: 1,
		Protocol: stats.Protocol{Runs: 3, MaxRounds: 1}, CVFolds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		run  func() error
	}{
		{"suggest", func() error {
			for _, f := range slice {
				if _, err := core.SuggestProject(core.Project{f.Path: f.Source}); err != nil {
					return err
				}
			}
			_, err := core.SuggestProject(demo)
			return err
		}},
		{"metrics", func() error {
			_, err := core.Metrics(demo, "EnergyDemo")
			return err
		}},
		{"table2", func() error {
			_, err := Table2Row(classifier, seed)
			return err
		}},
		{"print+clone", func() error {
			for _, m := range masters {
				if ast.Print(ast.CloneFile(m)) != ast.Print(m) {
					t.Errorf("%s: clone prints differently", m.Path)
				}
			}
			return nil
		}},
		{"sample", func() error {
			if _, err := e.Sample(ctx, engine.Sources(demo), engine.RunSpec{}); err != nil {
				return err
			}
			// No main: turned away at the entry check.
			if _, err := e.Sample(ctx, sliceSrcs, engine.RunSpec{}); err == nil {
				t.Error("corpus slice sampled without a main")
			}
			return nil
		}},
		{"analyze", func() error {
			rep, err := core.Analyze(ctx, demo, core.AnalyzeConfig{Cache: e, Jobs: 2})
			if err == nil && len(rep.Accepted()) == 0 {
				t.Error("analyze measured no fix")
			}
			return err
		}},
		{"optimize", func() error {
			_, _, err := core.Optimize(ctx, demo)
			return err
		}},
		{"profile", func() error {
			_, err := core.Profile(ctx, demo, core.ProfileConfig{Cache: e})
			return err
		}},
		{"table4", func() error {
			_, err := measureTable4Row(ctx, classifier, inputs)
			return err
		}},
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, p := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := p.run(); err != nil {
					t.Errorf("%s: %v", p.name, err)
				}
			}()
		}
	}
	wg.Wait()

	var all []corpus.File
	for p, src := range demo {
		all = append(all, corpus.File{Path: p, Source: src})
	}
	all = append(all, proj.Files...)
	for _, f := range all {
		master, err := e.ParseFile(f.Path, f.Source)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := parser.Parse(f.Path, f.Source)
		if err != nil {
			t.Fatal(err)
		}
		if ast.Print(master) != ast.Print(fresh) {
			t.Errorf("%s: master no longer prints like a fresh parse", f.Path)
		}
		// A fresh parse has every resolver field zero (Ident.RSlot/RKind/RIx,
		// SiteIx, Method.CIx/NSlots, LocalVar and Catch slots).
		if !reflect.DeepEqual(master.Classes, fresh.Classes) {
			t.Errorf("%s: master carries resolver annotations or edits", f.Path)
		}
		// Profiling labels the copies it links, never the master.
		for _, c := range master.Classes {
			for _, m := range c.Methods {
				if m.Probe != "" {
					t.Errorf("%s: master method %s.%s carries probe label %q", f.Path, c.Name, m.Name, m.Probe)
				}
			}
		}
	}
}
