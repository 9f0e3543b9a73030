package tables

import (
	"context"
	"fmt"
	"strings"

	"jepo/internal/airlines"
	"jepo/internal/corpus"
	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/stats"
)

// AblationRow reports the Random Forest Table IV improvement when one cost-
// model feature is neutralized. It quantifies how much of the headline
// result each modelled mechanism carries.
type AblationRow struct {
	Variant     string
	Description string
	PackagePct  float64
}

// ablationVariant mutates a cost table to remove one mechanism.
type ablationVariant struct {
	name string
	desc string
	mod  func(*energy.CostTable)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"full", "complete cost model", func(t *energy.CostTable) {}},
		{"no-cache", "cache misses cost the same as hits", func(t *energy.CostTable) {
			t.CacheMiss = energy.Cost{
				Picojoules: t.CacheHit.Picojoules + 1, // Validate requires miss > hit
				Cycles:     t.CacheHit.Cycles,
			}
		}},
		{"cheap-static", "static access costs the same as a local", func(t *energy.CostTable) {
			t.Ops[energy.OpStatic] = t.Ops[energy.OpLocal]
		}},
		{"cheap-modulus", "modulus costs the same as other integer arithmetic", func(t *energy.CostTable) {
			t.Ops[energy.OpModInt] = t.Ops[energy.OpArithInt]
		}},
		{"uniform-fp", "double arithmetic costs the same as float", func(t *energy.CostTable) {
			t.Ops[energy.OpArithDouble] = t.Ops[energy.OpArithFloat]
		}},
		{"no-uncore", "no static package power (package = core)", func(t *energy.CostTable) {
			t.UncoreWatts = 0
		}},
	}
}

// AblationConfig scales the ablation runs.
type AblationConfig struct {
	Seed       uint64
	Classifier string // default RandomForest
	Instances  int
	Reps       int
	Engine     interp.Engine // execution engine (zero value = bytecode VM)
}

// DefaultAblationConfig matches the Table IV defaults at reduced repetition.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Seed: 20200518, Classifier: "RandomForest", Instances: 2000, Reps: 2}
}

// Ablate measures the chosen classifier's refactoring improvement under each
// cost-model variant. The spread across variants shows which mechanisms the
// headline improvement decomposes into.
func Ablate(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	if cfg.Classifier == "" {
		cfg.Classifier = "RandomForest"
	}
	proj, err := corpus.Generate(cfg.Classifier, cfg.Seed)
	if err != nil {
		return nil, err
	}
	orig, err := kernelAST(proj, cfg.Classifier)
	if err != nil {
		return nil, err
	}
	refd, err := kernelAST(proj, cfg.Classifier)
	if err != nil {
		return nil, err
	}
	kernel := []*ast.File{refd}
	passes.ApplyFixes(kernel, passes.AnalyzeFiles(kernel))

	data := airlines.Generate(cfg.Instances, cfg.Seed)
	feats, labels := kernelData(data)

	var rows []AblationRow
	for _, v := range ablationVariants() {
		costs := energy.DefaultCosts()
		v.mod(&costs)
		if err := costs.Validate(); err != nil {
			return nil, fmt.Errorf("tables: ablation %s produced invalid costs: %w", v.name, err)
		}
		before, err := runKernelOnce(ctx, orig, cfg.Classifier, feats, labels, cfg.Reps, costs, cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("tables: ablation %s: %w", v.name, err)
		}
		after, err := runKernelOnce(ctx, refd, cfg.Classifier, feats, labels, cfg.Reps, costs, cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("tables: ablation %s: %w", v.name, err)
		}
		rows = append(rows, AblationRow{
			Variant:     v.name,
			Description: v.desc,
			PackagePct:  stats.Improvement(float64(before.pkg), float64(after.pkg)),
		})
	}
	return rows, nil
}

// RenderAblation lays out the ablation rows.
func RenderAblation(classifier string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s kernel improvement under cost-model variants\n", classifier)
	fmt.Fprintf(&sb, "%-14s %12s  %s\n", "Variant", "Package (%)", "Description")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12.2f  %s\n", r.Variant, r.PackagePct, r.Description)
	}
	return sb.String()
}
