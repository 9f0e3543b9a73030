// Package core is JEPO — the Java Energy Profiler & Optimizer that is the
// paper's primary contribution — reimplemented as a library. The Eclipse
// plugin surface maps onto four entry points:
//
//   - Suggest: the optimizer's static analysis (Table I rules; Figs. 2, 5)
//   - Optimize: automatic application of the suggestions (the refactoring
//     the paper's §VIII validation performed on WEKA)
//   - Profile: method-granularity energy measurement via injected RAPL
//     probes (Fig. 4 and result.txt)
//   - Metrics: the dependency/attribute/method/package/LOC analysis of
//     Table II
//
// Measurements read the calibrated simulator's counters (rapl.NewSimSource
// over the energy meter); no entry point reads host RAPL counters.
//
// Every entry point parses through the content-addressed artifact engine
// (internal/engine), so unchanged sources are cached read-only parse
// masters: the readers (Suggest, SuggestProject, Metrics and Analyze's
// detection) read them in place, and the writers (Optimize, Analyze's fix
// measurements, Profile) copy them first. Analyze reports are cached whole,
// so a repeated analysis is served from cache with bit-identical results.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/jmetrics"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/profile"
	"jepo/internal/rapl"
)

// Project is a set of Java sources keyed by path.
type Project map[string]string

// ParseProject parses every file, in deterministic path order, through the
// process-wide artifact engine: unchanged files are cached masters rather
// than fresh parses. The files are read-only (see engine.ParseFile); take
// ast.CloneFiles copies to link or rewrite them.
func ParseProject(p Project) ([]*ast.File, error) {
	return engine.Default().ParseAll(engine.Sources(p))
}

// SuggestProject runs the analysis over a whole project.
func SuggestProject(p Project) ([]passes.Diagnostic, error) {
	files, err := ParseProject(p)
	if err != nil {
		return nil, err
	}
	return passes.AnalyzeFiles(files), nil
}

// OptimizerView renders the Fig. 5 table: class, line, suggestion.
func OptimizerView(sugs []passes.Diagnostic) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %6s  %s\n", "Class", "Line", "Suggestion")
	for _, s := range sugs {
		fmt.Fprintf(&sb, "%-32s %6d  %s — %s\n", s.Class, s.Line, s.Rule.Component(), s.Rule.Text())
	}
	if len(sugs) == 0 {
		sb.WriteString("(no suggestions — the file already follows the Table I guidance)\n")
	}
	return sb.String()
}

// DynamicView renders the Fig. 2 view for the file the developer is editing:
// suggestions near the cursor line first.
func DynamicView(sugs []passes.Diagnostic, cursorLine int) string {
	ordered := append([]passes.Diagnostic(nil), sugs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		di := abs(ordered[i].Line - cursorLine)
		dj := abs(ordered[j].Line - cursorLine)
		return di < dj
	})
	var sb strings.Builder
	sb.WriteString("JEPO suggestions (nearest to cursor first):\n")
	for _, s := range ordered {
		fmt.Fprintf(&sb, "  line %d: [%s] %s\n", s.Line, s.Rule.Component(), s.Rule.Text())
	}
	return sb.String()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Optimize applies the (selected, default all) Table I refactorings to a
// project, returning the rewritten sources and the change report. The
// rewrite itself is pure parse-and-print work, so ctx is only consulted
// before it starts.
func Optimize(ctx context.Context, p Project, rules ...passes.Rule) (Project, *passes.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	masters, err := ParseProject(p)
	if err != nil {
		return nil, nil, err
	}
	files := ast.CloneFiles(masters)
	res := passes.ApplyFixes(files, passes.AnalyzeFilesRules(files, rules...))
	out := make(Project, len(files))
	for _, f := range files {
		out[f.Path] = ast.Print(f)
	}
	return out, res, nil
}

// ProfileResult is the outcome of a profiled run.
type ProfileResult struct {
	Profiler *profile.Profiler
	Stdout   string        // what the program printed
	Sample   energy.Sample // whole-run totals from the meter
}

// View renders the Fig. 4 profiler table.
func (r *ProfileResult) View() string { return r.Profiler.View() }

// ProfileConfig configures a profiled run.
type ProfileConfig struct {
	// MainClass selects the class whose main method runs; empty means the
	// unique main class ("if there is more than one, then we take user
	// input", says §VII — the CLI exposes this as a flag).
	MainClass string
	// MaxOps bounds interpretation (0 = interp.DefaultMaxOps).
	MaxOps int64
	// Costs overrides the cost table (zero value = DefaultCosts).
	Costs *energy.CostTable
	// Engine selects the execution engine (zero value = bytecode VM).
	Engine interp.Engine
	// Cache selects the artifact engine (nil = engine.Default()).
	Cache *engine.Engine
}

// Profile instruments every method of the project with entry and exit
// probes, executes the main class, and returns per-execution measurements —
// the library form of the "JEPO profiler" pop-up action. Cancelling ctx
// aborts the run mid-interpretation and returns ctx's error.
func Profile(ctx context.Context, p Project, cfg ProfileConfig) (*ProfileResult, error) {
	eng := cfg.Cache
	if eng == nil {
		eng = engine.Default()
	}
	prog, err := eng.Program(engine.Sources(p), true)
	if err != nil {
		return nil, err
	}
	costs := energy.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	meter := energy.NewMeter(costs)
	src := rapl.NewSimSource(meter)
	prof := profile.New(src, func() time.Duration { return meter.Snapshot().Elapsed })
	maxOps := cfg.MaxOps
	if maxOps == 0 {
		maxOps = interp.DefaultMaxOps
	}
	in := interp.New(prog, meter, interp.WithHook(prof), interp.WithMaxOps(maxOps), interp.WithEngine(cfg.Engine), interp.WithContext(ctx))
	if err := in.RunMain(cfg.MainClass); err != nil {
		return nil, err
	}
	if err := prof.Err(); err != nil {
		return nil, err
	}
	return &ProfileResult{
		Profiler: prof,
		Stdout:   in.Output(),
		Sample:   meter.Snapshot(),
	}, nil
}

// Metrics computes the Table II row for a root class over the project.
func Metrics(p Project, root string) (jmetrics.Metrics, error) {
	files, err := ParseProject(p)
	if err != nil {
		return jmetrics.Metrics{}, err
	}
	srcs := make([]jmetrics.SourceFile, len(files))
	for i, f := range files {
		srcs[i] = jmetrics.SourceFile{AST: f, Source: p[f.Path]}
	}
	return jmetrics.NewProject(srcs).Measure(root)
}
