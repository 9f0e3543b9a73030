package core

import (
	"context"
	"fmt"
	"strings"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/sched"
)

// Verdict is the measured judgement on one diagnostic's fix.
type Verdict int

const (
	// VerdictAdvisory: the diagnostic carries no mechanical fix.
	VerdictAdvisory Verdict = iota
	// VerdictUnmeasured: the fix exists but could not be measured (no
	// runnable main, the fix made no change when replayed alone, or the
	// rewritten program failed to run).
	VerdictUnmeasured
	// VerdictAccepted: the fix was measured and does not cost energy.
	VerdictAccepted
	// VerdictRejected: the fix was measured to *increase* package energy on
	// this program, so the engine refuses it.
	VerdictRejected
)

func (v Verdict) String() string {
	switch v {
	case VerdictAccepted:
		return "accepted"
	case VerdictRejected:
		return "rejected"
	case VerdictUnmeasured:
		return "unmeasured"
	}
	return "advisory"
}

// AnalyzedDiagnostic is one pass-engine finding plus its measured effect.
type AnalyzedDiagnostic struct {
	passes.Diagnostic
	Verdict Verdict
	// Delta is the package-domain energy saved by applying this fix alone:
	// baseline minus fixed-run energy, so positive means the fix helps.
	// Valid only when Verdict is Accepted or Rejected.
	Delta energy.Joules
	// DeltaPct is Delta as a percentage of the baseline package energy.
	DeltaPct float64
	// Note explains an Unmeasured verdict.
	Note string
}

// AnalysisReport is the outcome of Analyze over a project. Reports are
// cached by the artifact engine and may be shared across Analyze calls with
// identical inputs; treat them as read-only.
type AnalysisReport struct {
	Diags []AnalyzedDiagnostic
	// Executable reports whether the project ran end-to-end, enabling
	// per-fix measurement; ExecNote says why when it did not.
	Executable bool
	ExecNote   string
	// Baseline is the unmodified program's whole-run measurement.
	Baseline energy.Sample
}

// Accepted lists the diagnostics whose fixes survived measurement.
func (r *AnalysisReport) Accepted() []AnalyzedDiagnostic {
	var out []AnalyzedDiagnostic
	for _, d := range r.Diags {
		if d.Verdict == VerdictAccepted {
			out = append(out, d)
		}
	}
	return out
}

// AnalyzeConfig configures Analyze.
type AnalyzeConfig struct {
	// MainClass selects the entry point (empty = the unique main class).
	MainClass string
	// MaxOps bounds each measurement run (0 = interp.DefaultMaxOps).
	MaxOps int64
	// Rules restricts the engine to a rule subset (empty = all rules).
	Rules []passes.Rule
	// Costs overrides the simulator cost table (nil = DefaultCosts).
	Costs *energy.CostTable
	// Engine selects the execution engine for the measurement runs
	// (zero value = bytecode VM). Both engines charge identically, so the
	// verdicts do not depend on this; it exists for cross-checking.
	Engine interp.Engine
	// Jobs bounds the worker pool for the per-fix measurements (and, through
	// AnalyzeAll, the per-file fan-out). Verdicts merge in diagnostic order,
	// so the report is bit-identical at any value; Jobs is therefore NOT
	// part of the report's cache key. <= 0 means 1.
	Jobs int
	// Cache selects the artifact engine the pipeline stages go through
	// (nil = engine.Default()). Every configuration field above except Jobs
	// is cache-key material: changing the entry point, op budget, rule
	// subset, cost table or execution engine keys separate artifacts.
	Cache *engine.Engine
}

// cache resolves the artifact engine for this config.
func (cfg AnalyzeConfig) cache() *engine.Engine {
	if cfg.Cache != nil {
		return cfg.Cache
	}
	return engine.Default()
}

// runSpec is the measurement configuration shared by the baseline sample
// and every fix measurement.
func (cfg AnalyzeConfig) runSpec() engine.RunSpec {
	return engine.RunSpec{
		Main:   cfg.MainClass,
		MaxOps: cfg.MaxOps,
		Engine: cfg.Engine,
		Costs:  cfg.Costs,
	}
}

// reportKey hashes everything that can influence an analysis report: the
// project's paths and bytes (paths appear in diagnostics), the rule subset,
// and the full measurement configuration. Jobs is deliberately absent.
func reportKey(srcs []engine.Source, cfg AnalyzeConfig) engine.Key {
	h := engine.NewKey("core/analyze")
	h.Str(cfg.MainClass).Int(cfg.MaxOps).Int(int64(cfg.Engine))
	if cfg.Costs != nil {
		h.Str(fmt.Sprintf("%v", *cfg.Costs))
	}
	h.Int(int64(len(cfg.Rules)))
	for _, r := range cfg.Rules {
		h.Int(int64(r))
	}
	for _, s := range srcs {
		h.Str(s.Path).Str(s.Source)
	}
	return h.Key()
}

// Analyze is the detect/fix/verify pipeline: it runs every pass over the
// project in one shared traversal per file, and — when the project has a
// runnable main — measures each mechanical fix in isolation by replaying
// just that fix on a private AST checkout and running the program before and
// after through the interpreter and energy model. Fixes whose measured
// package-energy delta is negative are flagged VerdictRejected rather than
// trusted on the rule's say-so.
//
// The interpreter and meter are deterministic, so a single before/after run
// pair per fix is an exact measurement, and repeated Analyze calls agree.
// Every parse is a checkout of a cached master, and the report itself is
// content-addressed, so a repeated call is a cache hit with a bit-identical
// report.
//
// Cancelling ctx aborts the pipeline — including mid-interpretation inside a
// measurement run — and returns ctx's error. Because the engine never caches
// errors, and every cancellation surfaces as an error rather than a partial
// report, a cancelled Analyze leaves no trace in the artifact store.
func Analyze(ctx context.Context, p Project, cfg AnalyzeConfig) (*AnalysisReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eng := cfg.cache()
	srcs := engine.Sources(p)
	v, err := eng.Memo(reportKey(srcs, cfg), func() (any, error) {
		return analyze(ctx, eng, srcs, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*AnalysisReport), nil
}

func analyze(ctx context.Context, eng *engine.Engine, srcs []engine.Source, cfg AnalyzeConfig) (*AnalysisReport, error) {
	files, err := eng.ParseAll(srcs)
	if err != nil {
		return nil, err
	}
	diags := passes.AnalyzeFilesRules(files, cfg.Rules...)
	report := &AnalysisReport{Diags: make([]AnalyzedDiagnostic, len(diags))}
	for i, d := range diags {
		v := VerdictAdvisory
		if d.Fix != nil {
			v = VerdictUnmeasured
		}
		report.Diags[i] = AnalyzedDiagnostic{Diagnostic: d, Verdict: v}
	}

	baseline, err := eng.Sample(ctx, srcs, cfg.runSpec())
	if err != nil {
		// A cancelled baseline run must surface as an error, never as a
		// cacheable "program not runnable" report.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		report.ExecNote = err.Error()
		for i := range report.Diags {
			if report.Diags[i].Verdict == VerdictUnmeasured {
				report.Diags[i].Note = "program not runnable"
			}
		}
		return report, nil
	}
	report.Executable = true
	report.Baseline = baseline

	// Each fix measures on its own AST checkout and interpreter, so the
	// measurements shard across the pool; verdicts commit in diagnostic
	// order, keeping the report bit-identical at any cfg.Jobs.
	var idxs []int
	for i := range report.Diags {
		if report.Diags[i].Verdict == VerdictUnmeasured {
			idxs = append(idxs, i)
		}
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	_, _, err = sched.MapCommit(ctx, sched.Config{Jobs: jobs}, idxs,
		func(_ sched.Task, i int) (fixOutcome, error) {
			return measureFix(ctx, eng, srcs, cfg, i, len(diags), baseline)
		},
		func(task sched.Task, out fixOutcome) {
			ad := &report.Diags[idxs[task.Index]]
			if out.Note != "" {
				ad.Note = out.Note
				return
			}
			ad.Delta = out.Delta
			if baseline.Package != 0 {
				ad.DeltaPct = 100 * float64(out.Delta) / float64(baseline.Package)
			}
			if out.Delta < 0 {
				ad.Verdict = VerdictRejected
			} else {
				ad.Verdict = VerdictAccepted
			}
		})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// fixOutcome is one fix measurement: the measured delta, or the note
// explaining why the fix could not be measured.
type fixOutcome struct {
	Delta energy.Joules
	Note  string
}

// measureFix checks out a private copy of the project's ASTs from the parse
// cache, re-derives the diagnostics on it (fix closures anchor to exact node
// instances, so they cannot be replayed across parses; the engine is
// deterministic, so index i names the same finding), applies only fix i, and
// measures the resulting program. The unchanged-file majority never
// re-parses: a checkout is a clone of the cached master, so Analyze performs
// O(files) parses total instead of O(files × fixes).
func measureFix(ctx context.Context, eng *engine.Engine, srcs []engine.Source, cfg AnalyzeConfig, i, want int, baseline energy.Sample) (fixOutcome, error) {
	files, err := eng.ParseAll(srcs)
	if err != nil {
		return fixOutcome{}, err
	}
	diags := passes.AnalyzeFilesRules(files, cfg.Rules...)
	if len(diags) != want {
		return fixOutcome{}, fmt.Errorf("core: analysis is not deterministic: %d diagnostics, then %d", want, len(diags))
	}
	res := passes.ApplyFixes(files, []passes.Diagnostic{diags[i]})
	if res.Changes == 0 {
		return fixOutcome{Note: "fix made no change when replayed alone"}, nil
	}
	after, err := measureRun(ctx, files, cfg)
	if err != nil {
		// Same trap as the baseline: a cancelled measurement is an error,
		// not a cacheable "rewritten program failed" note.
		if cerr := ctx.Err(); cerr != nil {
			return fixOutcome{}, cerr
		}
		return fixOutcome{Note: "rewritten program failed: " + err.Error()}, nil
	}
	return fixOutcome{Delta: baseline.Package - after.Package}, nil
}

// measureRun links a rewritten project and measures its main under the
// baseline's run configuration. The ASTs here are post-fix mutants private
// to the caller.
func measureRun(ctx context.Context, files []*ast.File, cfg AnalyzeConfig) (energy.Sample, error) {
	prog, err := interp.Load(files...)
	if err != nil {
		return energy.Sample{}, err
	}
	return engine.Run(ctx, prog, cfg.runSpec())
}

// AnalysisView renders the unified diagnostic view: every finding with its
// rule, whether a mechanical fix exists, and the measured ΔE verdict.
func AnalysisView(r *AnalysisReport) string {
	var sb strings.Builder
	if r.Executable {
		fmt.Fprintf(&sb, "baseline: package=%v core=%v time=%v\n",
			r.Baseline.Package, r.Baseline.Core, r.Baseline.Elapsed)
	} else {
		fmt.Fprintf(&sb, "measurement disabled: %s\n", r.ExecNote)
	}
	for _, d := range r.Diags {
		fmt.Fprintf(&sb, "%s\n", d.Diagnostic)
		switch d.Verdict {
		case VerdictAdvisory:
			sb.WriteString("    advisory — no mechanical fix\n")
		case VerdictUnmeasured:
			fmt.Fprintf(&sb, "    fix available — unmeasured (%s)\n", d.Note)
		case VerdictAccepted:
			fmt.Fprintf(&sb, "    fix accepted — ΔE = %v (%.3f%% of package)\n", d.Delta, d.DeltaPct)
		case VerdictRejected:
			// Joules formatting picks its unit for magnitudes, so render the
			// sign ourselves.
			fmt.Fprintf(&sb, "    fix REJECTED — measured ΔE = -%v (costs energy on this program)\n", -d.Delta)
		}
	}
	if len(r.Diags) == 0 {
		sb.WriteString("(no diagnostics — the project already follows the Table I guidance)\n")
	}
	return sb.String()
}
