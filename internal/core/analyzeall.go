// Corpus-wide analysis: the unified pass engine fanned across every file of
// a generated WEKA-shaped corpus by the executor. This is the reproduction
// of running JEPO over all of WEKA (§VIII ran it over 3,373 classes): each
// file is analyzed in isolation — detect, fix, verify with its own parser,
// interpreter and meter instances — and per-file reports merge in file order,
// so the corpus report is bit-identical at any width and placement.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"jepo/internal/corpus"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/sched"
)

// FileAnalysis is one corpus file's pass-engine outcome.
type FileAnalysis struct {
	Path   string
	Report *AnalysisReport
}

// CorpusReport aggregates AnalyzeAll over a corpus.Project.
type CorpusReport struct {
	Root  string // the classifier whose closure was analyzed
	Files []FileAnalysis
}

// Totals counts the corpus-wide findings: files with at least one finding,
// total diagnostics, and how many carry a mechanical fix.
func (r *CorpusReport) Totals() (flagged, diags, fixable int) {
	for _, fa := range r.Files {
		if len(fa.Report.Diags) > 0 {
			flagged++
		}
		diags += len(fa.Report.Diags)
		for _, d := range fa.Report.Diags {
			if d.Severity == passes.SeverityFixable {
				fixable++
			}
		}
	}
	return flagged, diags, fixable
}

// RuleCounts tallies diagnostics per rule across the corpus.
func (r *CorpusReport) RuleCounts() map[passes.Rule]int {
	counts := make(map[passes.Rule]int)
	for _, fa := range r.Files {
		for _, d := range fa.Report.Diags {
			counts[d.Rule]++
		}
	}
	return counts
}

// AnalyzeAll runs the unified pass engine over every file of a corpus
// already in hand, sharded across cfg.Jobs in-process workers. Each file is
// treated as its own single-file project — its diagnostics are detected, and
// when the file is runnable its fixes are measured in isolation, exactly as
// Analyze does — and the reports are committed in corpus file order. The
// returned telemetry is timing-dependent and must go to stderr, never into
// a determinism-pinned output stream.
func AnalyzeAll(ctx context.Context, p *corpus.Project, cfg AnalyzeConfig) (*CorpusReport, sched.Telemetry, error) {
	// Resolve the artifact engine once so every worker shares one store even
	// if the process-wide default is swapped mid-run.
	cfg.Cache = cfg.cache()
	report := &CorpusReport{Root: p.Root, Files: make([]FileAnalysis, 0, len(p.Files))}
	_, tel, err := sched.MapCommit(ctx, sched.Config{Jobs: cfg.Jobs}, p.Files,
		func(_ sched.Task, f corpus.File) (*AnalysisReport, error) {
			return analyzeFile(ctx, f, cfg)
		},
		report.commit(p))
	if err != nil {
		return nil, tel, err
	}
	return report, tel, nil
}

// AnalyzeCorpus generates a classifier's corpus and runs the pass engine
// over every file at the placement ex names — in process, or on worker
// processes that regenerate the corpus themselves. Reports commit in corpus
// file order, so the report is byte-identical at any width and placement.
func AnalyzeCorpus(ctx context.Context, ex sched.Config, classifier string, seed uint64, engine interp.Engine) (*CorpusReport, sched.Telemetry, error) {
	p, err := corpus.Generate(classifier, seed)
	if err != nil {
		return nil, sched.Telemetry{}, err
	}
	report := &CorpusReport{Root: p.Root, Files: make([]FileAnalysis, 0, len(p.Files))}
	params := corpusParams{Classifier: classifier, Seed: seed, Engine: engine, proj: p}
	_, tel, err := corpusFileKind.Map(ctx, ex, params, len(p.Files), report.commit(p))
	if err != nil {
		return nil, tel, err
	}
	return report, tel, nil
}

// commit appends one file's report, in corpus file order.
func (r *CorpusReport) commit(p *corpus.Project) func(sched.Task, *AnalysisReport) {
	return func(t sched.Task, ar *AnalysisReport) {
		r.Files = append(r.Files, FileAnalysis{Path: p.Files[t.Index].Path, Report: ar})
	}
}

// analyzeFile is the per-file unit of both AnalyzeAll and the corpusfile
// kind: the file as its own single-file project.
func analyzeFile(ctx context.Context, f corpus.File, cfg AnalyzeConfig) (*AnalysisReport, error) {
	cfg.Jobs = 1 // the fan-out is per file; fixes inside one file run inline
	r, err := Analyze(ctx, Project{f.Path: f.Source}, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", f.Path, err)
	}
	return r, nil
}

// corpusParams names a generated corpus and the engine that analyzes it.
// proj is the corpus already generated in this process; being unexported,
// it never crosses to a worker, whose setup regenerates it.
type corpusParams struct {
	Classifier string
	Seed       uint64
	Engine     interp.Engine
	proj       *corpus.Project
}

// corpusFileKind analyzes one file of a generated corpus. Its result is the
// file's whole AnalysisReport; fixes do not cross to the caller (their
// closures are tagged out of the JSON), nothing that renders needs them.
var corpusFileKind = sched.NewSetupKind("corpusfile",
	func(p corpusParams) (corpusParams, error) {
		var err error
		if p.proj == nil {
			p.proj, err = corpus.Generate(p.Classifier, p.Seed)
		}
		return p, err
	},
	func(ctx context.Context, t sched.Task, p corpusParams) (*AnalysisReport, error) {
		if t.Index < 0 || t.Index >= len(p.proj.Files) {
			return nil, fmt.Errorf("core: corpus file %d out of range", t.Index)
		}
		return analyzeFile(ctx, p.proj.Files[t.Index], AnalyzeConfig{Engine: p.Engine})
	})

// CorpusView renders the corpus-wide summary: totals, the per-rule breakdown
// in descending-count order, and the most-flagged files. The rendering is a
// pure function of the report, so it byte-diffs clean across -jobs values.
func CorpusView(r *CorpusReport) string {
	var sb strings.Builder
	flagged, diags, fixable := r.Totals()
	fmt.Fprintf(&sb, "corpus %s: %d files analyzed, %d flagged, %d diagnostics (%d fixable)\n",
		r.Root, len(r.Files), flagged, diags, fixable)

	type ruleCount struct {
		rule passes.Rule
		n    int
	}
	var rules []ruleCount
	for rule, n := range r.RuleCounts() {
		rules = append(rules, ruleCount{rule, n})
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].n != rules[j].n {
			return rules[i].n > rules[j].n
		}
		return rules[i].rule < rules[j].rule
	})
	for _, rc := range rules {
		fmt.Fprintf(&sb, "  %6d  [%s] %s\n", rc.n, rc.rule.Component(), rc.rule.Text())
	}

	type fileCount struct {
		path string
		n    int
	}
	var files []fileCount
	for _, fa := range r.Files {
		if n := len(fa.Report.Diags); n > 0 {
			files = append(files, fileCount{fa.Path, n})
		}
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].n > files[j].n })
	if len(files) > 0 {
		sb.WriteString("hottest files:\n")
		top := files
		if len(top) > 10 {
			top = top[:10]
		}
		for _, fc := range top {
			fmt.Fprintf(&sb, "  %6d  %s\n", fc.n, fc.path)
		}
	}
	return sb.String()
}
