// Corpus-wide analysis: the unified pass engine fanned across every file of
// a generated WEKA-shaped corpus by the executor. This is the reproduction
// of running JEPO over all of WEKA (§VIII ran it over 3,373 classes): each
// file is analyzed in isolation — detect, fix, verify with its own parser,
// interpreter and meter instances — and per-file reports merge in file order,
// so the corpus report is bit-identical at any width.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"jepo/internal/corpus"
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
		func(t sched.Task, ar *AnalysisReport) {
			report.Files = append(report.Files, FileAnalysis{Path: p.Files[t.Index].Path, Report: ar})
		})
	if err != nil {
		return nil, tel, err
	}
	return report, tel, nil
}

// analyzeFile is AnalyzeAll's per-file unit: the file as its own
// single-file project.
func analyzeFile(ctx context.Context, f corpus.File, cfg AnalyzeConfig) (*AnalysisReport, error) {
	cfg.Jobs = 1 // the fan-out is per file; fixes inside one file run inline
	r, err := Analyze(ctx, Project{f.Path: f.Source}, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", f.Path, err)
	}
	return r, nil
}

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
