// Shared stdout renderers. The CLI commands and the jepod daemon both print
// through these helpers, so "byte-identical to the CLI" holds by
// construction: there is exactly one function that turns an analysis report
// (or a table) into user-facing bytes, and both surfaces call it. Anything
// timing-dependent — pool telemetry, cache statistics —
// is excluded here and travels as progress events or stderr instead.
package service

import (
	"fmt"
	"sort"
	"strings"

	"jepo/internal/core"
	"jepo/internal/jmetrics"
	"jepo/internal/passes"
	"jepo/internal/tables"
)

// RenderAnalyze is the exact stdout of `jepo analyze`.
func RenderAnalyze(rep *core.AnalysisReport) string {
	var sb strings.Builder
	sb.WriteString(core.AnalysisView(rep))
	fmt.Fprintf(&sb, "\n%d diagnostic(s), %d fix(es) accepted under measurement\n",
		len(rep.Diags), len(rep.Accepted()))
	return sb.String()
}

// RenderOptimize is the exact stdout of `jepo optimize` without -o/-dry: the
// change summary followed by every refactored source, in sorted path order.
// (The CLI historically iterated the project map directly; map iteration
// order is random, so sorted order is the only form both surfaces can agree
// on byte-for-byte.)
func RenderOptimize(refactored core.Project, res *passes.Result) string {
	var sb strings.Builder
	sb.WriteString(RenderOptimizeSummary(res))
	paths := make([]string, 0, len(refactored))
	for path := range refactored {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fmt.Fprintf(&sb, "\n--- %s (refactored) ---\n%s", path, refactored[path])
	}
	return sb.String()
}

// RenderOptimizeSummary is the change-count block alone (`jepo optimize -dry`).
func RenderOptimizeSummary(res *passes.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "applied %d change(s):\n", res.Changes)
	for _, r := range passes.AllRules() {
		if n := res.ByRule[r]; n > 0 {
			fmt.Fprintf(&sb, "  %-30s %d\n", r.Component(), n)
		}
	}
	return sb.String()
}

// RenderProfile is the exact stdout of `jepo profile` up to (not including)
// the "per-execution log written to ..." line, which names a CLI-local path.
func RenderProfile(res *core.ProfileResult) string {
	var sb strings.Builder
	if res.Stdout != "" {
		sb.WriteString(res.Stdout)
		sb.WriteString("---\n")
	}
	sb.WriteString(res.View())
	fmt.Fprintf(&sb, "\ntotal: package=%v core=%v time=%v\n",
		res.Sample.Package, res.Sample.Core, res.Sample.Elapsed)
	fmt.Fprintf(&sb, "measurement health: %s\n", res.Profiler.Health())
	return sb.String()
}

// RenderTable1 is the exact stdout of `jepo table1`.
func RenderTable1(rows []tables.Table1Row) string {
	return tables.RenderTable1(rows)
}

// RenderTable2 is the exact stdout block of `wekaexp -table 2`.
func RenderTable2(rows []jmetrics.Metrics) string {
	return "=== Table II: WEKA classifier metrics ===\n" + jmetrics.Table(rows) + "\n"
}
