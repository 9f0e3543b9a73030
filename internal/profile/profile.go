// Package profile implements JEPO's method-granularity energy profiler. It
// receives the enter/exit events of the methods the instrumenter labels
// (both interpreter engines fire them), reads the simulated (or real) RAPL
// counters at each event through the same sampler protocol hardware probes
// use, and records one measurement per method execution — "if one method
// is executed more than once, then the measurements are stored for each
// execution", as the paper specifies.
//
// The profiler keeps recording past an anomaly: a failed counter read
// degrades the record (flagged Estimated, measured against the last good
// reading) instead of losing it, unbalanced enter/exit pairs from unwinding
// exceptions are recovered by dropping the orphaned frames, and Health()
// counts both. Err() still reports the first anomaly, and core.Profile
// fails the run on it.
package profile

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"jepo/internal/energy"
	"jepo/internal/rapl"
)

// Record is one method execution's measurement.
type Record struct {
	Method  string
	Seq     int // execution index for this method, starting at 1
	Elapsed time.Duration
	Package energy.Joules
	Core    energy.Joules
	DRAM    energy.Joules

	// Degraded marks a record whose enter or exit read failed or whose
	// frame survived an exception unwind; the energy is real but
	// lower-confidence.
	Degraded bool
	// Estimated marks a record whose enter or exit read failed outright and
	// was served from the last-known-good snapshot; its delta is a floor.
	Estimated bool
}

// Health summarizes the degraded paths a profiled run took. The zero value
// means every probe balanced and every counter read succeeded.
type Health struct {
	Enters          int // enter probes received
	Exits           int // exit probes received
	ReadErrors      int // counter reads that failed
	UnbalancedExits int // exit probes with no matching enter on the stack
	DroppedFrames   int // enters discarded while recovering from an unwind
	Degraded        int // records flagged Degraded
	Estimated       int // records flagged Estimated
}

// String renders the summary in the form the CLIs print with every report.
func (h Health) String() string {
	return fmt.Sprintf("probes: enters=%d exits=%d read_errors=%d unbalanced_exits=%d dropped_frames=%d degraded=%d estimated=%d",
		h.Enters, h.Exits, h.ReadErrors, h.UnbalancedExits, h.DroppedFrames, h.Degraded, h.Estimated)
}

// Profiler implements interp.ProbeHook over a RAPL source.
type Profiler struct {
	src   rapl.Source
	clock func() time.Duration

	stack    []frame
	records  []Record
	counts   map[string]int
	health   Health
	lastGood rapl.Snapshot
	err      error
}

type frame struct {
	method    string
	at        rapl.Snapshot
	t         time.Duration
	estimated bool
}

// New builds a profiler reading from src. clock supplies modelled elapsed
// time (use the meter's snapshot elapsed time for simulated runs, or a
// wall-clock function for real powercap runs).
func New(src rapl.Source, clock func() time.Duration) *Profiler {
	return &Profiler{src: src, clock: clock, counts: map[string]int{}}
}

// snapshot reads the source. failed means the read failed and the last good
// snapshot stands in.
func (p *Profiler) snapshot(context, method string) (snap rapl.Snapshot, failed bool) {
	snap, err := p.src.Snapshot()
	if err != nil {
		p.health.ReadErrors++
		if p.err == nil {
			p.err = fmt.Errorf("profile: reading counters at %s of %s: %w", context, method, err)
		}
		return p.lastGood, true
	}
	p.lastGood = snap
	return snap, false
}

// Enter implements interp.ProbeHook. A failed counter read no longer loses
// the frame: the last good snapshot stands in and the eventual record is
// flagged Estimated, so the probe stack stays balanced.
func (p *Profiler) Enter(method string) {
	p.health.Enters++
	snap, failed := p.snapshot("enter", method)
	p.stack = append(p.stack, frame{method: method, at: snap, t: p.clock(), estimated: failed})
}

// Exit implements interp.ProbeHook. A mismatched exit — the signature of an
// exception unwinding through instrumented frames whose exit probes never
// ran — is recovered by dropping the orphaned frames down to the matching
// enter; the surviving record is flagged Degraded.
func (p *Profiler) Exit(method string) {
	p.health.Exits++
	i := len(p.stack) - 1
	for i >= 0 && p.stack[i].method != method {
		i--
	}
	if i < 0 {
		p.health.UnbalancedExits++
		if p.err == nil {
			p.err = fmt.Errorf("profile: exit of %s with no matching enter", method)
		}
		return
	}
	dropped := len(p.stack) - 1 - i
	if dropped > 0 {
		p.health.DroppedFrames += dropped
		if p.err == nil {
			p.err = fmt.Errorf("profile: probe mismatch: entered %s, exited %s (%d frame(s) unwound)",
				p.stack[len(p.stack)-1].method, method, dropped)
		}
	}
	top := p.stack[i]
	p.stack = p.stack[:i]

	snap, failed := p.snapshot("exit", method)
	d := snap.Sub(top.at)
	estimated := failed || top.estimated
	rec := Record{
		Method:    method,
		Elapsed:   p.clock() - top.t,
		Package:   d.Package,
		Core:      d.Core,
		DRAM:      d.DRAM,
		Estimated: estimated,
		Degraded:  estimated || dropped > 0,
	}
	p.counts[method]++
	rec.Seq = p.counts[method]
	if rec.Degraded {
		p.health.Degraded++
	}
	if rec.Estimated {
		p.health.Estimated++
	}
	p.records = append(p.records, rec)
}

// Err reports the first probe/counter anomaly encountered, if any. The run
// keeps recording past it; consult Health() for the full degradation tally.
func (p *Profiler) Err() error { return p.err }

// Health returns the degradation summary.
func (p *Profiler) Health() Health { return p.health }

// Records returns every per-execution measurement in completion order.
func (p *Profiler) Records() []Record { return p.records }

// Summary is the aggregated per-method view.
type Summary struct {
	Method     string
	Executions int
	Elapsed    time.Duration // total inclusive time
	Package    energy.Joules // total inclusive package energy
	Core       energy.Joules
	Degraded   int // executions whose measurement was degraded
}

// Summaries aggregates records per method, ordered by descending package
// energy — the energy-hungry methods the paper's profiler surfaces first.
func (p *Profiler) Summaries() []Summary {
	agg := map[string]*Summary{}
	var order []string
	for _, r := range p.records {
		s, ok := agg[r.Method]
		if !ok {
			s = &Summary{Method: r.Method}
			agg[r.Method] = s
			order = append(order, r.Method)
		}
		s.Executions++
		s.Elapsed += r.Elapsed
		s.Package += r.Package
		s.Core += r.Core
		if r.Degraded {
			s.Degraded++
		}
	}
	out := make([]Summary, 0, len(order))
	for _, m := range order {
		out = append(out, *agg[m])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Package > out[j].Package })
	return out
}

// View renders the JEPO profiler view (Fig. 4): method name, execution time,
// energy consumed. Methods with degraded measurements are marked.
func (p *Profiler) View() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-48s %6s %14s %14s %14s\n", "Method", "Execs", "Time", "Package", "Core")
	for _, s := range p.Summaries() {
		mark := ""
		if s.Degraded > 0 {
			mark = fmt.Sprintf("  [%d degraded]", s.Degraded)
		}
		fmt.Fprintf(&sb, "%-48s %6d %14s %14s %14s%s\n",
			s.Method, s.Executions, s.Elapsed.Round(time.Microsecond), s.Package, s.Core, mark)
	}
	return sb.String()
}

// ResultTxt renders the per-execution log the plugin stores as result.txt in
// the project directory.
func (p *Profiler) ResultTxt() string {
	var sb strings.Builder
	sb.WriteString("# JEPO profiler result: method, execution, time_ns, package_uj, core_uj, flags\n")
	for _, r := range p.records {
		flags := "ok"
		switch {
		case r.Estimated:
			flags = "estimated"
		case r.Degraded:
			flags = "degraded"
		}
		fmt.Fprintf(&sb, "%s\t%d\t%d\t%.3f\t%.3f\t%s\n",
			r.Method, r.Seq, r.Elapsed.Nanoseconds(),
			r.Package.Microjoules(), r.Core.Microjoules(), flags)
	}
	return sb.String()
}

// WriteResultTxt writes ResultTxt to path.
func (p *Profiler) WriteResultTxt(path string) error {
	return os.WriteFile(path, []byte(p.ResultTxt()), 0o644)
}
