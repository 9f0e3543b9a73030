package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"jepo/internal/core"
	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/instrument"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/passes"
)

// vm is the execution engine every workload uses (the CLI default).
const vm = interp.EngineVM

// mirror makes the calls the CLIs and the daemon make, in the same order,
// against a real artifact store, but one layer at a time so each call can
// carry a span. Cache keys are built exactly as the program builds them, so
// the store hits and misses where the program's does. With a nil tracer it
// is the untraced pipeline the tracing overhead is measured against.
type mirror struct {
	ctx   context.Context
	store *engine.Engine
	tr    *tracer
}

// newMirror starts from an empty store at the default capacity: the state
// a CLI process or a fresh daemon starts in.
func newMirror(ctx context.Context, tr *tracer) *mirror {
	return &mirror{ctx: ctx, store: engine.New(engine.Config{}), tr: tr}
}

// memo is one artifact-store stage: hash the key, look it up, build on a
// miss. The build's own layer spans nest inside the engine span.
func (m *mirror) memo(l *lane, key func() engine.Key, build func() (any, error)) (any, error) {
	l.begin(layerEngine)
	defer l.end()
	return m.store.Memo(key(), build)
}

// pool runs fn(i) for every i < n on up to jobs goroutines, each on its own
// lane, while the parent lane waits. With one job the tasks run inline on
// the parent lane, as the program's pool runs them.
func (m *mirror) pool(parent *lane, jobs, n int, fn func(l *lane, i int) error) error {
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(parent, i); err != nil {
				return err
			}
		}
		return nil
	}
	parent.begin(wait)
	defer parent.end()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := m.tr.lane()
			defer l.release()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || m.ctx.Err() != nil {
					return
				}
				l.begin(glue)
				errs[i] = fn(l, i)
				l.end()
			}
		}()
	}
	wg.Wait()
	if err := m.ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parseFile is engine.ParseFile: the master AST is keyed by source bytes
// and stays pristine; a miss parses, a hit checks out a deep clone.
func (m *mirror) parseFile(l *lane, path, src string) (*ast.File, error) {
	var fresh *ast.File
	v, err := m.memo(l, func() engine.Key { return engine.NewKey("parse").Str(src).Key() }, func() (any, error) {
		l.begin(layerParser)
		f, err := parser.Parse(path, src)
		l.end()
		if err != nil {
			return nil, err
		}
		l.count(cParseFiles, 1)
		l.count(cParseBytes, len(src))
		fresh = f
		return ast.CloneFile(f), nil
	})
	if err != nil {
		return nil, err
	}
	if fresh != nil {
		return fresh, nil
	}
	l.begin(layerEngine)
	f := ast.CloneFile(v.(*ast.File))
	l.end()
	f.Path = path
	return f, nil
}

func (m *mirror) parseAll(l *lane, srcs []engine.Source) ([]*ast.File, error) {
	files := make([]*ast.File, len(srcs))
	for i, s := range srcs {
		f, err := m.parseFile(l, s.Path, s.Source)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return files, nil
}

func (m *mirror) load(l *lane, files []*ast.File, instrumented bool) (*interp.Program, error) {
	l.begin(layerLoad)
	defer l.end()
	if instrumented {
		instrument.Inject(files...)
	}
	l.count(cPrograms, 1)
	return interp.Load(files...)
}

// program is engine.Program: the compiled program, keyed by the sources in
// link order and the instrumentation switch.
func (m *mirror) program(l *lane, srcs []engine.Source, instrumented bool) (*interp.Program, error) {
	v, err := m.memo(l, func() engine.Key {
		h := engine.NewKey("program")
		if instrumented {
			h.Int(1)
		} else {
			h.Int(0)
		}
		for _, s := range srcs {
			h.Str(s.Source)
		}
		return h.Key()
	}, func() (any, error) {
		files, err := m.parseAll(l, srcs)
		if err != nil {
			return nil, err
		}
		prog, err := m.load(l, files, instrumented)
		if err != nil {
			return nil, err
		}
		return prog, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*interp.Program), nil
}

// runSpec is engine.RunSpec for the default engine and cost table.
type runSpec struct {
	main, callClass, callMethod string
	maxOps                      int64
}

// sample is engine.Sample: one measured run, keyed by the sources and the
// run configuration.
func (m *mirror) sample(l *lane, srcs []engine.Source, spec runSpec) (energy.Sample, error) {
	v, err := m.memo(l, func() engine.Key {
		h := engine.NewKey("sample")
		h.Str(spec.main).Str(spec.callClass).Str(spec.callMethod)
		h.Int(spec.maxOps).Int(int64(vm))
		for _, s := range srcs {
			h.Str(s.Source)
		}
		return h.Key()
	}, func() (any, error) {
		prog, err := m.program(l, srcs, false)
		if err != nil {
			return nil, err
		}
		s, err := m.run(l, prog, spec)
		if err != nil {
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return energy.Sample{}, err
	}
	return v.(energy.Sample), nil
}

// run executes a program under a fresh meter: a static call measured as a
// snapshot delta when spec names one, the main class otherwise.
func (m *mirror) run(l *lane, prog *interp.Program, spec runSpec) (energy.Sample, error) {
	l.begin(layerExec)
	defer l.end()
	maxOps := spec.maxOps
	if maxOps == 0 {
		maxOps = 500_000_000
	}
	meter := energy.NewMeter(energy.DefaultCosts())
	in := interp.New(prog, meter, interp.WithMaxOps(maxOps), interp.WithEngine(vm), interp.WithContext(m.ctx))
	defer l.countRun(in, meter)
	if spec.callClass != "" {
		if err := in.InitStatics(); err != nil {
			return energy.Sample{}, err
		}
		before := meter.Snapshot()
		if _, err := in.CallStatic(spec.callClass, spec.callMethod); err != nil {
			return energy.Sample{}, err
		}
		return meter.Snapshot().Sub(before), nil
	}
	if err := in.RunMain(spec.main); err != nil {
		return energy.Sample{}, err
	}
	return meter.Snapshot(), nil
}

// countRun counts an interpreter run's VM operations, meter charges and
// modelled cache accesses.
func (l *lane) countRun(in *interp.Interp, meter *energy.Meter) {
	if l == nil {
		return
	}
	l.counts[cVMOps] += in.Ops()
	for op := 0; op < energy.NumOps; op++ {
		l.counts[cCharges] += int64(meter.OpCount(energy.Op(op)))
	}
	hits, misses := meter.CacheStats()
	l.counts[cCacheAccesses] += int64(hits + misses)
	l.counts[cCacheMisses] += int64(misses)
}

// analyze is core.Analyze: detect, then measure each mechanical fix alone.
// The report is itself a stored artifact, keyed by the project's paths and
// bytes and the measurement configuration.
func (m *mirror) analyze(l *lane, p core.Project, cfg core.AnalyzeConfig) (*core.AnalysisReport, error) {
	var srcs []engine.Source
	var rk engine.Key
	v, err := m.memo(l, func() engine.Key {
		srcs = engine.Sources(p)
		h := engine.NewKey("core/analyze")
		h.Str(cfg.MainClass).Int(cfg.MaxOps).Int(int64(cfg.Engine))
		h.Int(int64(len(cfg.Rules)))
		for _, r := range cfg.Rules {
			h.Int(int64(r))
		}
		for _, s := range srcs {
			h.Str(s.Path).Str(s.Source)
		}
		rk = h.Key()
		return rk
	}, func() (any, error) {
		r, err := m.analyzeFresh(l, srcs, cfg, rk)
		if err != nil {
			return nil, err
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.AnalysisReport), nil
}

// fixOutcome is one fix measurement: its energy delta, or why there is none.
type fixOutcome struct {
	delta energy.Joules
	note  string
}

func (m *mirror) analyzeFresh(l *lane, srcs []engine.Source, cfg core.AnalyzeConfig, rk engine.Key) (*core.AnalysisReport, error) {
	files, err := m.parseAll(l, srcs)
	if err != nil {
		return nil, err
	}
	l.begin(layerAnalyze)
	diags := passes.AnalyzeFilesRules(files, cfg.Rules...)
	l.end()
	l.count(cDiagnostics, len(diags))
	report := &core.AnalysisReport{Diags: make([]core.AnalyzedDiagnostic, len(diags))}
	for i, d := range diags {
		v := core.VerdictAdvisory
		if d.Fix != nil {
			v = core.VerdictUnmeasured
		}
		report.Diags[i] = core.AnalyzedDiagnostic{Diagnostic: d, Verdict: v}
	}
	spec := runSpec{main: cfg.MainClass, maxOps: cfg.MaxOps}
	baseline, err := m.sample(l, srcs, spec)
	if err != nil {
		if cerr := m.ctx.Err(); cerr != nil {
			return nil, cerr
		}
		report.ExecNote = err.Error()
		for i := range report.Diags {
			if report.Diags[i].Verdict == core.VerdictUnmeasured {
				report.Diags[i].Note = "program not runnable"
			}
		}
		return report, nil
	}
	report.Executable = true
	report.Baseline = baseline

	var idxs []int
	for i := range report.Diags {
		if report.Diags[i].Verdict == core.VerdictUnmeasured {
			idxs = append(idxs, i)
		}
	}
	outs := make([]fixOutcome, len(idxs))
	err = m.pool(l, max(cfg.Jobs, 1), len(idxs), func(l *lane, j int) error {
		var err error
		outs[j], err = m.measureFix(l, srcs, spec, rk, idxs[j], len(diags), baseline, cfg.Rules)
		return err
	})
	if err != nil {
		return nil, err
	}
	for j, out := range outs {
		ad := &report.Diags[idxs[j]]
		if out.note != "" {
			ad.Note = out.note
			continue
		}
		ad.Delta = out.delta
		if baseline.Package != 0 {
			ad.DeltaPct = 100 * float64(out.delta) / float64(baseline.Package)
		}
		if out.delta < 0 {
			ad.Verdict = core.VerdictRejected
		} else {
			ad.Verdict = core.VerdictAccepted
		}
	}
	return report, nil
}

// measureFix replays fix i alone on a private checkout of the project and
// measures the rewritten program.
func (m *mirror) measureFix(l *lane, srcs []engine.Source, spec runSpec, rk engine.Key, i, want int, baseline energy.Sample, rules []passes.Rule) (fixOutcome, error) {
	v, err := m.memo(l, func() engine.Key {
		return engine.NewKey("core/fix").Str(string(rk[:])).Int(int64(i)).Key()
	}, func() (any, error) {
		files, err := m.parseAll(l, srcs)
		if err != nil {
			return nil, err
		}
		l.begin(layerAnalyze)
		diags := passes.AnalyzeFilesRules(files, rules...)
		l.end()
		if len(diags) != want {
			return nil, fmt.Errorf("core: analysis is not deterministic: %d diagnostics, then %d", want, len(diags))
		}
		l.begin(layerApply)
		res := passes.ApplyFixes(files, []passes.Diagnostic{diags[i]})
		l.end()
		l.count(cChanges, res.Changes)
		if res.Changes == 0 {
			return fixOutcome{note: "fix made no change when replayed alone"}, nil
		}
		prog, err := m.load(l, files, false)
		var after energy.Sample
		if err == nil {
			after, err = m.run(l, prog, spec)
		}
		if err != nil {
			if cerr := m.ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return fixOutcome{note: "rewritten program failed: " + err.Error()}, nil
		}
		return fixOutcome{delta: baseline.Package - after.Package}, nil
	})
	if err != nil {
		return fixOutcome{}, err
	}
	return v.(fixOutcome), nil
}
