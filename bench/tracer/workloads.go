package main

import (
	"fmt"
	"strings"
	"time"

	"jepo/internal/airlines"
	"jepo/internal/classify"
	"jepo/internal/classify/eval"
	"jepo/internal/core"
	"jepo/internal/corpus"
	"jepo/internal/dataset"
	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/jmetrics"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/service"
	"jepo/internal/stats"
	"jepo/internal/tables"
)

// pipelines are the batch workloads, each returning the bytes its CLI
// prints to stdout for the same seed.
var pipelines = map[string]func(m *mirror, seed uint64) (string, error){
	"table1": table1Pipeline,
	"corpus": corpusPipeline,
	"tables": tablesPipeline,
}

// table1Pipeline is `jepo table1 -jobs 1`.
func table1Pipeline(m *mirror, _ uint64) (string, error) {
	l := m.tr.lane()
	defer l.release()
	l.begin(glue)
	defer l.end()
	rows, err := m.table1Rows(l, 1)
	if err != nil {
		return "", err
	}
	l.begin(layerRender)
	defer l.end()
	return service.RenderTable1(rows), nil
}

// table1Rows is tables.Table1Jobs: each component pair measures its slow
// and fast variant as engine samples of B.f().
func (m *mirror) table1Rows(l *lane, jobs int) ([]tables.Table1Row, error) {
	benches := tables.InterpBenches() // slow and fast variant of each pair, in paper order
	byName := map[string]passes.Rule{}
	for _, r := range passes.AllRules() {
		byName[r.String()] = r
	}
	rows := make([]tables.Table1Row, len(benches)/2)
	err := m.pool(l, jobs, len(rows), func(l *lane, i int) error {
		slow, fast := benches[2*i], benches[2*i+1]
		name, _, _ := strings.Cut(slow.Name, "/")
		rule, ok := byName[name]
		if !ok {
			return fmt.Errorf("table1: no rule named %q", name)
		}
		spec := runSpec{callClass: "B", callMethod: "f", maxOps: 200_000_000}
		s, err := m.sample(l, []engine.Source{{Path: "bench.java", Source: slow.Src}}, spec)
		if err != nil {
			return err
		}
		f, err := m.sample(l, []engine.Source{{Path: "bench.java", Source: fast.Src}}, spec)
		if err != nil {
			return err
		}
		rows[i] = tables.Table1Row{
			Rule:        rule,
			Component:   rule.Component(),
			Suggestion:  rule.Text(),
			MeasuredPct: 100 * (float64(s.Package)/float64(f.Package) - 1),
		}
		return nil
	})
	return rows, err
}

// corpusPipeline is `jepo corpus -classifier J48 -seed S -jobs 2`:
// core.AnalyzeAll over the generated corpus, one file per task.
func corpusPipeline(m *mirror, seed uint64) (string, error) {
	l := m.tr.lane()
	defer l.release()
	l.begin(glue)
	defer l.end()
	l.begin(layerCorpus)
	p, err := corpus.Generate("J48", seed)
	l.end()
	if err != nil {
		return "", err
	}
	l.count(cCorpusFiles, len(p.Files))
	cfg := core.AnalyzeConfig{Engine: vm, Jobs: 1}
	reports := make([]*core.AnalysisReport, len(p.Files))
	err = m.pool(l, 2, len(p.Files), func(l *lane, i int) error {
		f := p.Files[i]
		r, err := m.analyze(l, core.Project{f.Path: f.Source}, cfg)
		if err != nil {
			return fmt.Errorf("core: %s: %w", f.Path, err)
		}
		reports[i] = r
		return nil
	})
	if err != nil {
		return "", err
	}
	rep := &core.CorpusReport{Root: p.Root, Files: make([]core.FileAnalysis, len(p.Files))}
	for i, f := range p.Files {
		rep.Files[i] = core.FileAnalysis{Path: f.Path, Report: reports[i]}
	}
	l.begin(layerRender)
	defer l.end()
	return core.CorpusView(rep), nil
}

// t4config is the Table IV configuration the tables workload runs:
// wekaexp -instances 400 -reps 1 -runs 3 -folds 3 -jobs 2.
type t4config struct {
	seed                   uint64
	instances, reps, folds int
	runs, maxRounds        int
	jobs                   int
}

// tablesPipeline is `wekaexp -table all -instances 400 -reps 1 -runs 3
// -folds 3 -jobs 2 -seed S`: Tables I, II, III, the ablation and IV, in
// that order, all against one store.
func tablesPipeline(m *mirror, seed uint64) (string, error) {
	c := t4config{seed: seed, instances: 400, reps: 1, folds: 3, runs: 3, maxRounds: 10, jobs: 2}
	l := m.tr.lane()
	defer l.release()
	l.begin(glue)
	defer l.end()
	var sb strings.Builder
	emit := func(parts ...string) {
		l.begin(layerRender)
		for _, p := range parts {
			sb.WriteString(p)
		}
		l.end()
	}

	rows1, err := m.table1Rows(l, c.jobs)
	if err != nil {
		return "", err
	}
	emit("=== Table I: Java components & suggestions (measured) ===\n", tables.RenderTable1(rows1), "\n")

	rows2 := make([]jmetrics.Metrics, len(corpus.Classifiers))
	err = m.pool(l, c.jobs, len(rows2), func(l *lane, i int) error {
		var err error
		rows2[i], err = m.table2Row(l, corpus.Classifiers[i], seed)
		return err
	})
	if err != nil {
		return "", err
	}
	emit(service.RenderTable2(rows2))

	l.begin(layerDataset)
	t3 := tables.Table3(c.instances, seed)
	l.end()
	emit("=== Table III: MOA airlines data ===\n", t3, "\n")

	// The ablation runs whole: its cost-model variants are not exported.
	// Pointing the process-wide store at this pipeline's store keeps its
	// parse checkouts hitting where the CLI's do.
	acfg := tables.DefaultAblationConfig()
	acfg.Seed, acfg.Instances, acfg.Engine = seed, c.instances, vm
	prev := engine.SetDefault(m.store)
	l.begin(layerTables)
	arows, err := tables.Ablate(m.ctx, acfg)
	l.end()
	engine.SetDefault(prev)
	if err != nil {
		return "", err
	}
	emit("=== Ablation: cost-model mechanisms behind the Table IV headline ===\n", tables.RenderAblation(acfg.Classifier, arows), "\n")

	l.begin(layerDataset)
	data := airlines.Generate(c.instances, seed)
	in := newKernelInputs(data)
	l.end()
	rows4 := make([]tables.Table4Row, len(corpus.Classifiers))
	err = m.pool(l, c.jobs, len(rows4), func(l *lane, i int) error {
		var err error
		rows4[i], err = m.table4Row(l, corpus.Classifiers[i], in, c)
		return err
	})
	if err != nil {
		return "", err
	}
	emit("=== Table IV: WEKA evaluation ===\n", tables.RenderTable4(rows4), "\n")
	return sb.String(), nil
}

// table2Row is tables.Table2Row.
func (m *mirror) table2Row(l *lane, name string, seed uint64) (jmetrics.Metrics, error) {
	l.begin(layerCorpus)
	p, err := corpus.Generate(name, seed)
	l.end()
	if err != nil {
		return jmetrics.Metrics{}, err
	}
	l.count(cCorpusFiles, len(p.Files))
	srcs := make([]jmetrics.SourceFile, len(p.Files))
	for i, f := range p.Files {
		a, err := m.parseFile(l, f.Path, f.Source)
		if err != nil {
			return jmetrics.Metrics{}, err
		}
		srcs[i] = jmetrics.SourceFile{AST: a, Source: f.Source}
	}
	l.begin(layerJmetrics)
	defer l.end()
	return jmetrics.NewProject(srcs).Measure(name)
}

// kernelInputs are the airlines rows as the kernels consume them.
type kernelInputs struct {
	data   *dataset.Dataset
	feats  [][]float64
	labels []int64
}

// newKernelInputs scales every feature into [0,1] and separates the class
// column, as the tables package prepares kernel data.
func newKernelInputs(d *dataset.Dataset) *kernelInputs {
	n, nf := d.NumInstances(), d.NumAttrs()-1
	mins := make([]float64, nf)
	maxs := make([]float64, nf)
	for j := 0; j < nf; j++ {
		mins[j], maxs[j] = d.X[0][j], d.X[0][j]
		for _, row := range d.X {
			mins[j] = min(mins[j], row[j])
			maxs[j] = max(maxs[j], row[j])
		}
	}
	in := &kernelInputs{data: d, feats: make([][]float64, n), labels: make([]int64, n)}
	for i, row := range d.X {
		in.feats[i] = make([]float64, nf)
		for j := 0; j < nf; j++ {
			span := maxs[j] - mins[j]
			if span == 0 {
				span = 1
			}
			in.feats[i][j] = (row[j] - mins[j]) / span
		}
		in.labels[i] = int64(d.Class(i))
	}
	return in
}

// table4Row is one classifier's Table IV pipeline: refactor its corpus,
// measure the kernel before and after under the repeat/Tukey protocol, and
// cross-validate in double and single precision. The row is a stored
// artifact, as in the tables package.
func (m *mirror) table4Row(l *lane, name string, in *kernelInputs, c t4config) (tables.Table4Row, error) {
	v, err := m.memo(l, func() engine.Key {
		return engine.NewKey("tables/table4row").Str(name).
			Int(int64(c.seed)).Int(int64(c.instances)).
			Int(int64(c.reps)).Int(int64(vm)).
			Int(int64(c.runs)).Int(int64(c.maxRounds)).
			Int(int64(c.folds)).Key()
	}, func() (any, error) {
		row, err := m.table4RowFresh(l, name, in, c)
		if err != nil {
			return nil, err
		}
		return row, nil
	})
	if err != nil {
		return tables.Table4Row{}, err
	}
	return v.(tables.Table4Row), nil
}

func (m *mirror) table4RowFresh(l *lane, name string, in *kernelInputs, c t4config) (tables.Table4Row, error) {
	l.begin(layerCorpus)
	proj, err := corpus.Generate(name, c.seed)
	l.end()
	if err != nil {
		return tables.Table4Row{}, err
	}
	l.count(cCorpusFiles, len(proj.Files))
	files := make([]*ast.File, len(proj.Files))
	for i, f := range proj.Files {
		if files[i], err = m.parseFile(l, f.Path, f.Source); err != nil {
			return tables.Table4Row{}, err
		}
	}
	l.begin(layerAnalyze)
	diags := passes.AnalyzeFilesRules(files)
	l.end()
	l.begin(layerApply)
	res := passes.ApplyFixes(files, diags)
	l.end()
	l.count(cDiagnostics, len(diags))
	l.count(cChanges, res.Changes)

	kernelFile := corpus.KernelClass(name) + ".java"
	var orig, refd *ast.File
	for _, f := range proj.Files {
		if strings.HasSuffix(f.Path, kernelFile) {
			if orig, err = m.parseFile(l, f.Path, f.Source); err != nil {
				return tables.Table4Row{}, err
			}
			break
		}
	}
	for _, f := range files {
		if strings.HasSuffix(f.Path, kernelFile) {
			refd = f
		}
	}
	if orig == nil || refd == nil {
		return tables.Table4Row{}, fmt.Errorf("tables: kernel for %s missing", name)
	}
	before, err := m.kernelProtocol(l, orig, name, in, c)
	if err != nil {
		return tables.Table4Row{}, err
	}
	after, err := m.kernelProtocol(l, refd, name, in, c)
	if err != nil {
		return tables.Table4Row{}, err
	}
	drop, err := m.accuracyDrop(l, name, in.data, c)
	if err != nil {
		return tables.Table4Row{}, err
	}
	return tables.Table4Row{
		Classifier:  name,
		Changes:     res.Changes,
		PackagePct:  stats.Improvement(float64(before.pkg), float64(after.pkg)),
		CPUPct:      stats.Improvement(float64(before.core), float64(after.core)),
		TimePct:     stats.Improvement(float64(before.elapsed), float64(after.elapsed)),
		AccuracyPct: drop,
	}, nil
}

type kernelMeasurement struct {
	pkg, core energy.Joules
	elapsed   time.Duration
}

// kernelProtocol measures one kernel variant under the repeat/Tukey
// protocol, keyed by the kernel's printed source.
func (m *mirror) kernelProtocol(l *lane, kernel *ast.File, name string, in *kernelInputs, c t4config) (kernelMeasurement, error) {
	v, err := m.memo(l, func() engine.Key {
		return engine.NewKey("tables/kernelproto").
			Str(ast.Print(kernel)).Str(name).
			Int(int64(c.reps)).Int(int64(vm)).
			Int(int64(c.runs)).Int(int64(c.maxRounds)).
			Int(int64(c.seed)).Int(int64(c.instances)).
			Key()
	}, func() (any, error) {
		var firstErr error
		var cores, times []float64
		run := func() float64 {
			km, err := m.runKernel(l, kernel, name, in, c.reps)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			cores = append(cores, float64(km.core))
			times = append(times, float64(km.elapsed))
			return float64(km.pkg)
		}
		meanPkg, _, err := stats.Protocol{Runs: c.runs, MaxRounds: c.maxRounds}.Measure(run)
		if err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return kernelMeasurement{
			pkg:     energy.Joules(meanPkg),
			core:    energy.Joules(stats.Mean(cores)),
			elapsed: time.Duration(stats.Mean(times)),
		}, nil
	})
	if err != nil {
		return kernelMeasurement{}, err
	}
	return v.(kernelMeasurement), nil
}

// runKernel loads a kernel, binds the airlines data and runs it reps times.
func (m *mirror) runKernel(l *lane, kernel *ast.File, name string, in *kernelInputs, reps int) (kernelMeasurement, error) {
	prog, err := m.load(l, []*ast.File{kernel}, false)
	if err != nil {
		return kernelMeasurement{}, err
	}
	l.begin(layerExec)
	defer l.end()
	it := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(2_000_000_000), interp.WithEngine(vm), interp.WithContext(m.ctx))
	defer l.countRun(it, it.Meter())
	if err := it.InitStatics(); err != nil {
		return kernelMeasurement{}, err
	}
	kc := corpus.KernelClass(name)
	if err := it.Bind(kc, "DATA", it.NewDoubleMatrix(in.feats)); err != nil {
		return kernelMeasurement{}, err
	}
	if err := it.Bind(kc, "LABELS", it.NewIntArray(in.labels)); err != nil {
		return kernelMeasurement{}, err
	}
	before := it.Meter().Snapshot()
	if _, err := it.CallStatic(kc, "run", interp.IntVal(int64(reps))); err != nil {
		return kernelMeasurement{}, err
	}
	d := it.Meter().Snapshot().Sub(before)
	return kernelMeasurement{pkg: d.Package, core: d.Core, elapsed: d.Elapsed}, nil
}

// accuracyDrop cross-validates the classifier in double and single
// precision with the same fold seeds; the drop is a stored artifact.
func (m *mirror) accuracyDrop(l *lane, name string, d *dataset.Dataset, c t4config) (float64, error) {
	v, err := m.memo(l, func() engine.Key {
		return engine.NewKey("tables/accuracydrop").Str(name).
			Int(int64(c.seed)).Int(int64(c.instances)).Int(int64(c.folds)).Key()
	}, func() (any, error) {
		l.begin(layerClassify)
		defer l.end()
		dbl, err := tables.FactorySeeded(name, classify.Options{Seed: c.seed, FP: classify.Double})
		if err != nil {
			return nil, err
		}
		sgl, err := tables.FactorySeeded(name, classify.Options{Seed: c.seed, FP: classify.Single})
		if err != nil {
			return nil, err
		}
		rd, err := eval.CrossValidateSeeded(m.ctx, d, c.folds, c.seed, dbl, 1)
		if err != nil {
			return nil, err
		}
		rs, err := eval.CrossValidateSeeded(m.ctx, d, c.folds, c.seed, sgl, 1)
		if err != nil {
			return nil, err
		}
		l.count(cFolds, 2*c.folds)
		return rd.Accuracy() - rs.Accuracy(), nil
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}
