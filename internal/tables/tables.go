package tables

import (
	"context"
	"fmt"
	"strings"
	"time"

	"jepo/internal/airlines"
	"jepo/internal/classify"
	"jepo/internal/classify/bayes"
	"jepo/internal/classify/eval"
	"jepo/internal/classify/lazy"
	"jepo/internal/classify/linear"
	"jepo/internal/classify/svm"
	"jepo/internal/classify/tree"
	"jepo/internal/corpus"
	"jepo/internal/dataset"
	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/jmetrics"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/sched"
	"jepo/internal/stats"
)

// Table2Parallel measures the Table II rows for the corpora generated from
// seed on a jobs-wide pool. Every classifier's corpus generation, parsing
// and metric measurement is fully independent, and rows are committed in
// paper order, so the result is bit-identical at any width.
func Table2Parallel(ctx context.Context, seed uint64, jobs int) ([]jmetrics.Metrics, sched.Telemetry, error) {
	return sched.Map(ctx, sched.Config{Jobs: jobs, Seed: seed}, corpus.Classifiers, func(_ sched.Task, name string) (jmetrics.Metrics, error) {
		return Table2Row(name, seed)
	})
}

// Table2Row measures one classifier's Table II metrics: its own corpus
// generation, parse and measurement, fully independent of the other rows.
func Table2Row(name string, seed uint64) (jmetrics.Metrics, error) {
	p, err := corpus.Generate(name, seed)
	if err != nil {
		return jmetrics.Metrics{}, err
	}
	files, err := parseCorpus(p)
	if err != nil {
		return jmetrics.Metrics{}, err
	}
	srcs := make([]jmetrics.SourceFile, len(files))
	for i := range files {
		srcs[i] = jmetrics.SourceFile{AST: files[i], Source: p.Files[i].Source}
	}
	return jmetrics.NewProject(srcs).Measure(name)
}

// Table3 renders the airlines schema with the realized distinct-value counts
// the paper quotes (18 airlines, 293 airports).
func Table3(instances int, seed uint64) string {
	d := airlines.Generate(instances, seed)
	var sb strings.Builder
	sb.WriteString(airlines.TableIII())
	fmt.Fprintf(&sb, "\nInstances: %d (reduced from %d as in the paper)\n",
		d.NumInstances(), airlines.FullSize)
	fmt.Fprintf(&sb, "Distinct airlines: %d, distinct origin airports: %d\n",
		d.DistinctValues(airlines.ColAirline), d.DistinctValues(airlines.ColFrom))
	counts := d.ClassCounts()
	fmt.Fprintf(&sb, "Delay distribution: on-time %d, delayed %d\n", counts[0], counts[1])
	return sb.String()
}

// Table4Row is one classifier's end-to-end validation result.
type Table4Row struct {
	Classifier  string
	Changes     int
	PackagePct  float64
	CPUPct      float64
	TimePct     float64
	AccuracyPct float64 // accuracy drop (positive = refactoring lost accuracy)
	// Err is set when this classifier's pipeline failed (error, panic or
	// deadline); the measurement columns are then meaningless and the row
	// renders as a failure entry.
	Err string
}

// Table4Config parameterizes the §VIII experiment. It is the params of the
// Table IV kind, so its JSON is the identity of the -checkpoint ledger: a
// rerun resumes only from a ledger written under the same configuration.
// The pool width, the narration and the test hook are not part of it.
type Table4Config struct {
	Seed      uint64
	Instances int            // airlines rows for kernels and cross-validation
	Reps      int            // kernel repetitions per measurement
	Protocol  stats.Protocol // the run/Tukey/replace loop
	CVFolds   int            // stratified folds (paper: 10)
	Slots     int            `json:"-"` // Table4Supervised's row pool width (0 = GOMAXPROCS)
	Engine    interp.Engine  // execution engine (zero value = bytecode VM)
	// Progress, when set, receives per-row narration.
	Progress func(string) `json:"-"`

	// RowTimeout is the per-classifier deadline (0 = none).
	RowTimeout time.Duration
	// RowHook runs inside the row's supervisor before its pipeline; a
	// non-nil error (or panic) fails the row. It is the fault-injection seam
	// the resilience tests use.
	RowHook func(classifier string) error `json:"-"`
}

// kernelMeasurement is one simulated run's package/core/time reading.
type kernelMeasurement struct {
	pkg, core energy.Joules
	elapsed   time.Duration
}

// table4Row is the row pipeline superviseRow runs. It is a variable only so
// the supervision tests can swap in fake rows.
var table4Row = measureTable4Row

// measureTable4Row runs the full validation pipeline for one classifier:
//
//  1. generate its WEKA-shaped corpus and apply every JEPO suggestion,
//     counting changes;
//  2. execute the classifier's hot kernel on airlines data before and after
//     refactoring, under the paper's repeat/Tukey-outlier protocol, and
//     compute package, CPU and execution-time improvements;
//  3. run the real (Go) classifier under stratified k-fold cross-validation
//     in double and single precision to measure the accuracy drop caused by
//     the double→float / long→int changes.
func measureTable4Row(ctx context.Context, name string, in *table4Inputs) (Table4Row, error) {
	cfg := in.cfg
	in.say("=== %s ===", name)
	proj, err := corpus.Generate(name, cfg.Seed)
	if err != nil {
		return Table4Row{}, err
	}
	// The corpus generator emits the same core library files for every
	// classifier, so sibling rows share their read-only parse masters.
	// Refactor copies only the fields and methods its fixes write.
	masters, err := parseCorpus(proj)
	if err != nil {
		return Table4Row{}, err
	}
	files, res := passes.Refactor(masters)
	in.say("%s: applied %d changes", name, res.Changes)

	// Locate the original and refactored kernel ASTs. Every kernel run
	// links its AST, so both run on copies.
	orig, err := kernelAST(proj, name)
	if err != nil {
		return Table4Row{}, err
	}
	orig = ast.CloneFile(orig)
	var refd *ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Path, corpus.KernelClass(name)+".java") {
			refd = ast.CloneFile(f)
		}
	}
	if refd == nil {
		return Table4Row{}, fmt.Errorf("tables: refactored kernel for %s missing", name)
	}

	before, err := measureKernelProtocol(ctx, orig, name, in.feats, in.labels, cfg)
	if err != nil {
		return Table4Row{}, err
	}
	after, err := measureKernelProtocol(ctx, refd, name, in.feats, in.labels, cfg)
	if err != nil {
		return Table4Row{}, err
	}
	in.say("%s: package %v → %v", name, energy.Joules(before.pkg), energy.Joules(after.pkg))

	drop, err := accuracyDrop(ctx, name, in.data, cfg)
	if err != nil {
		return Table4Row{}, err
	}
	return Table4Row{
		Classifier:  name,
		Changes:     res.Changes,
		PackagePct:  stats.Improvement(float64(before.pkg), float64(after.pkg)),
		CPUPct:      stats.Improvement(float64(before.core), float64(after.core)),
		TimePct:     stats.Improvement(float64(before.elapsed), float64(after.elapsed)),
		AccuracyPct: drop,
	}, nil
}

// kernelData converts airlines rows to the normalized matrix the kernels
// consume: every feature scaled into [0,1], class column separated.
func kernelData(d *dataset.Dataset) ([][]float64, []int64) {
	n := d.NumInstances()
	nf := d.NumAttrs() - 1
	mins := make([]float64, nf)
	maxs := make([]float64, nf)
	for j := 0; j < nf; j++ {
		mins[j] = d.X[0][j]
		maxs[j] = d.X[0][j]
		for _, row := range d.X {
			if row[j] < mins[j] {
				mins[j] = row[j]
			}
			if row[j] > maxs[j] {
				maxs[j] = row[j]
			}
		}
	}
	feats := make([][]float64, n)
	labels := make([]int64, n)
	for i, row := range d.X {
		feats[i] = make([]float64, nf)
		for j := 0; j < nf; j++ {
			span := maxs[j] - mins[j]
			if span == 0 {
				span = 1
			}
			feats[i][j] = (row[j] - mins[j]) / span
		}
		labels[i] = int64(d.Class(i))
	}
	return feats, labels
}

// parseCorpus looks every file of a generated corpus up in the process's
// parse cache, in corpus order, and returns the read-only masters (see
// engine.ParseFile); a caller that rewrites or links them copies them
// first. The generator emits identical core-library sources for every
// classifier, so those masters parse once per process.
func parseCorpus(p *corpus.Project) ([]*ast.File, error) {
	files := make([]*ast.File, len(p.Files))
	for i, f := range p.Files {
		parsed, err := engine.Default().ParseFile(f.Path, f.Source)
		if err != nil {
			return nil, err
		}
		files[i] = parsed
	}
	return files, nil
}

// kernelAST returns the read-only parse master of a project's kernel. Its
// callers link the kernel, so they run an ast.CloneFile copy.
func kernelAST(p *corpus.Project, name string) (*ast.File, error) {
	want := corpus.KernelClass(name) + ".java"
	for _, f := range p.Files {
		if strings.HasSuffix(f.Path, want) {
			return engine.Default().ParseFile(f.Path, f.Source)
		}
	}
	return nil, fmt.Errorf("tables: kernel source for %s not found", name)
}

// measureKernelProtocol runs one kernel variant under the repeat/Tukey
// protocol and returns mean measurements.
func measureKernelProtocol(ctx context.Context, kernel *ast.File, name string, feats [][]float64, labels []int64, cfg Table4Config) (kernelMeasurement, error) {
	var firstErr error
	var cores, times []float64
	run := func() float64 {
		m, err := runKernelOnce(ctx, kernel, name, feats, labels, cfg.Reps, energy.DefaultCosts(), cfg.Engine)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		cores = append(cores, float64(m.core))
		times = append(times, float64(m.elapsed))
		return float64(m.pkg)
	}
	meanPkg, _, err := cfg.Protocol.Measure(run)
	if err != nil {
		return kernelMeasurement{}, err
	}
	if firstErr != nil {
		return kernelMeasurement{}, firstErr
	}
	return kernelMeasurement{
		pkg:     energy.Joules(meanPkg),
		core:    energy.Joules(stats.Mean(cores)),
		elapsed: time.Duration(stats.Mean(times)),
	}, nil
}

// runKernelOnce loads and executes one kernel variant under a cost table.
func runKernelOnce(ctx context.Context, kernel *ast.File, name string, feats [][]float64, labels []int64, reps int, costs energy.CostTable, engine interp.Engine) (kernelMeasurement, error) {
	prog, err := interp.Load(kernel)
	if err != nil {
		return kernelMeasurement{}, err
	}
	in := interp.New(prog, energy.NewMeter(costs), interp.WithMaxOps(2_000_000_000), interp.WithEngine(engine), interp.WithContext(ctx))
	if err := in.InitStatics(); err != nil {
		return kernelMeasurement{}, err
	}
	kc := corpus.KernelClass(name)
	if err := in.Bind(kc, "DATA", in.NewDoubleMatrix(feats)); err != nil {
		return kernelMeasurement{}, err
	}
	if err := in.Bind(kc, "LABELS", in.NewIntArray(labels)); err != nil {
		return kernelMeasurement{}, err
	}
	before := in.Meter().Snapshot()
	if _, err := in.CallStatic(kc, "run", interp.IntVal(int64(reps))); err != nil {
		return kernelMeasurement{}, err
	}
	d := in.Meter().Snapshot().Sub(before)
	return kernelMeasurement{pkg: d.Package, core: d.Core, elapsed: d.Elapsed}, nil
}

// Factory builds the Go classifier for a Table IV row.
func Factory(name string, opts classify.Options) (eval.Factory, error) {
	switch name {
	case "J48":
		return func() classify.Classifier { return tree.NewJ48(opts) }, nil
	case "RandomTree":
		return func() classify.Classifier { return tree.NewRandomTree(opts) }, nil
	case "RandomForest":
		return func() classify.Classifier { return tree.NewRandomForest(opts, 15) }, nil
	case "REPTree":
		return func() classify.Classifier { return tree.NewREPTree(opts) }, nil
	case "NaiveBayes":
		return func() classify.Classifier { return bayes.New(opts) }, nil
	case "Logistic":
		return func() classify.Classifier {
			c := linear.NewLogistic(opts)
			c.Epochs = 20
			return c
		}, nil
	case "SMO":
		return func() classify.Classifier {
			c := svm.New(opts)
			c.MaxPasses = 2
			return c
		}, nil
	case "SGD":
		return func() classify.Classifier {
			c := linear.NewSGD(opts)
			c.Epochs = 20
			return c
		}, nil
	case "KStar":
		return func() classify.Classifier { return lazy.NewKStar(opts) }, nil
	case "IBk":
		return func() classify.Classifier { return lazy.NewIBk(opts, 5) }, nil
	}
	return nil, fmt.Errorf("tables: unknown classifier %s", name)
}

// FactorySeeded builds the per-fold factory for eval.CrossValidateSeeded:
// each fold's classifier is constructed from that fold's pre-derived seed,
// with the remaining options (precision mode) taken from base. The name is
// validated once, up front, so the per-fold closure cannot fail.
func FactorySeeded(name string, base classify.Options) (eval.SeededFactory, error) {
	if _, err := Factory(name, base); err != nil {
		return nil, err
	}
	return func(_ int, foldSeed uint64) classify.Classifier {
		opts := base
		opts.Seed = foldSeed
		mk, _ := Factory(name, opts)
		return mk()
	}, nil
}

// accuracyDrop cross-validates a classifier in double and single precision
// and returns the accuracy loss in percentage points. Both precision runs use
// the same pre-derived per-fold seeds, so fold f trains on identical splits
// and identical random streams in both modes — the drop isolates precision,
// not seed noise. The folds train one after another: the rows already run in
// parallel.
func accuracyDrop(ctx context.Context, name string, d *dataset.Dataset, cfg Table4Config) (float64, error) {
	dbl, err := FactorySeeded(name, classify.Options{Seed: cfg.Seed, FP: classify.Double})
	if err != nil {
		return 0, err
	}
	sgl, err := FactorySeeded(name, classify.Options{Seed: cfg.Seed, FP: classify.Single})
	if err != nil {
		return 0, err
	}
	rd, err := eval.CrossValidateSeeded(ctx, d, cfg.CVFolds, cfg.Seed, dbl, 1)
	if err != nil {
		return 0, err
	}
	rs, err := eval.CrossValidateSeeded(ctx, d, cfg.CVFolds, cfg.Seed, sgl, 1)
	if err != nil {
		return 0, err
	}
	return rd.Accuracy() - rs.Accuracy(), nil
}

// RenderTable4 lays the rows out like the paper's Table IV. Failed rows
// render as failure entries instead of numbers.
func RenderTable4(rows []Table4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %12s %12s %12s %12s\n",
		"Classifiers", "Changes", "Package (%)", "CPU (%)", "Time (%)", "AccDrop (%)")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&sb, "%-14s FAILED: %s\n", r.Classifier, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-14s %8d %12.2f %12.2f %12.2f %12.2f\n",
			r.Classifier, r.Changes, r.PackagePct, r.CPUPct, r.TimePct, r.AccuracyPct)
	}
	return sb.String()
}
