// Package campaigns registers the repository's measurement campaigns as
// dist task kinds, so Table I/II/IV rows, corpus analysis and jperf
// measurement runs can shard across worker processes.
//
// Every kind follows the same contract the in-process pools rely on: a task
// result is a pure function of (task index, task seed, campaign params), so
// a row computed in a re-exec'd worker is bit-identical to one computed
// inline. Campaign-level inputs that are expensive to rebuild (a generated
// corpus, a Table IV runner, a linked program) are memoized per
// worker process keyed by the exact params JSON — a worker serves one
// campaign at a time, so a single-entry memo is enough, and the mutex makes
// it safe for the in-process PipeSpawner workers the tests use.
package campaigns

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"jepo/internal/core"
	"jepo/internal/corpus"
	"jepo/internal/dist"
	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/jmetrics"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/rapl"
	"jepo/internal/stats"
	"jepo/internal/tables"
)

var (
	regOnce sync.Once
	reg     *dist.Registry
)

// Registry returns the shared kind registry, built once per process. The
// dispatcher side uses it to resolve inline runs (workers <= 1) and the
// worker side serves it over stdio.
func Registry() *dist.Registry {
	regOnce.Do(func() {
		reg = dist.NewRegistry()
		registerTable1(reg)
		registerTable2(reg)
		registerTable4(reg)
		registerCorpusFile(reg)
		registerMeasure(reg)
	})
	return reg
}

// ServeWorker runs the worker loop over stdin/stdout. CLIs call this when
// re-exec'd with dist.WorkerArg.
func ServeWorker() error {
	return dist.ServeStdio(Registry())
}

// memo is a single-entry cache for per-campaign worker state, keyed by the
// campaign's params JSON. Holding the mutex across build serializes
// concurrent first misses, which is exactly what the shared-registry
// PipeSpawner workers need.
type memo[T any] struct {
	mu  sync.Mutex
	key string
	ok  bool
	val T
}

func (m *memo[T]) get(params any, build func() (T, error)) (T, error) {
	blob, err := json.Marshal(params)
	if err != nil {
		var zero T
		return zero, err
	}
	key := string(blob)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ok && m.key == key {
		return m.val, nil
	}
	v, err := build()
	if err != nil {
		var zero T
		return zero, err
	}
	m.key, m.val, m.ok = key, v, true
	return v, nil
}

// ---------------------------------------------------------------------------
// Table I: one task per component pair.

// Table1Params parameterizes the "table1" kind.
type Table1Params struct {
	Engine string `json:"engine"`
}

func registerTable1(r *dist.Registry) {
	dist.RegisterFunc(r, "table1", func(task dist.Task, p Table1Params) (tables.Table1Row, error) {
		eng, err := interp.ParseEngine(p.Engine)
		if err != nil {
			return tables.Table1Row{}, err
		}
		return tables.Table1Pair(context.Background(), task.Index, eng)
	})
}

// Table1Rows regenerates Table I through the dispatcher.
func Table1Rows(ctx context.Context, cfg dist.Config, engine interp.Engine) ([]tables.Table1Row, dist.Report, error) {
	return dist.Map[Table1Params, tables.Table1Row](ctx, cfg, Registry(), "table1",
		Table1Params{Engine: engine.String()}, tables.Table1Count(), nil)
}

// ---------------------------------------------------------------------------
// Table II: one task per classifier row.

// Table2Params parameterizes the "table2" kind.
type Table2Params struct {
	Seed uint64 `json:"seed"`
}

func registerTable2(r *dist.Registry) {
	dist.RegisterFunc(r, "table2", func(task dist.Task, p Table2Params) (jmetrics.Metrics, error) {
		if task.Index < 0 || task.Index >= len(corpus.Classifiers) {
			return jmetrics.Metrics{}, fmt.Errorf("campaigns: table2 row %d out of range", task.Index)
		}
		return tables.Table2Row(corpus.Classifiers[task.Index], p.Seed)
	})
}

// Table2Rows regenerates Table II through the dispatcher.
func Table2Rows(ctx context.Context, cfg dist.Config, seed uint64) ([]jmetrics.Metrics, dist.Report, error) {
	return dist.Map[Table2Params, jmetrics.Metrics](ctx, cfg, Registry(), "table2",
		Table2Params{Seed: seed}, len(corpus.Classifiers), nil)
}

// ---------------------------------------------------------------------------
// Table IV: one task per supervised classifier row.

// Table4Params is the wire form of tables.Table4Config: only the fields a
// worker process can honor. Callback knobs (Progress, OnTelemetry, RowHook)
// stay on the dispatcher side.
type Table4Params struct {
	Seed              uint64 `json:"seed"`
	Instances         int    `json:"instances"`
	Reps              int    `json:"reps"`
	ProtocolRuns      int    `json:"protocol_runs"`
	ProtocolMaxRounds int    `json:"protocol_max_rounds"`
	CVFolds           int    `json:"cv_folds"`
	CVJobs            int    `json:"cv_jobs"`
	RowTimeoutMs      int64  `json:"row_timeout_ms"`
	Engine            string `json:"engine"`
	CheckpointDir     string `json:"checkpoint_dir,omitempty"`
}

// Table4ParamsFrom extracts the wire-able subset of a Table IV config.
func Table4ParamsFrom(cfg tables.Table4Config) Table4Params {
	return Table4Params{
		Seed:              cfg.Seed,
		Instances:         cfg.Instances,
		Reps:              cfg.Reps,
		ProtocolRuns:      cfg.Protocol.Runs,
		ProtocolMaxRounds: cfg.Protocol.MaxRounds,
		CVFolds:           cfg.CVFolds,
		CVJobs:            cfg.CVJobs,
		RowTimeoutMs:      int64(cfg.RowTimeout / time.Millisecond),
		Engine:            cfg.Engine.String(),
		CheckpointDir:     cfg.CheckpointDir,
	}
}

func (p Table4Params) config() (tables.Table4Config, error) {
	eng, err := interp.ParseEngine(p.Engine)
	if err != nil {
		return tables.Table4Config{}, err
	}
	return tables.Table4Config{
		Seed:          p.Seed,
		Instances:     p.Instances,
		Reps:          p.Reps,
		Protocol:      stats.Protocol{Runs: p.ProtocolRuns, MaxRounds: p.ProtocolMaxRounds},
		CVFolds:       p.CVFolds,
		CVJobs:        p.CVJobs,
		Engine:        eng,
		Quiet:         true,
		RowTimeout:    time.Duration(p.RowTimeoutMs) * time.Millisecond,
		CheckpointDir: p.CheckpointDir,
	}, nil
}

var table4Memo memo[*tables.Table4Runner]

func registerTable4(r *dist.Registry) {
	dist.RegisterFunc(r, "table4row", func(task dist.Task, p Table4Params) (tables.Table4Row, error) {
		if task.Index < 0 || task.Index >= len(corpus.Classifiers) {
			return tables.Table4Row{}, fmt.Errorf("campaigns: table4 row %d out of range", task.Index)
		}
		runner, err := table4Memo.get(p, func() (*tables.Table4Runner, error) {
			cfg, err := p.config()
			if err != nil {
				return nil, err
			}
			return tables.NewTable4Runner(cfg)
		})
		if err != nil {
			return tables.Table4Row{}, err
		}
		return runner.Row(context.Background(), corpus.Classifiers[task.Index]), nil
	})
}

// Table4Rows regenerates the supervised Table IV through the dispatcher.
// Row failures stay inside the rows (Err set), exactly as in
// tables.Table4Supervised; the returned error covers infrastructure only.
func Table4Rows(ctx context.Context, cfg dist.Config, tcfg tables.Table4Config) ([]tables.Table4Row, dist.Report, error) {
	return dist.Map[Table4Params, tables.Table4Row](ctx, cfg, Registry(), "table4row",
		Table4ParamsFrom(tcfg), len(corpus.Classifiers), nil)
}

// ---------------------------------------------------------------------------
// Corpus analysis: one task per generated corpus file.

// CorpusParams parameterizes the "corpusfile" kind.
type CorpusParams struct {
	Classifier string `json:"classifier"`
	Seed       uint64 `json:"seed"`
	Engine     string `json:"engine"`
}

// DiagSummary is one diagnostic's corpus-rendering subset. CorpusView
// aggregates only rule and severity (plus per-file counts), so shipping
// these two fields reproduces the corpus report byte-for-byte without
// serializing fix closures.
type DiagSummary struct {
	Rule     int `json:"rule"`
	Severity int `json:"severity"`
}

// FileSummary is one corpus file's analysis outcome on the wire.
type FileSummary struct {
	Path  string        `json:"path"`
	Diags []DiagSummary `json:"diags"`
}

var corpusMemo memo[*corpus.Project]

func registerCorpusFile(r *dist.Registry) {
	dist.RegisterFunc(r, "corpusfile", func(task dist.Task, p CorpusParams) (FileSummary, error) {
		eng, err := interp.ParseEngine(p.Engine)
		if err != nil {
			return FileSummary{}, err
		}
		proj, err := corpusMemo.get(p, func() (*corpus.Project, error) {
			return corpus.Generate(p.Classifier, p.Seed)
		})
		if err != nil {
			return FileSummary{}, err
		}
		if task.Index < 0 || task.Index >= len(proj.Files) {
			return FileSummary{}, fmt.Errorf("campaigns: corpus file %d out of range", task.Index)
		}
		f := proj.Files[task.Index]
		rep, err := core.Analyze(context.Background(), core.Project{f.Path: f.Source},
			core.AnalyzeConfig{Jobs: 1, Engine: eng})
		if err != nil {
			return FileSummary{}, fmt.Errorf("campaigns: %s: %w", f.Path, err)
		}
		out := FileSummary{Path: f.Path, Diags: make([]DiagSummary, len(rep.Diags))}
		for i, d := range rep.Diags {
			out.Diags[i] = DiagSummary{Rule: int(d.Rule), Severity: int(d.Severity)}
		}
		return out, nil
	})
}

// AnalyzeCorpus runs the corpus-wide pass engine through the dispatcher and
// reconstructs the corpus report from the per-file summaries. The report
// carries exactly the fields core.CorpusView consumes, so the rendered
// summary is byte-identical to an in-process core.AnalyzeAll run.
func AnalyzeCorpus(ctx context.Context, cfg dist.Config, classifier string, seed uint64, engine interp.Engine) (*core.CorpusReport, dist.Report, error) {
	proj, err := corpus.Generate(classifier, seed)
	if err != nil {
		return nil, dist.Report{}, err
	}
	report := &core.CorpusReport{Root: proj.Root, Files: make([]core.FileAnalysis, 0, len(proj.Files))}
	rep, err := dist.Run(ctx, cfg, Registry(), "corpusfile",
		CorpusParams{Classifier: classifier, Seed: seed, Engine: engine.String()}, len(proj.Files),
		func(task dist.Task, raw json.RawMessage) {
			var fs FileSummary
			if jerr := json.Unmarshal(raw, &fs); jerr != nil {
				if err == nil {
					err = fmt.Errorf("campaigns: corpus file %d: %w", task.Index, jerr)
				}
				return
			}
			ar := &core.AnalysisReport{Diags: make([]core.AnalyzedDiagnostic, len(fs.Diags))}
			for i, d := range fs.Diags {
				ar.Diags[i] = core.AnalyzedDiagnostic{Diagnostic: passes.Diagnostic{
					Rule:     passes.Rule(d.Rule),
					Severity: passes.Severity(d.Severity),
				}}
			}
			report.Files = append(report.Files, core.FileAnalysis{Path: fs.Path, Report: ar})
		})
	if err != nil {
		return nil, rep, err
	}
	return report, rep, nil
}

// ---------------------------------------------------------------------------
// jperf measurement runs: one task per repeated run.

// SourceFile is one raw program file on the wire.
type SourceFile struct {
	Path   string `json:"path"`
	Source string `json:"source"`
}

// MeasureParams parameterizes the "measure" kind: the full program source,
// the entry class and the engine. Runs are identical by construction — the
// simulator is deterministic — so the task index only names the repetition.
type MeasureParams struct {
	Files  []SourceFile `json:"files"`
	Main   string       `json:"main,omitempty"`
	Engine string       `json:"engine"`
}

// Measurement is one run's counters on the wire. Joule fields ride as
// float64: encoding/json emits the shortest round-tripping form, so the
// decoded bits equal the measured bits exactly.
type Measurement struct {
	Pkg       float64     `json:"pkg"`
	Core      float64     `json:"core"`
	DRAM      float64     `json:"dram"`
	ElapsedNs int64       `json:"elapsed_ns"`
	Cycles    float64     `json:"cycles"`
	Health    rapl.Health `json:"health"`
}

var measureMemo memo[*interp.Program]

func registerMeasure(r *dist.Registry) {
	dist.RegisterFuncHealth(r, "measure", func(task dist.Task, p MeasureParams) (Measurement, rapl.Health, error) {
		eng, err := interp.ParseEngine(p.Engine)
		if err != nil {
			return Measurement{}, rapl.Health{}, err
		}
		prog, err := measureMemo.get(p, func() (*interp.Program, error) {
			return loadSources(p.Files)
		})
		if err != nil {
			return Measurement{}, rapl.Health{}, err
		}
		m, err := measureOnce(prog, p.Main, eng)
		if err != nil {
			return Measurement{}, rapl.Health{}, err
		}
		return m, m.Health, nil
	})
}

// loadSources parses and links a wire-shipped program through the worker's
// process-wide artifact engine: a worker serving many repetitions (or many
// campaigns over the same sources) compiles the program once. The
// single-entry memo above stays as a fast path and preserves one-compile
// behavior when the cache is disabled.
func loadSources(files []SourceFile) (*interp.Program, error) {
	srcs := make([]engine.Source, len(files))
	for i, f := range files {
		srcs[i] = engine.Source{Path: f.Path, Source: f.Source}
	}
	return engine.Default().Program(srcs, false)
}

// measureOnce mirrors jperf's runOnce: a fresh meter and interpreter, the
// counters read through the resilient RAPL wrapper.
func measureOnce(prog *interp.Program, mainClass string, engine interp.Engine) (Measurement, error) {
	meter := energy.NewMeter(energy.DefaultCosts())
	src := rapl.NewResilient(rapl.NewSimSource(meter))
	before, err := src.Snapshot()
	if err != nil {
		return Measurement{}, err
	}
	t0 := meter.Snapshot()
	in := interp.New(prog, meter, interp.WithMaxOps(2_000_000_000), interp.WithEngine(engine))
	if err := in.RunMain(mainClass); err != nil {
		return Measurement{}, err
	}
	after, err := src.Snapshot()
	if err != nil {
		return Measurement{}, err
	}
	t1 := meter.Snapshot()
	d := after.Sub(before)
	return Measurement{
		Pkg:       float64(d.Package),
		Core:      float64(d.Core),
		DRAM:      float64(d.DRAM),
		ElapsedNs: int64(t1.Elapsed - t0.Elapsed),
		Cycles:    t1.Cycles - t0.Cycles,
		Health:    src.Health(),
	}, nil
}

// MeasureRuns performs n repeated measurement runs through the dispatcher.
func MeasureRuns(ctx context.Context, cfg dist.Config, p MeasureParams, n int) ([]Measurement, dist.Report, error) {
	return dist.Map[MeasureParams, Measurement](ctx, cfg, Registry(), "measure", p, n, nil)
}
