// Command jepo is the CLI form of the JEPO Eclipse plugin: it analyzes Java
// sources for the Table I energy suggestions (the optimizer view of Fig. 5
// and the dynamic view of Fig. 2), applies the refactorings automatically,
// profiles programs at method granularity via injected RAPL probes (the
// profiler view of Fig. 4 and result.txt), and computes the Table II source
// metrics.
//
// Usage:
//
//	jepo suggest [-line N] <file.java>...
//	jepo analyze [-main Class] [-jobs N] <file.java>...
//	jepo optimize [-o dir] [-dry] <file.java>...
//	jepo profile [-main Class] [-result result.txt] <file.java>...
//	jepo metrics -root Class <file.java>...
//	jepo corpus [-classifier C] [-jobs N]
//	jepo table1 [-jobs N]
//
// All -jobs flags are pure wall-clock knobs: the work shards across the
// deterministic executor, results commit in input order, and stdout is
// byte-identical at any value. Executor telemetry (timing-dependent) prints
// to stderr only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"jepo/internal/cliconfig"
	"jepo/internal/core"
	"jepo/internal/corpus"
	cache "jepo/internal/engine"
	"jepo/internal/service"
	"jepo/internal/tables"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM cancels the root context: pools drain and the run
	// exits with the cancellation error instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "suggest":
		err = cmdSuggest(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(ctx, os.Args[2:])
	case "optimize":
		err = cmdOptimize(ctx, os.Args[2:])
	case "profile":
		err = cmdProfile(ctx, os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "corpus":
		err = cmdCorpus(ctx, os.Args[2:])
	case "table1":
		err = cmdTable1(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "jepo: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jepo:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `jepo — Java Energy Profiler & Optimizer (library/CLI reproduction)

commands:
  suggest   show Table I energy-efficiency suggestions (optimizer view)
            -line N   order by proximity to line N (dynamic view)
  analyze   unified diagnostic view: every finding with its fix status and,
            when the program has a runnable main, the measured per-fix ΔE
            -main C   main class for the measurement runs
            -engine E execution engine: vm (bytecode, default) or ast
            -jobs N   per-fix measurement workers (default GOMAXPROCS);
                      output is bit-identical at any value
  optimize  apply the suggestions automatically and report the changes
            -o DIR    write refactored sources under DIR (default: print)
            -dry      only report what would change
  profile   run a program with injected RAPL probes, print per-method energy
            -main C   main class (required when several classes have main)
            -result F write the per-execution log (default result.txt)
            -engine E execution engine: vm (bytecode, default) or ast
  metrics   dependency/attribute/method/package/LOC metrics for a class
            -root C   root class (required)
  corpus    fan the analyzer across a generated WEKA-shaped corpus
            -classifier C  whose closure to analyze (default J48)
            -seed N   corpus generation seed
            -jobs N   analysis workers (default GOMAXPROCS)
  table1    measure the component-energy ratios behind the suggestions
            -engine E execution engine: vm (bytecode, default) or ast
            -jobs N   bench-pair workers (default GOMAXPROCS)

analyze, corpus and table1 print the artifact cache's hit/miss statistics
to stderr.
`)
}

// loadProject reads the given .java files (directories are walked).
func loadProject(args []string) (core.Project, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no input files")
	}
	p := core.Project{}
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			b, err := os.ReadFile(arg)
			if err != nil {
				return nil, err
			}
			p[arg] = string(b)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".java") {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			p[path] = string(b)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("no .java files found")
	}
	return p, nil
}

func cmdSuggest(args []string) error {
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	line := fs.Int("line", 0, "order suggestions by proximity to this line (dynamic view)")
	fs.Parse(args)
	p, err := loadProject(fs.Args())
	if err != nil {
		return err
	}
	sugs, err := core.SuggestProject(p)
	if err != nil {
		return err
	}
	if *line > 0 {
		fmt.Print(core.DynamicView(sugs, *line))
		return nil
	}
	fmt.Print(core.OptimizerView(sugs))
	fmt.Printf("\n%d suggestion(s) across %d file(s)\n", len(sugs), len(p))
	return nil
}

func cmdAnalyze(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	mainClass := fs.String("main", "", "class whose main method anchors the measurement runs")
	shared := cliconfig.Register(fs, cliconfig.FeatEngine|cliconfig.FeatJobs)
	fs.Parse(args)
	engine, err := shared.Engine()
	if err != nil {
		return err
	}
	p, err := loadProject(fs.Args())
	if err != nil {
		return err
	}
	rep, err := core.Analyze(ctx, p, core.AnalyzeConfig{MainClass: *mainClass, Engine: engine, Jobs: shared.Jobs()})
	if err != nil {
		return err
	}
	fmt.Print(service.RenderAnalyze(rep))
	fmt.Fprintln(os.Stderr, cache.Default().Stats())
	return nil
}

func cmdOptimize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	out := fs.String("o", "", "directory to write refactored sources into")
	dry := fs.Bool("dry", false, "report changes without writing anything")
	fs.Parse(args)
	p, err := loadProject(fs.Args())
	if err != nil {
		return err
	}
	refactored, res, err := core.Optimize(ctx, p)
	if err != nil {
		return err
	}
	if *dry {
		fmt.Print(service.RenderOptimizeSummary(res))
		return nil
	}
	if *out == "" {
		fmt.Print(service.RenderOptimize(refactored, res))
		return nil
	}
	fmt.Print(service.RenderOptimizeSummary(res))
	for path, src := range refactored {
		dst := filepath.Join(*out, path)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, []byte(src), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d file(s) under %s\n", len(refactored), *out)
	return nil
}

func cmdProfile(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	mainClass := fs.String("main", "", "class whose main method to run")
	resultPath := fs.String("result", "result.txt", "path for the per-execution log")
	shared := cliconfig.Register(fs, cliconfig.FeatEngine)
	fs.Parse(args)
	engine, err := shared.Engine()
	if err != nil {
		return err
	}
	p, err := loadProject(fs.Args())
	if err != nil {
		return err
	}
	res, err := core.Profile(ctx, p, core.ProfileConfig{MainClass: *mainClass, Engine: engine})
	if err != nil {
		return err
	}
	fmt.Print(service.RenderProfile(res))
	if err := res.Profiler.WriteResultTxt(*resultPath); err != nil {
		return err
	}
	fmt.Printf("per-execution log written to %s\n", *resultPath)
	return nil
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	root := fs.String("root", "", "root class for the dependency closure")
	fs.Parse(args)
	if *root == "" {
		return fmt.Errorf("metrics: -root is required")
	}
	p, err := loadProject(fs.Args())
	if err != nil {
		return err
	}
	m, err := core.Metrics(p, *root)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %10s %8s %9s %8s\n",
		"Class", "Dependencies", "Attributes", "Methods", "Packages", "LOC")
	fmt.Printf("%-14s %12d %10d %8d %9d %8d\n",
		m.Root, m.Dependencies, m.Attributes, m.Methods, m.Packages, m.LOC)
	return nil
}

func cmdCorpus(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	classifier := fs.String("classifier", "J48", "classifier whose generated closure to analyze")
	seed := fs.Uint64("seed", 20200518, "corpus generation seed")
	shared := cliconfig.Register(fs, cliconfig.FeatEngine|cliconfig.FeatJobs)
	fs.Parse(args)
	engine, err := shared.Engine()
	if err != nil {
		return err
	}
	p, err := corpus.Generate(*classifier, *seed)
	if err != nil {
		return err
	}
	rep, tel, err := core.AnalyzeAll(ctx, p, core.AnalyzeConfig{Engine: engine, Jobs: shared.Jobs()})
	if err != nil {
		return err
	}
	fmt.Print(core.CorpusView(rep))
	fmt.Fprintln(os.Stderr, tel)
	fmt.Fprintln(os.Stderr, cache.Default().Stats())
	return nil
}

func cmdTable1(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	shared := cliconfig.Register(fs, cliconfig.FeatEngine|cliconfig.FeatJobs)
	fs.Parse(args)
	engine, err := shared.Engine()
	if err != nil {
		return err
	}
	rows, tel, err := tables.Table1Jobs(ctx, engine, shared.Jobs())
	if err != nil {
		return err
	}
	fmt.Print(service.RenderTable1(rows))
	fmt.Fprintln(os.Stderr, tel)
	fmt.Fprintln(os.Stderr, cache.Default().Stats())
	return nil
}
