// Command wekaexp regenerates the paper's evaluation tables end to end:
//
//	wekaexp -table 1            component energy ratios (Table I)
//	wekaexp -table 2            per-classifier WEKA metrics (Table II)
//	wekaexp -table 3            airlines schema & distribution (Table III)
//	wekaexp -table 4            the full §VIII validation (Table IV)
//	wekaexp -table all          everything
//
// Table IV runs the complete pipeline per classifier — corpus generation,
// JEPO refactoring, kernel energy measurement under the repeat/Tukey
// protocol, and double-vs-float cross-validation — and prints the same
// columns the paper reports.
//
// -jobs N shards table rows across the deterministic in-process pool:
// stdout is bit-identical at any value, and the pool's timing telemetry
// goes to stderr.
//
// -checkpoint DIR keeps a ledger of the Table IV rows that finished without
// error; a rerun with the same configuration replays them and re-attempts
// only the rest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"jepo/internal/airlines"
	"jepo/internal/cliconfig"
	"jepo/internal/corpus"
	cache "jepo/internal/engine"
	"jepo/internal/sched"
	"jepo/internal/service"
	"jepo/internal/stats"
	"jepo/internal/tables"
)

func main() {
	// Ctrl-C / SIGTERM cancels the root context: pools drain and the
	// -checkpoint ledger is saved valid so a rerun resumes instead of
	// restarting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wekaexp:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// realMain is the whole command behind an injectable surface: argument list
// in, output streams out, failures as an error. main() only maps the error
// to the exit status, so tests drive every flag path in-process.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wekaexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table to regenerate: 1, 2, 3, 4, ablation or all")
	seed := fs.Uint64("seed", 20200518, "experiment seed")
	instances := fs.Int("instances", 2000, "airlines instances for Table IV")
	reps := fs.Int("reps", 3, "kernel repetitions per Table IV measurement")
	runs := fs.Int("runs", 5, "measurements per configuration (paper: 10)")
	folds := fs.Int("folds", 10, "cross-validation folds for accuracy")
	arff := fs.String("arff", "", "also write the airlines data as ARFF to this path (table 3)")
	dumpDir := fs.String("dump-corpus", "", "write a generated WEKA-shaped corpus under this directory")
	dumpFor := fs.String("classifier", "J48", "classifier whose corpus -dump-corpus writes")
	checkpoint := fs.String("checkpoint", "", "directory holding the ledger of completed Table IV rows; reruns resume from it")
	rowTimeout := fs.Duration("row-timeout", 0, "per-classifier deadline for Table IV (0 = none)")
	shared := cliconfig.Register(fs, cliconfig.FeatEngine|cliconfig.FeatJobs)
	verbose := fs.Bool("v", false, "print progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Artifact cache statistics print to stderr at the end; stdout stays
	// determinism-pinned.
	defer func() { fmt.Fprintln(stderr, cache.Default().Stats()) }()
	engine, err := shared.Engine()
	if err != nil {
		return err
	}

	if *dumpDir != "" {
		if err := dumpCorpus(stdout, *dumpDir, *dumpFor, *seed); err != nil {
			return err
		}
	}

	// A failing table does not abort the run: remaining tables still
	// regenerate, every failure is reported at the end, and only then does
	// the command fail.
	var failures []string
	run := func(name string, f func() error) {
		if *table != "all" && *table != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(stderr, "wekaexp: table %s: %v\n", name, err)
			failures = append(failures, name)
		}
	}

	run("1", func() error {
		rows, tel, err := tables.Table1Jobs(ctx, engine, shared.Jobs())
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, tel)
		fmt.Fprintln(stdout, "=== Table I: Java components & suggestions (measured) ===")
		fmt.Fprint(stdout, tables.RenderTable1(rows))
		fmt.Fprintln(stdout)
		return nil
	})

	run("2", func() error {
		rows, tel, err := tables.Table2Parallel(ctx, *seed, shared.Jobs())
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, tel)
		fmt.Fprint(stdout, service.RenderTable2(rows))
		return nil
	})

	run("3", func() error {
		fmt.Fprintln(stdout, "=== Table III: MOA airlines data ===")
		fmt.Fprint(stdout, tables.Table3(*instances, *seed))
		if *arff != "" {
			f, err := os.Create(*arff)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := airlines.Generate(*instances, *seed).WriteARFF(f); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "ARFF written to %s\n", *arff)
		}
		fmt.Fprintln(stdout)
		return nil
	})

	run("ablation", func() error {
		cfg := tables.DefaultAblationConfig()
		cfg.Seed = *seed
		cfg.Instances = *instances
		cfg.Engine = engine
		rows, err := tables.Ablate(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "=== Ablation: cost-model mechanisms behind the Table IV headline ===")
		fmt.Fprint(stdout, tables.RenderAblation(cfg.Classifier, rows))
		fmt.Fprintln(stdout)
		return nil
	})

	run("4", func() error {
		cfg := tables.Table4Config{
			Seed:       *seed,
			Instances:  *instances,
			Reps:       *reps,
			Protocol:   stats.Protocol{Runs: *runs, MaxRounds: 10},
			CVFolds:    *folds,
			RowTimeout: *rowTimeout,
			Engine:     engine,
		}
		if *verbose {
			cfg.Progress = func(msg string) { fmt.Fprintln(stderr, msg) }
		}
		ex := sched.Config{
			Jobs:       shared.Jobs(),
			Seed:       *seed,
			Checkpoint: *checkpoint,
			// Ledger notes go to stderr.
			OnEvent: func(msg string) { fmt.Fprintln(stderr, "wekaexp:", msg) },
		}
		fmt.Fprintln(stdout, "=== Table IV: WEKA evaluation ===")
		rows, tel, err := tables.Table4Map(ctx, ex, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, tel)
		fmt.Fprint(stdout, tables.RenderTable4(rows))
		fmt.Fprintln(stdout)
		if failed := tables.FailedRows(rows); len(failed) > 0 {
			names := make([]string, len(failed))
			for i, r := range failed {
				names[i] = r.Classifier
			}
			return fmt.Errorf("%d classifier row(s) failed: %s", len(failed), strings.Join(names, ", "))
		}
		return nil
	})

	if len(failures) > 0 {
		return fmt.Errorf("%d table(s) failed: %s", len(failures), strings.Join(failures, ", "))
	}
	return nil
}

// dumpCorpus materializes one classifier's generated corpus as .java files on
// disk, so the jepo and jperf CLIs can be pointed at it directly.
func dumpCorpus(stdout io.Writer, dir, classifier string, seed uint64) error {
	p, err := corpus.Generate(classifier, seed)
	if err != nil {
		return err
	}
	for _, f := range p.Files {
		dst := filepath.Join(dir, filepath.FromSlash(f.Path))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, []byte(f.Source), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "corpus for %s written under %s (%d files)\n", classifier, dir, len(p.Files))
	return nil
}
