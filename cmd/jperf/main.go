// Command jperf is the reproduction's analog of the Linux perf tool the
// paper's §VIII uses ("we first run each classifier 10 times to measure
// Package energy, CPU energy, and execution time using perf Linux tool"):
// it runs a mini-Java program repeatedly, reads the RAPL counters around
// each run, applies the paper's Tukey outlier-replacement protocol, and
// prints a perf-stat-style report.
//
// Usage:
//
//	jperf [-main Class] [-r runs] [-jobs N] [-tukey] [-engine vm|ast]
//	      [-cpuprofile file] [-memprofile file] <file.java>...
//	jperf disasm [-warm] [-main Class] <file.java>...
//
// -r is the protocol's run count; Tukey's quartiles need at least 3.
//
// -jobs N shards the repeated measurement runs across the deterministic
// in-process pool. Every run builds its own meter and interpreter and runs
// are replayed into the Tukey protocol in index order, so the printed report
// is bit-identical at any -jobs value; executor telemetry goes to stderr.
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
	"time"

	"jepo/internal/cliconfig"
	"jepo/internal/energy"
	cache "jepo/internal/engine"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/rapl"
	"jepo/internal/sched"
	"jepo/internal/stats"
)

func main() {
	// Ctrl-C / SIGTERM cancels the root context: the measurement pool drains
	// instead of being abandoned mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(os.Args) > 1 && os.Args[1] == "disasm" {
		if err := runDisasmCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "jperf disasm:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("jperf", flag.ExitOnError)
	mainClass := fs.String("main", "", "class whose main method to run")
	runs := fs.Int("r", 10, "repeat count (perf -r), as in the paper")
	tukey := fs.Bool("tukey", true, "replace Tukey outliers with fresh runs")
	prof := registerProfileFlags(fs)
	shared := cliconfig.Register(fs, cliconfig.FeatEngine|cliconfig.FeatJobs)
	fs.Parse(os.Args[1:])
	if err := prof.start(); err != nil {
		fmt.Fprintln(os.Stderr, "jperf:", err)
		os.Exit(1)
	}
	defer prof.stop()
	engine, err := shared.Engine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jperf:", err)
		os.Exit(1)
	}
	if err := run(ctx, *mainClass, *runs, *tukey, engine, shared.Jobs(), fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "jperf:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	// Cache statistics go to stderr after the report; stdout stays
	// determinism-pinned.
	fmt.Fprintln(os.Stderr, cache.Default().Stats())
}

// runDisasmCmd prints the compiled bytecode of every method in the given
// files; methods without a lowering are listed with a tree-walker marker.
// With -warm it first executes the program's main on a fresh interpreter and
// prints that instance's quickened code copies — the stream the VM actually
// dispatches once the site cache is filled.
func runDisasmCmd(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	warm := fs.Bool("warm", false, "run main first and print the instance's quickened code")
	mainClass := fs.String("main", "", "class whose main method warms the code (with -warm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no input files")
	}
	files, err := parseArgs(fs.Args())
	if err != nil {
		return err
	}
	prog, err := interp.Load(files...)
	if err != nil {
		return err
	}
	if !*warm {
		fmt.Print(prog.Disasm())
		return nil
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(2_000_000_000))
	if err := in.RunMain(*mainClass); err != nil {
		return err
	}
	fmt.Print(in.DisasmWarm())
	return nil
}

// measurement is one run's counters.
type measurement struct {
	Pkg, Core, DRAM energy.Joules
	Elapsed         time.Duration
	Cycles          float64
}

// measureRuns performs n measurement runs of prog's main, jobs at a time.
// Runs are identical by construction — the simulator is deterministic — so
// the task index only names the repetition.
func measureRuns(ctx context.Context, prog *interp.Program, mainClass string, engine interp.Engine, n, jobs int) ([]measurement, sched.Telemetry, error) {
	return sched.Map(ctx, sched.Config{Jobs: jobs}, make([]struct{}, n), func(sched.Task, struct{}) (measurement, error) {
		return runOnce(ctx, prog, mainClass, engine)
	})
}

func run(ctx context.Context, mainClass string, runs int, tukey bool, engine interp.Engine, jobs int, args []string) error {
	// Reject a run count the protocol cannot use before any source is read,
	// not after the measurements.
	if runs < 3 {
		return fmt.Errorf("-r %d: the Tukey protocol needs at least 3 runs", runs)
	}
	if len(args) == 0 {
		return fmt.Errorf("no input files")
	}
	srcs, err := collectSources(args)
	if err != nil {
		return err
	}
	prog, err := cache.Default().Program(srcs, false)
	if err != nil {
		return err
	}

	// The protocol's initial runs shard across the executor — each run has
	// its own meter and interpreter, so they are independent — and replay
	// into the protocol in index order. Tukey replacement rounds, if any,
	// fall back to live sequential runs.
	pre, tel, err := measureRuns(ctx, prog, mainClass, engine, runs, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, tel)

	var all []measurement
	measure := func() float64 {
		if len(all) < len(pre) {
			m := pre[len(all)]
			all = append(all, m)
			return float64(m.Pkg)
		}
		m, err2 := runOnce(ctx, prog, mainClass, engine)
		if err2 != nil && err == nil {
			err = err2
		}
		all = append(all, m)
		return float64(m.Pkg)
	}

	protocol := stats.Protocol{Runs: runs, MaxRounds: 10}
	if !tukey {
		protocol.MaxRounds = 0
	}
	meanPkg, samples, perr := protocol.Measure(measure)
	if perr != nil {
		return perr
	}
	if err != nil {
		return err
	}

	var cores, drams, times, cycles []float64
	for _, m := range all[len(all)-len(samples):] {
		cores = append(cores, float64(m.Core))
		drams = append(drams, float64(m.DRAM))
		times = append(times, float64(m.Elapsed))
		cycles = append(cycles, m.Cycles)
	}
	meanTime := time.Duration(stats.Mean(times))

	fmt.Printf(" Performance counter stats for %q (%d runs):\n\n", strings.Join(args, " "), len(samples))
	printJ := func(label string, j float64) {
		fmt.Printf(" %18.6f Joules %-24s\n", j, label)
	}
	printJ("power/energy-pkg/", meanPkg)
	printJ("power/energy-cores/", stats.Mean(cores))
	printJ("power/energy-ram/", stats.Mean(drams))
	fmt.Printf(" %18.0f        %-24s # %.3f GHz\n", stats.Mean(cycles), "cycles",
		stats.Mean(cycles)/meanTime.Seconds()/1e9)
	fmt.Printf("\n %18.9f seconds time elapsed", meanTime.Seconds())
	if sd := stats.StdDev(times); sd > 0 && meanTime > 0 {
		fmt.Printf("  ( +- %.2f%% )", 100*sd/float64(meanTime))
	}
	fmt.Println()
	return nil
}

// runOnce measures one run of prog's main. ctx bounds the interpreter run,
// so an interrupt stops a run in flight instead of waiting out its budget.
func runOnce(ctx context.Context, prog *interp.Program, mainClass string, engine interp.Engine) (measurement, error) {
	meter := energy.NewMeter(energy.DefaultCosts())
	src := rapl.NewSimSource(meter)
	before, err := src.Snapshot()
	if err != nil {
		return measurement{}, err
	}
	t0 := meter.Snapshot()
	in := interp.New(prog, meter, interp.WithMaxOps(2_000_000_000), interp.WithEngine(engine), interp.WithContext(ctx))
	if err := in.RunMain(mainClass); err != nil {
		return measurement{}, err
	}
	after, err := src.Snapshot()
	if err != nil {
		return measurement{}, err
	}
	t1 := meter.Snapshot()
	d := after.Sub(before)
	return measurement{
		Pkg:     d.Package,
		Core:    d.Core,
		DRAM:    d.DRAM,
		Elapsed: t1.Elapsed - t0.Elapsed,
		Cycles:  t1.Cycles - t0.Cycles,
	}, nil
}

// collectSources reads the raw .java sources named by the arguments
// (directories are walked). The artifact store links the raw form into the
// measured program; parseSources turns it into ASTs for disassembly.
func collectSources(args []string) ([]cache.Source, error) {
	var srcs []cache.Source
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		var paths []string
		if info.IsDir() {
			err := filepath.WalkDir(arg, func(path string, d os.DirEntry, err error) error {
				if err == nil && !d.IsDir() && strings.HasSuffix(path, ".java") {
					paths = append(paths, path)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		} else {
			paths = []string{arg}
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			srcs = append(srcs, cache.Source{Path: path, Source: string(b)})
		}
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("no .java files found")
	}
	return srcs, nil
}

// parseSources parses the sources through the artifact store and returns
// copies of the read-only masters: disasm links them.
func parseSources(srcs []cache.Source) ([]*ast.File, error) {
	masters, err := cache.Default().ParseAll(srcs)
	if err != nil {
		return nil, err
	}
	return ast.CloneFiles(masters), nil
}

func parseArgs(args []string) ([]*ast.File, error) {
	srcs, err := collectSources(args)
	if err != nil {
		return nil, err
	}
	return parseSources(srcs)
}
