// Command jperf is the reproduction's analog of the Linux perf tool the
// paper's §VIII uses ("we first run each classifier 10 times to measure
// Package energy, CPU energy, and execution time using perf Linux tool"):
// it runs a mini-Java program repeatedly, reads the RAPL counters around
// each run, applies the paper's Tukey outlier-replacement protocol, and
// prints a perf-stat-style report.
//
// Usage:
//
//	jperf [-main Class] [-r runs] [-jobs N] [-workers N] [-tukey] [-engine vm|ast]
//	      [-cpuprofile file] [-memprofile file] <file.java>...
//	jperf disasm [-warm] [-main Class] <file.java>...
//
// -r is the protocol's run count; Tukey's quartiles need at least 3.
//
// -jobs N shards the repeated measurement runs across the deterministic
// sched pool. Every run builds its own meter and interpreter and runs are
// replayed into the Tukey protocol in index order, so the printed report is
// bit-identical at any -jobs value; pool telemetry goes to stderr.
//
// -workers N dispatches the runs to N re-exec'd worker processes instead,
// under the fault-tolerant dist protocol (heartbeats, deadlines, node
// quarantine); the report stays bit-identical and the dispatch ledger goes
// to stderr.
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
	"jepo/internal/dist"
	"jepo/internal/dist/campaigns"
	"jepo/internal/energy"
	cache "jepo/internal/engine"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/rapl"
	"jepo/internal/sched"
	"jepo/internal/stats"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == dist.WorkerArg {
		if err := campaigns.ServeWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "jperf worker:", err)
			os.Exit(1)
		}
		return
	}
	// Ctrl-C / SIGTERM cancels the root context: the measurement pool drains
	// and campaign nodes shut down instead of being orphaned.
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
	shared := cliconfig.Register(fs, cliconfig.FeatEngine|cliconfig.FeatJobs|cliconfig.FeatDist)
	fs.Parse(os.Args[1:])
	if err := prof.start(); err != nil {
		fmt.Fprintln(os.Stderr, "jperf:", err)
		os.Exit(1)
	}
	defer prof.stop()
	// Install the process-wide artifact engine and export the configuration so
	// re-exec'd -workers processes inherit it. Stats go to stderr after the
	// report; stdout stays determinism-pinned.
	eng := shared.ApplyCache()
	engine, err := shared.Engine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jperf:", err)
		os.Exit(1)
	}
	if err := run(ctx, *mainClass, *runs, *tukey, engine, shared, fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "jperf:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, eng.Stats())
}

// runDisasmCmd prints the compiled bytecode of every method in the given
// files; methods without a lowering are listed with a tree-walker marker.
// With -warm it first executes the program's main on a fresh interpreter and
// prints that instance's quickened code copies — the stream the VM actually
// dispatches once the inline caches are filled.
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

// measurement is one run's counters, plus the degraded-path tally the
// resilient source absorbed while producing them.
type measurement struct {
	pkg, core, dram energy.Joules
	elapsed         time.Duration
	cycles          float64
	health          rapl.Health
}

func run(ctx context.Context, mainClass string, runs int, tukey bool, engine interp.Engine, shared *cliconfig.Set, args []string) error {
	// Reject a run count the protocol cannot use before any source is read
	// or any worker spawned, not after the measurements.
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
	// The cold program is a cached artifact: parse masters and the linked
	// bytecode are shared with any other consumer of the same sources.
	prog, err := cache.Default().Program(engineSources(srcs), false)
	if err != nil {
		return err
	}

	// The protocol's initial runs shard across the sched pool — each run has
	// its own meter and interpreter, so they are independent — and replay
	// into the protocol in index order. With -workers > 1 they dispatch to
	// worker processes instead, under heartbeat/quarantine fault tolerance;
	// either way the runs are deterministic, so the report is bit-identical.
	// Tukey replacement rounds, if any, fall back to live sequential runs.
	var pre []measurement
	if shared.Workers() > 1 {
		dcfg, derr := shared.DistConfig(0, func(msg string) { fmt.Fprintln(os.Stderr, "jperf:", msg) })
		if derr != nil {
			return derr
		}
		wire, rep, derr := campaigns.MeasureRuns(ctx, dcfg, campaigns.MeasureParams{
			Files:  srcs,
			Main:   mainClass,
			Engine: engine.String(),
		}, runs)
		if derr != nil {
			return derr
		}
		fmt.Fprintln(os.Stderr, rep.String())
		fmt.Fprint(os.Stderr, rep.NodeSummary())
		pre = make([]measurement, len(wire))
		for i, m := range wire {
			pre[i] = measurement{
				pkg:     energy.Joules(m.Pkg),
				core:    energy.Joules(m.Core),
				dram:    energy.Joules(m.DRAM),
				elapsed: time.Duration(m.ElapsedNs),
				cycles:  m.Cycles,
				health:  m.Health,
			}
		}
	} else {
		var tel sched.Telemetry
		pre, tel, err = sched.Map(ctx, sched.Config{Jobs: shared.Jobs()}, make([]struct{}, runs),
			func(sched.Task, struct{}) (measurement, error) {
				return runOnce(prog, mainClass, engine)
			})
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, tel)
	}

	var all []measurement
	measure := func() float64 {
		if len(all) < len(pre) {
			m := pre[len(all)]
			all = append(all, m)
			return float64(m.pkg)
		}
		m, err2 := runOnce(prog, mainClass, engine)
		if err2 != nil && err == nil {
			err = err2
		}
		all = append(all, m)
		return float64(m.pkg)
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
	var health rapl.Health
	for _, m := range all {
		health = health.Add(m.health)
	}
	for _, m := range all[len(all)-len(samples):] {
		cores = append(cores, float64(m.core))
		drams = append(drams, float64(m.dram))
		times = append(times, float64(m.elapsed))
		cycles = append(cycles, m.cycles)
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
	fmt.Printf("\n Measurement health: %s\n", health)
	if health.Degraded() {
		fmt.Println(" WARNING: degraded reads occurred; energy figures include estimated values")
	}
	return nil
}

// engineSources adapts the campaign wire form to the artifact engine's.
func engineSources(srcs []campaigns.SourceFile) []cache.Source {
	out := make([]cache.Source, len(srcs))
	for i, s := range srcs {
		out[i] = cache.Source{Path: s.Path, Source: s.Source}
	}
	return out
}

func runOnce(prog *interp.Program, mainClass string, engine interp.Engine) (measurement, error) {
	meter := energy.NewMeter(energy.DefaultCosts())
	// Measure through the resilient wrapper, as on hardware: transient read
	// faults cost a retry, not the run. With no faults it is a passthrough.
	src := rapl.NewResilient(rapl.NewSimSource(meter))
	before, err := src.Snapshot()
	if err != nil {
		return measurement{}, err
	}
	t0 := meter.Snapshot()
	in := interp.New(prog, meter, interp.WithMaxOps(2_000_000_000), interp.WithEngine(engine))
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
		pkg:     d.Package,
		core:    d.Core,
		dram:    d.DRAM,
		elapsed: t1.Elapsed - t0.Elapsed,
		cycles:  t1.Cycles - t0.Cycles,
		health:  src.Health(),
	}, nil
}

// collectSources reads the raw .java sources named by the arguments
// (directories are walked). The raw form is what the dist campaign ships to
// worker processes; parseSources turns it into ASTs for inline execution.
func collectSources(args []string) ([]campaigns.SourceFile, error) {
	var srcs []campaigns.SourceFile
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
			srcs = append(srcs, campaigns.SourceFile{Path: path, Source: string(b)})
		}
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("no .java files found")
	}
	return srcs, nil
}

func parseSources(srcs []campaigns.SourceFile) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(srcs))
	for _, s := range srcs {
		f, err := cache.Default().ParseFile(s.Path, s.Source)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func parseArgs(args []string) ([]*ast.File, error) {
	srcs, err := collectSources(args)
	if err != nil {
		return nil, err
	}
	return parseSources(srcs)
}
