// Command bench is the repository's benchmark. It builds cmd/jepo,
// cmd/wekaexp and cmd/jepod from the checkout and times them the way users
// run them: CLI processes for the batch workloads, and a jepod daemon driven
// over loopback HTTP for the serve workload. Every run checks the outputs it
// measures. A traced run (-trace 1) reports per-layer metrics from the
// tracer command in ./tracer, which replays the same inputs in-process with
// spans around each layer's calls.
//
// Usage (bench/run.sh builds this command and runs it from the checkout
// root):
//
//	bash bench/run.sh --workload corpus --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh run -seed 3 -o runs.jsonl     every workload in turn
//	bash bench/run.sh compare old.jsonl new.jsonl
//	bash bench/run.sh summary runs.jsonl...
//
// The last line a run prints is one JSON object with the keys correct,
// attempted, failed and metrics. The metrics are the end-to-end metrics
// BENCHMARK.json lists, or its per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var err error
	switch cmd {
	case "run":
		err = cmdRun(ctx, args)
	case "compare":
		err = cmdCompare(args, os.Stdout)
	case "summary":
		err = cmdSummary(args, os.Stdout)
	default:
		err = fmt.Errorf("unknown command %q (want run, compare or summary)", cmd)
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run; empty runs every workload in turn")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 0, "measurement window per workload (0 = BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("o", "", "append each run's full record to this JSON Lines file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	names := sp.workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	for _, name := range names {
		if !knownWorkload(name) {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	traced := *trace == 1
	e, err := newEnv(ctx, root, traced)
	if err != nil {
		return err
	}
	h := hostInfo()
	if !h.Measurable {
		fmt.Fprintln(os.Stderr, "bench: NumCPU < 2: results are not measurable (the workloads use two workers)")
	}
	for _, name := range names {
		var rec *record
		if name == "serve" {
			rec, err = runServe(ctx, e, *seed, *seconds, traced)
		} else {
			rec, err = runBatch(ctx, e, batchWorkloads[name], *seed, *seconds, traced)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rec.Host = h
		if !h.Measurable {
			rec.note("not measurable: fewer than two CPUs")
		}
		writeSummary(os.Stdout, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				return err
			}
		}
		line, err := sp.resultLine(rec)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(line)
	}
	return nil
}

func knownWorkload(name string) bool {
	_, ok := batchWorkloads[name]
	return ok || name == "serve"
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json and go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (a directory with BENCHMARK.json and go.mod) above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// env holds the binaries built from the checkout and the scratch directory
// runs write into.
type env struct {
	root   string
	work   string // .bench_build/work: per-workload scratch directories
	jepo   string
	jepod  string
	weka   string
	tracer string // built only for traced runs
}

func newEnv(ctx context.Context, root string, traced bool) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	e := &env{
		root:   root,
		work:   filepath.Join(build, "work"),
		jepo:   filepath.Join(bin, "jepo"),
		jepod:  filepath.Join(bin, "jepod"),
		weka:   filepath.Join(bin, "wekaexp"),
		tracer: filepath.Join(bin, "benchtrace"),
	}
	// go build leaves an up-to-date binary alone, so repeated runs pay only
	// the staleness check.
	if err := goBuild(ctx, root, bin+string(filepath.Separator), "./cmd/jepo", "./cmd/wekaexp", "./cmd/jepod"); err != nil {
		return nil, err
	}
	if traced {
		if err := goBuild(ctx, filepath.Join(root, "bench"), e.tracer, "./tracer"); err != nil {
			return nil, err
		}
	}
	return e, os.MkdirAll(e.work, 0o755)
}

func goBuild(ctx context.Context, dir, out string, pkgs ...string) error {
	cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", out}, pkgs...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w", strings.Join(pkgs, " "), err)
	}
	return nil
}

// scratch returns an empty scratch directory for one workload.
func (e *env) scratch(name string) (string, error) {
	dir := filepath.Join(e.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// specMetric is one metric BENCHMARK.json defines.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	names := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		names[i] = w.Name
	}
	return names
}

// metricSpec finds a metric by name in either list.
func (sp *spec) metricSpec(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

// resultLine renders the run's result object: exactly the metrics
// BENCHMARK.json lists for this kind of run, each in its declared unit.
func (sp *spec) resultLine(rec *record) (string, error) {
	list := sp.EndToEnd
	if rec.Trace {
		list = sp.PerLayer
	}
	metrics := make(map[string]metric, len(list))
	for _, m := range list {
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		case got.Unit != m.Unit:
			return "", fmt.Errorf("metric %s is measured in %s but BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return "", fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
		metrics[m.Name] = got
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	return string(b), err
}

// writeSummary prints a run's record for people: metrics, informational
// values and notes, one per line.
func writeSummary(w io.Writer, rec *record) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "   %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rec.Info) {
		fmt.Fprintf(w, "   (info) %-21s %14.6g\n", name, rec.Info[name])
	}
	if rec.OutputSHA != "" {
		fmt.Fprintf(w, "   output sha256 %s\n", rec.OutputSHA)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
