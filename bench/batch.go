package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jepo/internal/stats"
)

// setupReps is how many times a run sets up before its window; setup_s is
// the median. For batch workloads one set-up is one reference run, whose
// output every later run must reproduce byte for byte.
const setupReps = 3

// batchWorkload is one CLI command users run, timed as a whole process.
type batchWorkload struct {
	name string
	cmd  func(e *env, seed uint64) (bin string, args []string)
	// check is the structural check of the output on top of byte-identity
	// across runs: the sections and rows the command must print.
	check func(out string) error
}

var batchWorkloads = map[string]batchWorkload{
	"table1": {
		name: "table1",
		cmd: func(e *env, _ uint64) (string, []string) {
			return e.jepo, []string{"table1", "-jobs", "1"}
		},
		check: checkTable1,
	},
	"corpus": {
		name: "corpus",
		cmd: func(e *env, seed uint64) (string, []string) {
			return e.jepo, []string{"corpus", "-classifier", "J48", "-seed", strconv.FormatUint(seed, 10), "-jobs", "2"}
		},
		check: checkCorpus,
	},
	"tables": {
		name: "tables",
		cmd: func(e *env, seed uint64) (string, []string) {
			return e.weka, []string{"-table", "all", "-instances", "400", "-reps", "1", "-runs", "3",
				"-folds", "3", "-jobs", "2", "-seed", strconv.FormatUint(seed, 10)}
		},
		check: checkTables,
	},
}

var table1Row = regexp.MustCompile(`^\S.*\s[+-]\d+\.\d%  \S`)

func checkTable1(out string) error {
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "Java Components") {
		return errors.New("table1: no Table I header")
	}
	for _, l := range lines[1:] {
		if !table1Row.MatchString(l) {
			return fmt.Errorf("table1: malformed row %q", l)
		}
	}
	return nil
}

var corpusHead = regexp.MustCompile(`^corpus J48: ([1-9]\d*) files analyzed, \d+ flagged, \d+ diagnostics \(\d+ fixable\)\n`)

func checkCorpus(out string) error {
	if !corpusHead.MatchString(out) {
		return errors.New("corpus: no summary line")
	}
	return nil
}

func checkTables(out string) error {
	for _, h := range []string{"=== Table I:", "=== Table II:", "=== Table III:", "=== Ablation:", "=== Table IV:"} {
		if !strings.Contains(out, h) {
			return fmt.Errorf("tables: section %q missing", h)
		}
	}
	if strings.Contains(out, "FAILED") {
		return errors.New("tables: a Table IV row failed")
	}
	return nil
}

// proc is one finished child process.
type proc struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	stdout []byte
	stderr []byte
}

// runProc runs a command to completion in dir. A non-zero exit is an error
// carrying the tail of its stderr.
func runProc(ctx context.Context, dir, bin string, args ...string) (proc, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Env = childEnv()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	floor, _ := vmHWM("self")
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return proc{}, err
	}
	stop := make(chan struct{})
	sampled := sampleHWM(strconv.Itoa(cmd.Process.Pid), stop)
	err := cmd.Wait()
	wall := time.Since(start)
	close(stop)
	own := <-sampled
	if err != nil {
		return proc{}, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, tail(errb.String()))
	}
	p := proc{wall: wall, stdout: out.Bytes(), stderr: errb.Bytes()}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return p, errors.New("no resource usage for the child")
	}
	p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux charges a child the high-water RSS of the address space it was
	// spawned from, which for Go's exec is the harness's own. Above that
	// floor rusage's figure is the child's; at or below it, the child's own
	// high-water mark sampled from /proc is.
	peak := ru.Maxrss // KiB
	if peak <= floor {
		peak = own
	}
	p.rssMB = float64(peak) / 1024
	return p, nil
}

// vmHWM reads a live process's peak resident set (KiB) from /proc.
func vmHWM(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM")
}

// sampleHWM polls a child's peak resident set every few milliseconds until
// stop closes, then sends the highest value seen.
func sampleHWM(pid string, stop <-chan struct{}) <-chan int64 {
	out := make(chan int64, 1)
	go func() {
		var peak int64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := vmHWM(pid); err == nil && v > peak {
				peak = v
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// childEnv is the environment of every measured process: the harness's own,
// minus the JEPO_* variables that would change how the CLIs run.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "JEPO_") {
			env = append(env, kv)
		}
	}
	return env
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runBatch sets up (reference runs), then runs the command back to back for
// the window: a closed loop with one client.
func runBatch(ctx context.Context, e *env, w batchWorkload, seed uint64, seconds int, traced bool) (*record, error) {
	rec := newRecord(w.name, seed, seconds, traced)
	dir, err := e.scratch(w.name)
	if err != nil {
		return nil, err
	}
	bin, args := w.cmd(e, seed)
	var ref []byte
	var setups []float64
	var refs []proc
	var probe prober
	for i := 0; i < setupReps; i++ {
		probe.take(2)
		p, err := runProc(ctx, dir, bin, args...)
		rec.Attempted++
		if err != nil {
			return nil, fmt.Errorf("set-up run: %w", err)
		}
		if i == 0 {
			ref = p.stdout
			if err := w.check(string(ref)); err != nil {
				rec.wrong("output check: %v", err)
			}
		} else if !bytes.Equal(p.stdout, ref) {
			rec.wrong("set-up run %d printed different output than set-up run 1", i+1)
		}
		setups = append(setups, p.wall.Seconds())
		refs = append(refs, p)
	}
	rec.OutputSHA = sha(ref)
	rec.series("setup_s", setups)
	if traced {
		rec.setTime("setup_s", "s", stats.Median(setups), &probe)
		return rec, traceBatch(ctx, e, rec, dir, ref, refs)
	}

	var walls, cpus, rss []float64
	mismatches := 0
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for first := true; first || time.Now().Before(deadline); first = false {
		probe.every(250 * time.Millisecond)
		p, err := runProc(ctx, dir, bin, args...)
		rec.Attempted++
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			rec.Failed++
			rec.note("%v", err)
			continue
		}
		if !bytes.Equal(p.stdout, ref) {
			if mismatches == 0 {
				rec.wrong("run %d printed different output than the set-up runs", rec.Attempted)
			}
			mismatches++
		}
		walls = append(walls, ms(p.wall))
		cpus = append(cpus, ms(p.cpu))
		rss = append(rss, p.rssMB)
	}
	if len(walls) == 0 {
		return nil, errors.New("no run in the window succeeded")
	}
	probe.take(2)
	rec.setTime("setup_s", "s", stats.Median(setups), &probe)
	rec.setTime("latency_p50_ms", "ms", percentile(walls, 50), &probe)
	rec.setTime("cpu_ms_per_op", "ms", stats.Median(cpus), &probe)
	rec.set("peak_rss_mb", "MB", stats.Median(rss))
	rec.Info["raw_latency_p90_ms"] = percentile(walls, 90)
	rec.Info["raw_latency_p99_ms"] = percentile(walls, 99)
	rec.Info["output_mismatches"] = float64(mismatches)
	rec.probed(&probe)
	rec.series("latency_ms", walls)
	rec.series("cpu_ms", cpus)
	return rec, nil
}

// traceBatch fills the per-layer metrics: engine and sched counters from the
// reference runs' stderr, everything else from the in-process tracer, whose
// output must equal the reference byte for byte.
func traceBatch(ctx context.Context, e *env, rec *record, dir string, ref []byte, refs []proc) error {
	var hits, misses, tasks, util, straggler []float64
	for _, p := range refs {
		t, err := parseTelemetry(string(p.stderr))
		if err != nil {
			rec.note("reference run telemetry: %v", err)
			break
		}
		hits = append(hits, t.hits)
		misses = append(misses, t.misses)
		tasks = append(tasks, t.tasks)
		util = append(util, t.util)
		straggler = append(straggler, t.stragglerFrac)
	}
	setEngine(rec, stats.Median(hits), stats.Median(misses))
	rec.set("sched.tasks", "count", stats.Median(tasks))
	rec.set("sched.util", "frac", stats.Median(util))
	rec.set("sched.straggler_frac", "frac", stats.Median(straggler))
	for _, name := range []string{"service.queue_share", "service.exec_share", "service.transport_share", "loadgen.late_frac"} {
		rec.set(name, "frac", 0)
	}
	rec.set("service.rejected", "count", 0)

	expect := filepath.Join(dir, "expect.out")
	if err := os.WriteFile(expect, ref, 0o644); err != nil {
		return err
	}
	return runTracer(ctx, e, rec, dir, "-workload", rec.Workload, "-seed", strconv.FormatUint(rec.Seed, 10),
		"-seconds", strconv.Itoa(rec.Seconds), "-expect", expect)
}

func setEngine(rec *record, hits, misses float64) {
	rec.set("engine.hits", "count", hits)
	rec.set("engine.misses", "count", misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rec.set("engine.hit_ratio", "ratio", ratio)
}

// runTracer runs the in-process tracer and merges its per-layer metrics.
// The tracer writes the spans of its last traced iteration to trace.json in
// dir (Chrome trace-event format).
func runTracer(ctx context.Context, e *env, rec *record, dir string, args ...string) error {
	args = append(args, "-chrome", filepath.Join(dir, "trace.json"))
	p, err := runProc(ctx, dir, e.tracer, args...)
	if err != nil {
		return err
	}
	out := bytes.TrimSpace(p.stdout)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var res struct {
		Iterations int               `json:"iterations"`
		Mismatches int               `json:"mismatches"`
		Metrics    map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return fmt.Errorf("tracer result: %w", err)
	}
	rec.Attempted += res.Iterations
	if res.Mismatches > 0 {
		rec.wrong("%d traced-pipeline output(s) differ from the untraced output", res.Mismatches)
	}
	for k, v := range res.Metrics {
		rec.Metrics[k] = v
	}
	return nil
}

// telemetry is what a CLI run reports on stderr about its artifact cache
// and worker pools.
type telemetry struct {
	hits, misses  float64
	tasks         float64
	util          float64 // pool utilization, weighted by pool wall time
	stragglerFrac float64 // slowest task's time over pool wall time, summed over pools
}

var (
	cacheLine = regexp.MustCompile(`(?m)^cache: (\d+) hits, (\d+) misses`)
	schedLine = regexp.MustCompile(`(?m)^sched: jobs=\d+ tasks=(\d+) .* wall=(\S+) util=(\d+)% straggler=#\d+\((\S+)\)`)
)

func parseTelemetry(stderr string) (telemetry, error) {
	var t telemetry
	m := cacheLine.FindStringSubmatch(stderr)
	if m == nil {
		return t, errors.New("no cache line on stderr")
	}
	t.hits, _ = strconv.ParseFloat(m[1], 64)
	t.misses, _ = strconv.ParseFloat(m[2], 64)
	var wall, busy, strag float64
	for _, s := range schedLine.FindAllStringSubmatch(stderr, -1) {
		n, _ := strconv.ParseFloat(s[1], 64)
		w, err1 := time.ParseDuration(s[2])
		u, _ := strconv.ParseFloat(s[3], 64)
		st, err2 := time.ParseDuration(s[4])
		if err1 != nil || err2 != nil {
			return t, fmt.Errorf("malformed sched line %q", s[0])
		}
		t.tasks += n
		wall += w.Seconds()
		busy += u / 100 * w.Seconds()
		strag += st.Seconds()
	}
	if wall > 0 {
		t.util = busy / wall
		t.stragglerFrac = strag / wall
	}
	return t, nil
}
