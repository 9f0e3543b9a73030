// Command tracer replays one benchmark workload in-process and reports
// where its time goes, layer by layer. It makes the layer calls the CLI or
// the daemon makes for the same inputs (see mirror), with a span around
// each, and checks that its output equals the program's byte for byte.
// Iterations alternate between untraced and traced; the ratio of their wall
// times is the tracing overhead. The benchmark harness runs it for traced
// runs; it is a command of its own so that untraced runs never depend on
// the layers' internal APIs.
//
//	tracer -workload corpus -seed 3 -seconds 20 -expect cli.out [-chrome trace.json]
//	tracer -workload serve -replay replay.json [-chrome trace.json]
//
// It prints one JSON object: iterations, mismatches and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"jepo/internal/stats"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Iterations int               `json:"iterations"`
	Mismatches int               `json:"mismatches"`
	Metrics    map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "table1, corpus, tables or serve")
	seed := flag.Uint64("seed", 1, "input seed (batch workloads)")
	seconds := flag.Int("seconds", 20, "how long to alternate untraced and traced iterations")
	expect := flag.String("expect", "", "file holding the CLI's stdout for the same seed (batch workloads)")
	replay := flag.String("replay", "", "request plan with the daemon's responses (serve)")
	chrome := flag.String("chrome", "", "write the last traced iteration's spans here, as Chrome trace-event JSON")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var res *result
	var last *tracer
	var err error
	if *workload == "serve" {
		res, last, err = traceServe(ctx, *replay, *seconds)
	} else {
		res, last, err = traceBatch(ctx, *workload, *seed, *seconds, *expect)
	}
	stop()
	if err == nil && *chrome != "" {
		err = last.writeChrome(*chrome)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// traceBatch runs a batch pipeline; one operation is one iteration.
func traceBatch(ctx context.Context, workload string, seed uint64, seconds int, expectPath string) (*result, *tracer, error) {
	pipeline, ok := pipelines[workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	want, err := os.ReadFile(expectPath)
	if err != nil {
		return nil, nil, err
	}
	res := &result{}
	a, err := alternate(seconds, func(tr *tracer) (func() error, error) {
		m := newMirror(ctx, tr)
		return func() error {
			out, err := pipeline(m, seed)
			if err == nil && out != string(want) {
				res.Mismatches++
			}
			return err
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res.Iterations = a.iterations
	res.Metrics = layerMetrics(a.tot, a.use, float64(len(a.walls[1])), stats.Median(a.walls[1]), stats.Median(a.walls[0]))
	return res, a.last, nil
}

// traceServe replays the serve run's requests; one operation is one
// request. Each iteration starts from a fresh store and the sessions'
// set-up analyses, untimed.
func traceServe(ctx context.Context, replayPath string, seconds int) (*result, *tracer, error) {
	p, err := loadReplay(replayPath)
	if err != nil {
		return nil, nil, err
	}
	if len(p.Requests) == 0 {
		return nil, nil, errors.New("replay has no requests")
	}
	res := &result{}
	a, err := alternate(seconds, func(tr *tracer) (func() error, error) {
		s, n, err := newMirror(ctx, tr).setUp(p)
		res.Mismatches += n
		if err != nil {
			return nil, err
		}
		return func() error {
			n, err := s.requests()
			res.Mismatches += n
			return err
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res.Iterations = a.iterations
	ops := float64(len(p.Requests))
	traced := float64(len(a.walls[1])) * ops
	res.Metrics = layerMetrics(a.tot, a.use, traced, stats.Median(a.walls[1])/ops, stats.Median(a.walls[0])/ops)
	return res, a.last, nil
}

// alternation is what alternate measured: wall seconds per iteration
// (untraced, traced) and the traced iterations' totals.
type alternation struct {
	iterations int
	walls      [2][]float64
	tot        totals
	use        runtimeUse
	last       *tracer // the last traced iteration's spans
}

// alternate runs one untimed warm-up iteration, then untraced and traced
// iterations in turn until seconds have passed, at least one of each.
// prepare sets an iteration up, untimed, and returns its timed part.
// Alternating exposes both kinds to the same drift in the host's speed, so
// their ratio is the tracing overhead.
func alternate(seconds int, prepare func(tr *tracer) (func() error, error)) (*alternation, error) {
	a := &alternation{}
	iterate := func(tr *tracer) (float64, runtimeSample, runtimeSample, error) {
		timed, err := prepare(tr)
		if err != nil {
			return 0, runtimeSample{}, runtimeSample{}, err
		}
		// Collect before and after, outside the timing, so each iteration
		// starts from an empty heap as a fresh process would and the
		// runtime's CPU accounting is current.
		runtime.GC()
		r0 := readRuntime()
		start := time.Now()
		err = timed()
		wall := time.Since(start).Seconds()
		runtime.GC()
		a.iterations++
		return wall, r0, readRuntime(), err
	}
	if _, _, _, err := iterate(nil); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = newTracer()
		}
		wall, r0, r1, err := iterate(tr)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			a.walls[0] = append(a.walls[0], wall)
			continue
		}
		a.walls[1] = append(a.walls[1], wall)
		a.tot.add(tr.totals())
		a.use.add(r0, r1)
		a.last = tr
	}
	return a, nil
}

// layerMetrics turns traced totals into the per-layer metrics, per
// operation: one CLI run for batch workloads, one request for serve.
// tracedOp and untracedOp are wall seconds per operation.
func layerMetrics(t totals, use runtimeUse, ops, tracedOp, untracedOp float64) map[string]metric {
	ms := map[string]metric{}
	set := func(name, unit string, v float64) { ms[name] = metric{Value: v, Unit: unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	busy := float64(t.busy())
	for k := kind(0); k < numLayers; k++ {
		set(kindNames[k]+".share", "frac", ratio(float64(t.self[k]), busy))
	}
	set("trace.coverage", "frac", ratio(float64(t.layered()), busy))
	set("trace.op_ms", "ms", tracedOp*1e3)
	set("trace.overhead", "ratio", ratio(tracedOp, untracedOp))
	set("trace.spans", "count", ratio(float64(t.spans), ops))
	per := func(c counter) float64 { return ratio(float64(t.counts[c]), ops) }
	set("parser.files", "count", per(cParseFiles))
	set("parser.mb_per_s", "MB/s", ratio(float64(t.counts[cParseBytes])/1e6, float64(t.self[layerParser])/1e9))
	set("load.programs", "count", per(cPrograms))
	set("exec.ops", "count", per(cVMOps))
	set("exec.mops_per_s", "Mop/s", ratio(float64(t.counts[cVMOps])/1e6, float64(t.self[layerExec])/1e9))
	set("energy.charges", "count", per(cCharges))
	set("energy.cache_accesses", "count", per(cCacheAccesses))
	set("energy.cache_miss_ratio", "ratio", ratio(float64(t.counts[cCacheMisses]), float64(t.counts[cCacheAccesses])))
	set("passes.diagnostics", "count", per(cDiagnostics))
	set("passes.changes", "count", per(cChanges))
	set("corpus.files", "count", per(cCorpusFiles))
	set("classify.folds", "count", per(cFolds))
	set("runtime.gc_cpu_frac", "frac", ratio(use.gc, use.busy))
	set("runtime.alloc_mb", "MB", ratio(use.allocBytes/1e6, ops))
	return ms
}

var runtimeNames = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

type runtimeSample [len(runtimeNames)]float64

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i := range s {
		s[i].Name = runtimeNames[i]
	}
	metrics.Read(s)
	var out runtimeSample
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		}
	}
	return out
}

// runtimeUse is the Go runtime's GC CPU, busy CPU and allocation over the
// traced iterations.
type runtimeUse struct {
	gc, busy, allocBytes float64
}

func (u *runtimeUse) add(a, b runtimeSample) {
	u.gc += b[0] - a[0]
	u.busy += (b[1] - a[1]) - (b[2] - a[2])
	u.allocBytes += b[3] - a[3]
}
