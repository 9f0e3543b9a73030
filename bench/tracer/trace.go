package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// kind is what a span's time is charged to: one of the layers, the
// pipeline's own code between layer calls, or waiting on a worker pool.
type kind uint8

const (
	layerParser   kind = iota // lexer and parser
	layerEngine               // artifact store: key hashing, lookups, AST checkouts
	layerLoad                 // interp.Load (resolve, compile) and probe injection
	layerExec                 // VM dispatch with the energy and cache model
	layerAnalyze              // pass engine: detection
	layerApply                // pass engine: applying fixes
	layerCorpus               // corpus generation
	layerClassify             // classifier cross-validation
	layerJmetrics             // Table II source metrics
	layerDataset              // airlines data and kernel inputs
	layerTables               // a table pipeline called whole (the ablation)
	layerRender               // output rendering
	numLayers

	glue = numLayers     // the pipeline's own code around the layer calls
	wait = numLayers + 1 // blocked on a worker pool: not busy time
)

var kindNames = [...]string{
	"parser", "engine", "load", "exec", "passes.analyze", "passes.apply", "corpus", "classify",
	"jmetrics", "dataset", "tables", "render", "glue", "wait",
}

// counter is a unit of work counted where it happens.
type counter uint8

const (
	cParseFiles counter = iota
	cParseBytes
	cPrograms
	cVMOps
	cCharges
	cCacheAccesses
	cCacheMisses
	cDiagnostics
	cChanges
	cCorpusFiles
	cFolds
	numCounters
)

// span is one timed call. Times are nanoseconds since the tracer's origin;
// child is the part of the span its nested spans on the same lane cover, so
// dur-child is the span's self time.
type span struct {
	kind       kind
	tid        int32
	start, dur int64
	child      int64
}

// tracer collects the spans and counts of one pipeline iteration. Spans
// stay in memory; the last traced iteration's are written out at the end.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts [numCounters]int64
	free   []int32 // released lane ids, lowest first
	next   int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// lane is the span stack of one goroutine. A nil *lane records nothing, so
// the untraced pipeline runs the same code with every probe a nil check.
type lane struct {
	tr     *tracer
	tid    int32
	spans  []span
	stack  []int
	counts [numCounters]int64
}

// lane hands out a lane, reusing the lowest released id so a worker pool's
// spans share a few Chrome trace rows. A nil tracer gives a nil lane.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	if len(t.free) > 0 {
		id, t.free = t.free[0], t.free[1:]
	} else {
		t.next++
	}
	return &lane{tr: t, tid: id}
}

// release hands the lane's spans and counts to the tracer. Every span on
// the lane must have ended.
func (l *lane) release() {
	if l == nil {
		return
	}
	t := l.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, l.spans...)
	for i, n := range l.counts {
		t.counts[i] += n
	}
	t.free = append(t.free, l.tid)
	sort.Slice(t.free, func(i, j int) bool { return t.free[i] < t.free[j] })
}

func (l *lane) begin(k kind) {
	if l == nil {
		return
	}
	l.stack = append(l.stack, len(l.spans))
	l.spans = append(l.spans, span{kind: k, tid: l.tid, start: int64(time.Since(l.tr.origin))})
}

func (l *lane) end() {
	if l == nil {
		return
	}
	top := len(l.stack) - 1
	s := &l.spans[l.stack[top]]
	l.stack = l.stack[:top]
	s.dur = int64(time.Since(l.tr.origin)) - s.start
	if top > 0 {
		l.spans[l.stack[top-1]].child += s.dur
	}
}

func (l *lane) count(c counter, n int) {
	if l != nil {
		l.counts[c] += int64(n)
	}
}

// totals is what a run of traced iterations adds up to.
type totals struct {
	self   [numLayers + 2]int64 // self time per kind, ns
	counts [numCounters]int64
	spans  int
}

func (t *tracer) totals() totals {
	var tot totals
	for _, s := range t.spans {
		tot.self[s.kind] += s.dur - s.child
	}
	tot.counts = t.counts
	tot.spans = len(t.spans)
	return tot
}

func (a *totals) add(b totals) {
	for i := range a.self {
		a.self[i] += b.self[i]
	}
	for i := range a.counts {
		a.counts[i] += b.counts[i]
	}
	a.spans += b.spans
}

// layered is the self time charged to layers; busy adds the pipeline's own
// code. Their ratio is the trace's coverage.
func (a *totals) layered() int64 {
	var n int64
	for k := kind(0); k < numLayers; k++ {
		n += a.self[k]
	}
	return n
}

func (a *totals) busy() int64 { return a.layered() + a.self[glue] }

// writeChrome writes the spans as Chrome trace-event JSON ("X" events, in
// microseconds), which chrome://tracing and Perfetto open offline.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int32   `json:"tid"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{kindNames[s.kind], "X", float64(s.start) / 1e3, float64(s.dur) / 1e3, 1, s.tid}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Ts < events[j].Ts
	})
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
