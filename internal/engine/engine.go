// Package engine is the content-addressed artifact store under every JEPO
// pipeline. It caches what the traffic repeats and nothing else: parse
// masters, handed out read-only, parse errors, and — through the generic
// Memo — the analysis reports core.Analyze keys on its complete input
// (source bytes plus rule, entry point, budget, engine and cost
// configuration). They live in one bounded, concurrency-safe LRU store with
// hit/miss/eviction counters. An artifact is stored only if some request
// reads it again: jepod re-analyzes unchanged sessions, and the generated
// WEKA corpora share their core library files across classifiers.
//
// Program and Sample build on the parse store — they look the sources up,
// copy them, link (instrumenting if asked) and run — but keep no artifact of
// their own: every caller links and runs afresh.
//
// The determinism invariant is the design constraint: every artifact is a
// pure function of its key, so a cache hit changes the cost of an answer and
// never the answer. A parse master is frozen (ast.File.Freeze) before it is
// stored and is shared by every caller: readers (the passes' detection,
// metrics, printing) read it in place, and the in-place writers
// (interp.Load, instrument.Inject, passes.ApplyFixes) refuse it, so a caller
// that links or rewrites takes an ast.CloneFile copy first. Sample runs the
// entry-point check on the masters themselves, so a program with no runnable
// main is turned away before anything is copied or resolved.
//
// Concurrent misses on one source parse it once: later callers wait for the
// first parse. Concurrent Memo misses on one key may compute the same report
// twice; the first put wins and, with deterministic artifacts, the duplicate
// is bit-identical, so the race is a cost blip and not an observable event.
// Eviction likewise only costs a rebuild.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
)

// DefaultCapacity bounds the artifact store when no size is configured. A
// corpus analysis stores two artifacts per file (its AST master and its
// report), so this holds several corpora without eviction.
const DefaultCapacity = 16384

// Config parameterizes an Engine.
type Config struct {
	// Capacity bounds the artifact store (<= 0 = DefaultCapacity).
	Capacity int
}

// Engine is the artifact cache façade. The zero value is not usable; create
// one with New or use the process-wide Default.
type Engine struct {
	s      *store
	parses atomic.Uint64
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Engine{s: newStore(cfg.Capacity)}
}

var defaultEngine atomic.Pointer[Engine]

// Default returns the process-wide engine, created at the default capacity
// on first use. Worker processes reach their cache through here too, so one
// worker serving many tasks hydrates a single store.
func Default() *Engine {
	if e := defaultEngine.Load(); e != nil {
		return e
	}
	e := New(Config{})
	if defaultEngine.CompareAndSwap(nil, e) {
		return e
	}
	return defaultEngine.Load()
}

// SetDefault installs e as the process-wide engine and returns the previous
// one (which may be nil). Tests use it to point shared-store consumers at an
// instrumented engine and restore the old state after.
func SetDefault(e *Engine) *Engine {
	return defaultEngine.Swap(e)
}

// Stats is a snapshot of the engine's counters. Counters are timing- and
// sharing-dependent, so they belong on stderr, never in a determinism-pinned
// output stream.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Parses    uint64 // real parser.Parse calls (parse-store misses)
	Entries   int
	Capacity  int
}

// HitRate is Hits / (Hits + Misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (s Stats) String() string {
	return fmt.Sprintf("cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d/%d entries, %d parses",
		s.Hits, s.Misses, 100*s.HitRate(), s.Evictions, s.Entries, s.Capacity, s.Parses)
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:      e.s.hits.Load(),
		Misses:    e.s.misses.Load(),
		Evictions: e.s.evictions.Load(),
		Parses:    e.parses.Load(),
		Entries:   e.s.len(),
		Capacity:  e.s.capacity,
	}
}

// Source is one input file: the cache-key unit of every stage.
type Source struct {
	Path   string
	Source string
}

// Sources converts a path→source map into the deterministic sorted slice
// form the stages key on.
func Sources(m map[string]string) []Source {
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]Source, len(paths))
	for i, p := range paths {
		out[i] = Source{Path: p, Source: m[p]}
	}
	return out
}

// ---------------------------------------------------------------------------
// Stage: source → AST.

// ParseFile returns the read-only parse master for one source file.
// Masters are keyed by source bytes alone — the same source at two paths
// parses once — and are frozen before they are stored: the caller may read
// the result from any goroutine but must not write to it (interp.Load,
// instrument.Inject and passes.ApplyFixes panic on it). To link or rewrite,
// take an ast.CloneFile copy. A hit at a different path returns a shallow
// copy of the file header that carries that path and shares the master's
// classes.
//
// A parse error is a function of the source bytes too, so it is stored the
// same way, and a hit at a different path returns a copy carrying that
// path: its text is what a fresh parser.Parse at that path returns.
// Concurrent misses on one source parse it once (see store.do).
func (e *Engine) ParseFile(path, source string) (*ast.File, error) {
	k := NewKey("parse").Str(source).Key()
	v := e.s.do(k, func() any {
		e.parses.Add(1)
		f, err := parser.Parse(path, source)
		if err != nil {
			return err
		}
		f.Freeze()
		return f
	})
	switch v := v.(type) {
	case *ast.File:
		if v.Path != path {
			h := *v
			h.Path = path
			return &h, nil
		}
		return v, nil
	case *parser.Error:
		if v.Path != path {
			pe := *v
			pe.Path = path
			return nil, &pe
		}
		return nil, v
	}
	return nil, v.(error)
}

// ParseAll parses every source, in the given order, each through the parse
// cache. The files are read-only parse masters (see ParseFile).
func (e *Engine) ParseAll(srcs []Source) ([]*ast.File, error) {
	files := make([]*ast.File, len(srcs))
	for i, s := range srcs {
		f, err := e.ParseFile(s.Path, s.Source)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return files, nil
}

// ---------------------------------------------------------------------------
// Linking and measuring: built on the parse store, stored nowhere.

// Program looks the sources up in the parse store, copies them and links
// (and optionally probe-instruments) the copies into a cold *interp.Program,
// which compiles itself on its first run. The program is the caller's own.
func (e *Engine) Program(srcs []Source, instrumented bool) (*interp.Program, error) {
	masters, err := e.ParseAll(srcs)
	if err != nil {
		return nil, err
	}
	return link(masters, instrumented)
}

// link copies read-only masters and links the copies: interp.Load (and
// instrument.Inject) annotate the AST they are given in place.
func link(masters []*ast.File, instrumented bool) (*interp.Program, error) {
	files := ast.CloneFiles(masters)
	if instrumented {
		instrument.Inject(files...)
	}
	return interp.Load(files...)
}

// RunSpec is the complete configuration of one measurement run.
type RunSpec struct {
	// Main selects RunMain whole-program measurement (empty = the unique
	// main class) when CallClass is empty.
	Main string
	// CallClass/CallMethod select static-call measurement instead: statics
	// are initialized, then the call is measured as a snapshot delta — the
	// Table I bench protocol.
	CallClass  string
	CallMethod string
	// MaxOps bounds the run (0 = interp.DefaultMaxOps).
	MaxOps int64
	// Engine selects the execution engine (zero value = bytecode VM).
	Engine interp.Engine
	// Costs overrides the simulator cost table (nil = DefaultCosts).
	Costs *energy.CostTable
}

// Sample links the sources and measures one run under spec. ctx bounds the
// interpreter run: a cancelled run returns ctx's error.
//
// In main mode the entry point is checked on the read-only masters first
// (interp.CheckEntry), so a program that cannot run returns Load's or
// CheckMain's error before it is copied or resolved; a runnable one is then
// copied and linked from the same masters.
func (e *Engine) Sample(ctx context.Context, srcs []Source, spec RunSpec) (energy.Sample, error) {
	masters, err := e.ParseAll(srcs)
	if err != nil {
		return energy.Sample{}, err
	}
	if spec.CallClass == "" {
		if err := interp.CheckEntry(spec.Main, masters...); err != nil {
			return energy.Sample{}, err
		}
	}
	prog, err := link(masters, false)
	if err != nil {
		return energy.Sample{}, err
	}
	return Run(ctx, prog, spec)
}

// Run measures one run of a linked program under spec on a fresh meter and
// interpreter.
func Run(ctx context.Context, prog *interp.Program, spec RunSpec) (energy.Sample, error) {
	if spec.CallClass == "" {
		// A program without a runnable main fails here, before it gets a
		// meter, an interpreter or (see interp.Program) its bytecode.
		if err := prog.CheckMain(spec.Main); err != nil {
			return energy.Sample{}, err
		}
	}
	costs := energy.DefaultCosts()
	if spec.Costs != nil {
		costs = *spec.Costs
	}
	meter := energy.NewMeter(costs)
	maxOps := spec.MaxOps
	if maxOps == 0 {
		maxOps = interp.DefaultMaxOps
	}
	in := interp.New(prog, meter, interp.WithMaxOps(maxOps), interp.WithEngine(spec.Engine), interp.WithContext(ctx))
	if spec.CallClass != "" {
		if err := in.InitStatics(); err != nil {
			return energy.Sample{}, err
		}
		before := meter.Snapshot()
		if _, err := in.CallStatic(spec.CallClass, spec.CallMethod); err != nil {
			return energy.Sample{}, err
		}
		return meter.Snapshot().Sub(before), nil
	}
	if err := in.RunMain(spec.Main); err != nil {
		return energy.Sample{}, err
	}
	return meter.Snapshot(), nil
}

// ---------------------------------------------------------------------------
// Generic memoization for caller-defined stages.

// Memo returns the cached artifact for k, building and caching it on a miss.
// Errors are never cached. The build runs outside the store lock, so racing
// misses may build twice; determinism makes the duplicates identical and the
// first put wins.
func (e *Engine) Memo(k Key, build func() (any, error)) (any, error) {
	if v, ok := e.s.get(k); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	e.s.put(k, v)
	return v, nil
}
