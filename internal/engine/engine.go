// Package engine is the content-addressed artifact store under every JEPO
// pipeline. It caches what the traffic repeats and nothing else: pristine
// parse masters, handed out as private clone checkouts, and — through the
// generic Memo — the analysis reports core.Analyze keys on its complete
// input (source bytes plus rule, entry point, budget, engine and cost
// configuration). Both live in one bounded, concurrency-safe LRU store with
// hit/miss/eviction counters. An artifact is stored only if some request
// reads it again: jepod re-analyzes unchanged sessions, and the generated
// WEKA corpora share their core library files across classifiers.
//
// Program and Sample build on the parse store — they check the sources out,
// link (instrumenting if asked) and run — but keep no artifact of their own:
// every caller links and runs afresh.
//
// The determinism invariant is the design constraint: every artifact is a
// pure function of its key, so a cache hit changes the cost of an answer and
// never the answer. AST masters are stored pristine (never interp.Load-ed)
// and every checkout is a deep clone, because both interp.Load and
// passes.ApplyFixes annotate/mutate ASTs in place.
//
// Racing builders may compute the same artifact twice; the first put wins
// and, with deterministic artifacts, the duplicate is bit-identical, so the
// race is a cost blip and not an observable event. Eviction likewise only
// costs a rebuild.
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

// ParseFile returns a private AST for one source file. Masters are keyed by
// source bytes alone — the same source at two paths parses once — and stay
// pristine forever; a hit hands out a deep clone with the requested path, so
// the caller may load, instrument or rewrite it freely.
func (e *Engine) ParseFile(path, source string) (*ast.File, error) {
	k := NewKey("parse").Str(source).Key()
	if v, ok := e.s.get(k); ok {
		f := ast.CloneFile(v.(*ast.File))
		f.Path = path
		return f, nil
	}
	e.parses.Add(1)
	f, err := parser.Parse(path, source)
	if err != nil {
		return nil, err // parse errors are cheap and path-specific: not cached
	}
	e.s.put(k, ast.CloneFile(f))
	return f, nil
}

// ParseAll parses every source, in the given order, each through the parse
// cache.
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

// Program checks the sources out of the parse store and links (and
// optionally probe-instruments) them into a cold *interp.Program, which
// compiles itself on its first run. The program is the caller's own.
func (e *Engine) Program(srcs []Source, instrumented bool) (*interp.Program, error) {
	files, err := e.ParseAll(srcs)
	if err != nil {
		return nil, err
	}
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
func (e *Engine) Sample(ctx context.Context, srcs []Source, spec RunSpec) (energy.Sample, error) {
	prog, err := e.Program(srcs, false)
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
