// Package engine is the content-addressed artifact layer under every JEPO
// pipeline: it decomposes source → AST → linked program → measurement
// sample into explicit cacheable stages, each keyed by a content hash of its
// complete input (source bytes plus engine/rule/seed/precision config) and
// stored in a bounded, concurrency-safe LRU store with hit/miss/eviction
// counters.
//
// The determinism invariant is the design constraint: every artifact is a
// pure function of its key, so a cache hit changes the cost of an answer and
// never the answer. Concretely —
//
//   - AST masters are stored pristine (never interp.Load-ed) and every
//     checkout is a deep clone, because both interp.Load and
//     passes.ApplyFixes annotate/mutate ASTs in place;
//   - linked *interp.Program values are shared directly. A program compiles
//     to bytecode on its first run, once, under its own sync.Once; after
//     that nothing writes it: instances patch private code copies and keep
//     static fields in their own tables, so one cached program can back any
//     number of concurrent interpreters, and a program that never runs (no
//     main) is never compiled;
//   - measurement samples are cached only for successful runs, keyed by the
//     program content and the complete run configuration.
//
// Racing builders may compute the same artifact twice; the first put wins
// and, with deterministic artifacts, the duplicate is bit-identical, so the
// race is a cost blip and not an observable event. Eviction likewise only
// costs a rebuild.
package engine

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
)

// DefaultCapacity bounds the artifact store when no size is configured. A
// full corpus analysis produces roughly four artifacts per file (AST master,
// program, sample, report), so this holds several corpora without eviction.
const DefaultCapacity = 16384

// Environment variables propagating the CLI cache flags into re-exec'd dist
// worker processes, which parse no flags of their own.
const (
	EnvCache     = "JEPO_CACHE"
	EnvCacheSize = "JEPO_CACHE_SIZE"
)

// Config parameterizes an Engine.
type Config struct {
	// Capacity bounds the artifact store (<= 0 = DefaultCapacity).
	Capacity int
	// Disabled turns every stage into a pass-through that rebuilds from
	// scratch, reproducing the uncached pipeline exactly. Outputs are
	// byte-identical either way; this exists to prove it and to bound memory
	// at zero.
	Disabled bool
}

// Engine is the artifact cache façade. The zero value is not usable; create
// one with New or use the process-wide Default.
type Engine struct {
	s      *store // nil when disabled
	config Config
	parses atomic.Uint64
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	e := &Engine{config: cfg}
	if !cfg.Disabled {
		e.s = newStore(cfg.Capacity)
	}
	return e
}

var defaultEngine atomic.Pointer[Engine]

// Default returns the process-wide engine, creating it from the environment
// (EnvCache/EnvCacheSize) on first use. Dist worker processes reach their
// cache exclusively through here, so one worker serving many tasks hydrates
// a single store.
func Default() *Engine {
	if e := defaultEngine.Load(); e != nil {
		return e
	}
	e := New(EnvConfig())
	if defaultEngine.CompareAndSwap(nil, e) {
		return e
	}
	return defaultEngine.Load()
}

// Configure replaces the process-wide engine.
func Configure(cfg Config) *Engine {
	e := New(cfg)
	defaultEngine.Store(e)
	return e
}

// SetDefault installs e as the process-wide engine and returns the previous
// one (which may be nil). Tests use it to point shared-store consumers at an
// instrumented engine and restore the old state after.
func SetDefault(e *Engine) *Engine {
	return defaultEngine.Swap(e)
}

// SetProcessConfig is Configure plus environment export: the -cache and
// -cache-size CLI flags call it so that worker processes the CLI re-execs
// inherit the same cache configuration through EnvCache/EnvCacheSize.
func SetProcessConfig(cfg Config) *Engine {
	if cfg.Disabled {
		os.Setenv(EnvCache, "0")
	} else {
		os.Setenv(EnvCache, "1")
	}
	if cfg.Capacity > 0 {
		os.Setenv(EnvCacheSize, strconv.Itoa(cfg.Capacity))
	}
	return Configure(cfg)
}

// EnvConfig reads the cache configuration exported by SetProcessConfig.
func EnvConfig() Config {
	var cfg Config
	switch os.Getenv(EnvCache) {
	case "0", "false", "off", "no":
		cfg.Disabled = true
	}
	if v := os.Getenv(EnvCacheSize); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			cfg.Capacity = n
		}
	}
	return cfg
}

func (e *Engine) disabled() bool { return e.s == nil }

// Stats is a snapshot of the engine's counters. Counters are timing- and
// sharing-dependent, so they belong on stderr, never in a determinism-pinned
// output stream.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Parses    uint64 // real parser.Parse calls (cache misses + disabled-mode parses)
	Entries   int
	Capacity  int
	Disabled  bool
}

// HitRate is Hits / (Hits + Misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (s Stats) String() string {
	if s.Disabled {
		return fmt.Sprintf("cache: disabled (%d parses)", s.Parses)
	}
	return fmt.Sprintf("cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d/%d entries, %d parses",
		s.Hits, s.Misses, 100*s.HitRate(), s.Evictions, s.Entries, s.Capacity, s.Parses)
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	st := Stats{Parses: e.parses.Load(), Capacity: e.config.Capacity, Disabled: e.disabled()}
	if e.s != nil {
		st.Hits = e.s.hits.Load()
		st.Misses = e.s.misses.Load()
		st.Evictions = e.s.evictions.Load()
		st.Entries = e.s.len()
	}
	return st
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
	if e.disabled() {
		e.parses.Add(1)
		return parser.Parse(path, source)
	}
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
// Stage: AST → linked program.

// programKey hashes the program stage input: source contents in link order
// (paths excluded — the loaded program is path-independent, so identical
// sources at different paths share the artifact) plus the instrumentation
// switch.
func programKey(srcs []Source, instrumented bool) Key {
	h := NewKey("program")
	if instrumented {
		h.Int(1)
	} else {
		h.Int(0)
	}
	for _, s := range srcs {
		h.Str(s.Source)
	}
	return h.Key()
}

// Program links (and optionally probe-instruments) the sources into a cold
// *interp.Program, which compiles itself on its first run. The returned
// program is shared across callers and must not be re-Loaded or patched —
// interpreter instances already honor this by quickening private code
// copies — so a hit is safe for any number of concurrent interpreters.
func (e *Engine) Program(srcs []Source, instrumented bool) (*interp.Program, error) {
	build := func() (any, error) {
		files, err := e.ParseAll(srcs)
		if err != nil {
			return nil, err
		}
		if instrumented {
			instrument.Inject(files...)
		}
		return interp.Load(files...)
	}
	v, err := e.Memo(programKey(srcs, instrumented), build)
	if err != nil {
		return nil, err
	}
	return v.(*interp.Program), nil
}

// ---------------------------------------------------------------------------
// Stage: program + run config → measurement sample.

// RunSpec is the complete configuration of one measurement run. Every field
// is key material: changing the entry point, op budget, execution engine or
// cost table must key a separate sample.
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

func sampleKey(srcs []Source, spec RunSpec) Key {
	h := NewKey("sample")
	h.Str(spec.Main).Str(spec.CallClass).Str(spec.CallMethod)
	h.Int(spec.MaxOps).Int(int64(spec.Engine))
	if spec.Costs != nil {
		// CostTable is a flat struct of arrays and scalars, so %v is a
		// deterministic serialization.
		h.Str(fmt.Sprintf("%v", *spec.Costs))
	}
	for _, s := range srcs {
		h.Str(s.Source)
	}
	return h.Key()
}

// Sample measures one run of the sources under spec. The simulator is
// deterministic — the sample is a pure function of (sources, spec) — so
// successful samples are cached; failed runs are not (their error strings
// are re-derived identically on every call).
//
// ctx bounds the interpreter run: a cancelled run returns ctx's error,
// which — because errors are never cached — can never poison the store
// with a partial sample. ctx is deliberately not key material.
func (e *Engine) Sample(ctx context.Context, srcs []Source, spec RunSpec) (energy.Sample, error) {
	build := func() (any, error) { return e.runSample(ctx, srcs, spec) }
	v, err := e.Memo(sampleKey(srcs, spec), build)
	if err != nil {
		return energy.Sample{}, err
	}
	return v.(energy.Sample), nil
}

func (e *Engine) runSample(ctx context.Context, srcs []Source, spec RunSpec) (energy.Sample, error) {
	prog, err := e.Program(srcs, false)
	if err != nil {
		return energy.Sample{}, err
	}
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
	if e.disabled() {
		return build()
	}
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
