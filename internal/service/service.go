// Package service is the session-oriented façade over the analysis pipeline:
// the layer the jepod daemon (and any long-lived embedder) drives instead of
// re-running the CLI. A Service owns one shared content-addressed artifact
// store and one admission gate; each Session owns a virtual file set. Every
// request runs under the caller's context with per-request op budgets, emits
// streaming progress events (the material the CLI prints to stderr), and
// renders its output through the same helpers the CLI uses, so a daemon
// response is byte-identical to the corresponding CLI stdout.
//
// Admission control: requests Acquire the service's gate before doing any
// work. At most Slots requests execute concurrently; up to MaxQueue more
// wait FIFO; beyond that Acquire fails fast with sched.ErrSaturated, which
// the HTTP layer maps to 503. Cancelling a queued request's context removes
// it from the queue.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"jepo/internal/core"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
	"jepo/internal/sched"
	"jepo/internal/tables"
)

// ErrClosed reports an operation on a closed Service or Session.
var ErrClosed = errors.New("service: closed")

// ErrNoSession reports an unknown session ID.
var ErrNoSession = errors.New("service: no such session")

// Config sizes a Service.
type Config struct {
	// Cache configures the artifact store every session shares. The zero
	// value is a store at the default capacity.
	Cache engine.Config
	// Engine is the default execution engine for requests that don't name
	// one (zero value = bytecode VM).
	Engine interp.Engine
	// Jobs is the default pool width inside one request (per-fix
	// measurements, table rows), and the widest a request may ask for.
	// <= 0 means GOMAXPROCS. Output is bit-identical at any value.
	Jobs int
	// Slots bounds concurrently executing requests. <= 0 means 1.
	Slots int
	// MaxQueue bounds requests waiting for a slot before new arrivals are
	// shed with sched.ErrSaturated. < 0 means an unbounded queue; 0 means
	// no queue (admit or shed).
	MaxQueue int
	// MaxOps is the default per-run op budget for requests that don't set
	// one (0 = interp.DefaultMaxOps), and the ceiling for those that do.
	MaxOps int64
}

// Service hosts sessions over one shared artifact store.
type Service struct {
	cfg   Config
	store *engine.Engine
	gate  *sched.Gate

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool
}

// New builds a Service with its own artifact store and admission gate.
func New(cfg Config) *Service {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = 1
	}
	return &Service{
		cfg:      cfg,
		store:    engine.New(cfg.Cache),
		gate:     sched.NewGate(slots, cfg.MaxQueue),
		sessions: make(map[string]*Session),
	}
}

// Store exposes the shared artifact engine (cache statistics, warm-up).
func (svc *Service) Store() *engine.Engine { return svc.store }

// GateStats reports the admission gate's counters.
func (svc *Service) GateStats() sched.GateStats { return svc.gate.Stats() }

// CreateSession opens a new empty session. Its ID is 128 random bits,
// hex-encoded, and no route lists the open IDs, so a client reaches only
// the sessions whose IDs it was handed.
func (svc *Service) CreateSession() (*Session, error) {
	var id [16]byte
	if _, err := rand.Read(id[:]); err != nil {
		return nil, err
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.closed {
		return nil, ErrClosed
	}
	s := &Session{
		svc:   svc,
		id:    hex.EncodeToString(id[:]),
		files: make(map[string]string),
	}
	svc.sessions[s.id] = s
	return s, nil
}

// Session looks a session up by ID.
func (svc *Service) Session(id string) (*Session, error) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	s, ok := svc.sessions[id]
	if !ok {
		return nil, ErrNoSession
	}
	return s, nil
}

// SessionCount returns the number of open sessions.
func (svc *Service) SessionCount() int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return len(svc.sessions)
}

// Close closes the service and every open session. In-flight requests run
// to completion (they hold gate slots); new requests fail with ErrClosed.
func (svc *Service) Close() {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	svc.closed = true
	for id, s := range svc.sessions {
		s.markClosed()
		delete(svc.sessions, id)
	}
}

// Session is one client's virtual file set. Files never touch the
// filesystem: they exist only in the session, keyed by a relative path, and
// flow into the shared artifact store content-addressed, so two sessions
// holding identical sources share every cached parse and analysis report.
type Session struct {
	svc *Service
	id  string

	mu     sync.Mutex
	files  map[string]string
	closed bool
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// PutFile creates or replaces one virtual source file.
func (s *Session) PutFile(path, src string) error {
	if path == "" || strings.HasPrefix(path, "/") || strings.Contains(path, "..") {
		return fmt.Errorf("service: invalid path %q", path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.files[path] = src
	return nil
}

// DeleteFile removes one virtual source file.
func (s *Session) DeleteFile(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.files[path]; !ok {
		return fmt.Errorf("service: no file %q", path)
	}
	delete(s.files, path)
	return nil
}

// Files lists the session's paths in sorted order.
func (s *Session) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	paths := make([]string, 0, len(s.files))
	for p := range s.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Close removes the session from its service.
func (s *Session) Close() {
	s.svc.mu.Lock()
	delete(s.svc.sessions, s.id)
	s.svc.mu.Unlock()
	s.markClosed()
}

func (s *Session) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// project snapshots the file set as a core.Project.
func (s *Session) project() (core.Project, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.files) == 0 {
		return nil, fmt.Errorf("service: session %s has no files", s.id)
	}
	p := make(core.Project, len(s.files))
	for path, src := range s.files {
		p[path] = src
	}
	return p, nil
}

// Event is one streaming progress notification. Events carry the material
// the CLI prints to stderr — queue position, pool telemetry, cache
// statistics — and are explicitly NOT part of the determinism-pinned
// output: two identical requests may emit different telemetry while
// producing byte-identical Output.
type Event struct {
	Seq     int    `json:"seq"`
	Stage   string `json:"stage"` // queued | running | telemetry | done | error
	Message string `json:"message,omitempty"`
}

// Progress receives a request's events in order. Callbacks run on the
// request's goroutine; a nil Progress discards events.
type Progress func(Event)

// emitter numbers events and tolerates a nil sink.
type emitter struct {
	fn  Progress
	seq int
}

func (e *emitter) emit(stage, msg string) {
	e.seq++
	if e.fn != nil {
		e.fn(Event{Seq: e.seq, Stage: stage, Message: msg})
	}
}

// Request carries the per-request knobs shared by every session operation.
type Request struct {
	// MainClass anchors measurement runs (empty = the unique main class).
	MainClass string `json:"main,omitempty"`
	// Engine names the execution engine ("" = service default).
	Engine string `json:"engine,omitempty"`
	// Jobs overrides the pool width (0 = service default), capped at the
	// service's Config.Jobs. Pure wall-clock knob: Output is bit-identical
	// at any value.
	Jobs int `json:"jobs,omitempty"`
	// MaxOps is this request's op budget per measurement run (0 = service
	// default), capped at the service's budget. The budget is cache-key
	// material: the same sources under a different budget are distinct
	// artifacts.
	MaxOps int64 `json:"max_ops,omitempty"`
}

// resolve folds service defaults into the request and holds it to the
// service's ceilings: a client may lower its op budget and pool width, never
// raise them past the operator's (Config.MaxOps, or interp.DefaultMaxOps
// when that is 0; Config.Jobs). Unset fields keep the defaults unchanged, so
// ordinary requests keep their cache keys.
func (svc *Service) resolve(req Request) (eng interp.Engine, jobs int, maxOps int64, err error) {
	if req.MaxOps < 0 {
		return eng, 0, 0, fmt.Errorf("service: negative max_ops %d", req.MaxOps)
	}
	if req.Jobs < 0 {
		return eng, 0, 0, fmt.Errorf("service: negative jobs %d", req.Jobs)
	}
	eng = svc.cfg.Engine
	if req.Engine != "" {
		eng, err = interp.ParseEngine(req.Engine)
		if err != nil {
			return eng, 0, 0, err
		}
	}
	jobs = req.Jobs
	if jobs == 0 || jobs > svc.cfg.Jobs {
		jobs = svc.cfg.Jobs
	}
	maxOps = req.MaxOps
	if maxOps == 0 {
		maxOps = svc.cfg.MaxOps
	}
	ceiling := svc.cfg.MaxOps
	if ceiling == 0 {
		ceiling = interp.DefaultMaxOps
	}
	if maxOps > ceiling {
		maxOps = ceiling
	}
	return eng, jobs, maxOps, nil
}

// admit passes the admission gate, narrating the wait. The returned release
// function must be called when the request finishes.
func (svc *Service) admit(ctx context.Context, em *emitter) (func(), error) {
	em.emit("queued", "")
	release, err := svc.gate.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	em.emit("running", "")
	return release, nil
}

// AnalyzeResult is one analyze request's outcome.
type AnalyzeResult struct {
	// Report is the structured analysis.
	Report *core.AnalysisReport
	// Output is byte-identical to `jepo analyze` stdout.
	Output string
}

// Analyze runs the unified diagnostic pass over the session's file set.
func (s *Session) Analyze(ctx context.Context, req Request, onEvent Progress) (*AnalyzeResult, error) {
	em := &emitter{fn: onEvent}
	p, err := s.project()
	if err != nil {
		return nil, err
	}
	eng, jobs, maxOps, err := s.svc.resolve(req)
	if err != nil {
		return nil, err
	}
	release, err := s.svc.admit(ctx, em)
	if err != nil {
		return nil, err
	}
	defer release()
	rep, err := core.Analyze(ctx, p, core.AnalyzeConfig{
		MainClass: req.MainClass,
		MaxOps:    maxOps,
		Engine:    eng,
		Jobs:      jobs,
		Cache:     s.svc.store,
	})
	if err != nil {
		em.emit("error", err.Error())
		return nil, err
	}
	em.emit("telemetry", s.svc.store.Stats().String())
	em.emit("done", "")
	return &AnalyzeResult{Report: rep, Output: RenderAnalyze(rep)}, nil
}

// OptimizeResult is one optimize request's outcome.
type OptimizeResult struct {
	// Files maps each path to its refactored source.
	Files core.Project
	// Changes counts applied rewrites.
	Changes int
	// Output is byte-identical to `jepo optimize` stdout (sorted file dump).
	Output string
}

// Optimize applies the Table I refactorings to the session's file set. The
// session's files are NOT mutated; the rewritten sources come back in the
// result, so a client can inspect before choosing to PutFile them back.
func (s *Session) Optimize(ctx context.Context, req Request, onEvent Progress) (*OptimizeResult, error) {
	em := &emitter{fn: onEvent}
	p, err := s.project()
	if err != nil {
		return nil, err
	}
	release, err := s.svc.admit(ctx, em)
	if err != nil {
		return nil, err
	}
	defer release()
	refactored, res, err := core.Optimize(ctx, p)
	if err != nil {
		em.emit("error", err.Error())
		return nil, err
	}
	em.emit("done", "")
	return &OptimizeResult{
		Files:   refactored,
		Changes: res.Changes,
		Output:  RenderOptimize(refactored, res),
	}, nil
}

// ProfileResult is one profile request's outcome.
type ProfileResult struct {
	// Result is the structured profile.
	Result *core.ProfileResult
	// Output is byte-identical to `jepo profile` stdout (minus the
	// CLI-local "log written to" line).
	Output string
	// ResultTxt is the per-execution log the CLI writes to result.txt.
	ResultTxt string
}

// Profile runs the session's program under injected RAPL probes.
func (s *Session) Profile(ctx context.Context, req Request, onEvent Progress) (*ProfileResult, error) {
	em := &emitter{fn: onEvent}
	p, err := s.project()
	if err != nil {
		return nil, err
	}
	eng, _, maxOps, err := s.svc.resolve(req)
	if err != nil {
		return nil, err
	}
	release, err := s.svc.admit(ctx, em)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := core.Profile(ctx, p, core.ProfileConfig{
		MainClass: req.MainClass,
		MaxOps:    maxOps,
		Engine:    eng,
		Cache:     s.svc.store,
	})
	if err != nil {
		em.emit("error", err.Error())
		return nil, err
	}
	em.emit("done", "")
	return &ProfileResult{
		Result:    res,
		Output:    RenderProfile(res),
		ResultTxt: res.Profiler.ResultTxt(),
	}, nil
}

// TableResult is one table request's outcome.
type TableResult struct {
	// Output is byte-identical to the corresponding CLI table block
	// (`jepo table1`; `wekaexp -table 2`).
	Output string
}

// Table regenerates paper table n (1 or 2). Tables need no session — they
// run over built-in corpora — but they share the gate with session
// requests, so a table regeneration queues like everything else. They parse
// through the process-wide engine.Default(), not the service's store.
func (svc *Service) Table(ctx context.Context, n int, seed uint64, req Request, onEvent Progress) (*TableResult, error) {
	em := &emitter{fn: onEvent}
	eng, jobs, _, err := svc.resolve(req)
	if err != nil {
		return nil, err
	}
	release, err := svc.admit(ctx, em)
	if err != nil {
		return nil, err
	}
	defer release()
	var out string
	switch n {
	case 1:
		rows, tel, terr := tables.Table1Jobs(ctx, eng, jobs)
		if terr != nil {
			em.emit("error", terr.Error())
			return nil, terr
		}
		em.emit("telemetry", tel.String())
		out = RenderTable1(rows)
	case 2:
		rows, tel, terr := tables.Table2Parallel(ctx, seed, jobs)
		if terr != nil {
			em.emit("error", terr.Error())
			return nil, terr
		}
		em.emit("telemetry", tel.String())
		out = RenderTable2(rows)
	default:
		return nil, fmt.Errorf("service: no table %d (have 1, 2)", n)
	}
	em.emit("done", "")
	return &TableResult{Output: out}, nil
}
