package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"jepo/internal/dist"
)

// A Kind is a task function declared once, next to the runner that maps
// over it: a name plus a typed function of (Task, params). Declaring a kind
// registers it for worker mode, so a binary serves every kind it links and
// no other list names them. Mapped in process, the function is called
// directly with the params value — no JSON; in a worker process, params and
// results cross as JSON, whose shortest-form floats round-trip every bit.
//
// The function must be a pure function of (task index, task seed, params):
// a node fault reruns the task elsewhere, and a task error is final because
// a rerun would replay it.
type Kind[P, R any] struct {
	name string
	bind func(P) (func(context.Context, Task) (R, error), error)

	// The worker side's setup memo: one entry, keyed by the params bytes.
	mu   sync.Mutex
	memo *binding[R]
}

// binding is one params value's bound task function, built once: concurrent
// first misses (in-process pipe workers share a kind) wait on once.
type binding[R any] struct {
	key  string
	once sync.Once
	fn   func(context.Context, Task) (R, error)
	err  error
}

// NewKind declares a kind whose tasks need nothing beyond their params.
func NewKind[P, R any](name string, fn func(context.Context, Task, P) (R, error)) *Kind[P, R] {
	return NewSetupKind(name, func(p P) (P, error) { return p, nil }, fn)
}

// NewSetupKind declares a kind whose tasks share setup built from the
// params (a generated corpus, the Table IV inputs, a linked program): built
// once per map in process, and once per worker process per params.
func NewSetupKind[P, S, R any](name string, setup func(P) (S, error), fn func(context.Context, Task, S) (R, error)) *Kind[P, R] {
	k := &Kind[P, R]{name: name, bind: func(p P) (func(context.Context, Task) (R, error), error) {
		s, err := setup(p)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, t Task) (R, error) { return fn(ctx, t, s) }, nil
	}}
	kindsMu.Lock()
	defer kindsMu.Unlock()
	if _, dup := kinds[name]; dup || name == "" {
		panic(fmt.Sprintf("sched: kind %q declared twice or unnamed", name))
	}
	kinds[name] = k.serve
	return k
}

// Map runs tasks 0..n-1 of the kind with the given params and returns their
// results in index order; commit, when set, runs in index order on the
// caller's goroutine once per successful task, exactly as in MapCommit.
// cfg places the tasks: in process at cfg.Jobs wide, or on cfg.Workers
// worker processes when that is above one. With cfg.Checkpoint set, tasks a
// previous run of the same map finished are replayed from its ledger, and
// every task that finishes without error is recorded there.
func (k *Kind[P, R]) Map(ctx context.Context, cfg Config, params P, n int, commit func(Task, R)) ([]R, Telemetry, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, n)
	var led *ledger
	var skip []bool
	pending := n
	if cfg.Checkpoint != "" {
		var err error
		if led, err = openLedger(cfg, k.name, n, params); err != nil {
			return results, Telemetry{}, err
		}
		skip = led.replay(func(i int, raw json.RawMessage) error { return decodeInto(&results[i], raw) })
		defer led.save()
	}
	for _, s := range skip {
		if s {
			pending--
		}
	}
	finished := func(i int) {
		if led != nil {
			led.record(i, results[i])
		}
	}

	var nodes *nodeSet
	var p placement
	if cfg.Workers > 1 {
		if err := ctx.Err(); err != nil {
			return results, Telemetry{Tasks: n}, err
		}
		raw, err := json.Marshal(params)
		if err != nil {
			return results, Telemetry{Tasks: n}, fmt.Errorf("sched: %s params: %w", k.name, err)
		}
		nodes = spawnNodes(ctx, cfg, min(cfg.Workers, pending), k.name, raw,
			func(i int, result json.RawMessage) error {
				if err := decodeInto(&results[i], result); err != nil {
					return err
				}
				finished(i)
				return nil
			})
		defer nodes.close()
		p = nodes.placement()
	} else {
		fn, err := k.bind(params)
		if err != nil {
			return results, Telemetry{Tasks: n}, err
		}
		p = pool(cfg.Jobs, pending, func(_ int, t Task) error {
			r, err := fn(ctx, t)
			if err != nil {
				return err
			}
			results[t.Index] = r
			finished(t.Index)
			return nil
		})
	}
	tel, err := execute(ctx, cfg.Seed, n, skip, p, func(t Task) {
		if commit != nil {
			commit(t, results[t.Index])
		}
	})
	tel.Workers = cfg.Workers
	tel.Replayed = n - pending
	if nodes != nil {
		nodes.count(&tel)
	}
	return results, tel, err
}

// decodeInto decodes one task result into a fresh value, so a payload that
// fails halfway never leaves a partly written result behind.
func decodeInto[R any](dst *R, raw json.RawMessage) error {
	var r R
	if err := json.Unmarshal(raw, &r); err != nil {
		return err
	}
	*dst = r
	return nil
}

// serve runs one task for a worker process: params decode (and the kind's
// setup binds) once per distinct params, the result encodes to JSON.
func (k *Kind[P, R]) serve(t Task, params json.RawMessage) (out json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicked(t.Index, r)
		}
	}()
	fn, err := k.workerFn(params)
	if err != nil {
		return nil, err
	}
	r, err := fn(context.Background(), t)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

func (k *Kind[P, R]) workerFn(params json.RawMessage) (func(context.Context, Task) (R, error), error) {
	k.mu.Lock()
	m := k.memo
	if m == nil || m.key != string(params) {
		m = &binding[R]{key: string(params)}
		k.memo = m
	}
	k.mu.Unlock()
	m.once.Do(func() {
		var p P
		if len(params) > 0 {
			if m.err = json.Unmarshal(params, &p); m.err != nil {
				m.err = fmt.Errorf("sched: %s params: %w", k.name, m.err)
				return
			}
		}
		m.fn, m.err = k.bind(p)
	})
	return m.fn, m.err
}

// kinds is the worker-mode registry, filled as kinds are declared.
var (
	kindsMu sync.RWMutex
	kinds   = map[string]func(Task, json.RawMessage) (json.RawMessage, error){}
)

// Handle runs one task of a declared kind: the dist.Handler a worker process
// serves (ServeWorker) and in-process pipe workers are spawned with.
func Handle(kind string, index int, seed uint64, params json.RawMessage) (json.RawMessage, error) {
	kindsMu.RLock()
	serve, ok := kinds[kind]
	kindsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown kind %q", kind)
	}
	return serve(Task{Index: index, Seed: seed}, params)
}

// ServeWorker runs the worker loop over stdin/stdout. The CLIs call it when
// re-exec'd with dist.WorkerArg.
func ServeWorker() error {
	return dist.ServeStdio(Handle)
}
