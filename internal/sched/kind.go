package sched

import (
	"context"
	"encoding/json"
)

// A Kind is a task function declared once, next to the runner that maps
// over it, whose finished tasks can outlive the run: a name plus a typed
// function of (Task, params), with setup built once per map from the
// params. The name and the params' JSON are the identity of the map's
// checkpoint ledger, so a rerun of the same map resumes from it.
//
// The function must be a pure function of (task index, task seed, params):
// a task error is final because a rerun would replay it.
type Kind[P, R any] struct {
	name string
	bind func(P) (func(context.Context, Task) (R, error), error)
}

// NewSetupKind declares a kind whose tasks share setup built from the
// params (the Table IV inputs), built once per map.
func NewSetupKind[P, S, R any](name string, setup func(P) (S, error), fn func(context.Context, Task, S) (R, error)) *Kind[P, R] {
	return &Kind[P, R]{name: name, bind: func(p P) (func(context.Context, Task) (R, error), error) {
		s, err := setup(p)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, t Task) (R, error) { return fn(ctx, t, s) }, nil
	}}
}

// Map runs tasks 0..n-1 of the kind with the given params, cfg.Jobs wide,
// and returns their results in index order; commit, when set, runs in index
// order on the caller's goroutine once per successful task, exactly as in
// MapCommit. With cfg.Checkpoint set, tasks a previous run of the same map
// finished are replayed from its ledger, and every task that finishes
// without error is recorded there.
func (k *Kind[P, R]) Map(ctx context.Context, cfg Config, params P, n int, commit func(Task, R)) ([]R, Telemetry, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, n)
	var led *ledger
	var skip []bool
	if cfg.Checkpoint != "" {
		var err error
		if led, err = openLedger(cfg, k.name, n, params); err != nil {
			return results, Telemetry{}, err
		}
		skip = led.replay(func(i int, raw json.RawMessage) error { return decodeInto(&results[i], raw) })
		defer led.save()
	}
	fn, err := k.bind(params)
	if err != nil {
		return results, Telemetry{Tasks: n}, err
	}
	tel, err := execute(ctx, cfg, n, skip,
		func(t Task) error {
			r, err := fn(ctx, t)
			if err != nil {
				return err
			}
			results[t.Index] = r
			if led != nil {
				led.record(t.Index, r)
			}
			return nil
		},
		func(t Task) {
			if commit != nil {
				commit(t, results[t.Index])
			}
		})
	return results, tel, err
}

// decodeInto decodes one ledger entry into a fresh value, so a payload that
// fails halfway never leaves a partly written result behind.
func decodeInto[R any](dst *R, raw json.RawMessage) error {
	var r R
	if err := json.Unmarshal(raw, &r); err != nil {
		return err
	}
	*dst = r
	return nil
}
