// Supervised Table IV runner. Under real measurement conditions one bad row
// must not kill a run that has already spent minutes measuring the other
// nine, so every classifier runs under its own supervisor — panic recovery,
// optional deadline — and a failed row is a task error to the executor:
// never recorded in a checkpoint ledger, so a resumed run re-attempts
// exactly the failures, and rendered as a failure entry in the table.
package tables

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jepo/internal/airlines"
	"jepo/internal/corpus"
	"jepo/internal/dataset"
	"jepo/internal/sched"
)

// table4Inputs is what every Table IV row shares: the generated airlines
// data and the normalized kernel features, built once per map in process
// and once per worker process.
type table4Inputs struct {
	cfg    Table4Config
	data   *dataset.Dataset
	feats  [][]float64
	labels []int64
	sayMu  sync.Mutex
}

func newTable4Inputs(cfg Table4Config) (*table4Inputs, error) {
	data := airlines.Generate(cfg.Instances, cfg.Seed)
	feats, labels := kernelData(data)
	return &table4Inputs{cfg: cfg, data: data, feats: feats, labels: labels}, nil
}

func (in *table4Inputs) say(format string, args ...any) {
	if in.cfg.Progress != nil {
		in.sayMu.Lock()
		in.cfg.Progress(fmt.Sprintf(format, args...))
		in.sayMu.Unlock()
	}
}

// table4Kind runs one classifier's supervised pipeline; every failure mode
// — error, panic, deadline — comes back as the task's error.
var table4Kind = sched.NewSetupKind("table4row", newTable4Inputs,
	func(ctx context.Context, t sched.Task, in *table4Inputs) (Table4Row, error) {
		if t.Index < 0 || t.Index >= len(corpus.Classifiers) {
			return Table4Row{}, fmt.Errorf("tables: table 4 row %d out of range", t.Index)
		}
		return superviseRow(ctx, corpus.Classifiers[t.Index], in)
	})

// Table4Supervised runs the full §VIII validation in process, Slots rows
// at a time. Every classifier produces a row: successful rows carry
// measurements, failed ones carry Err. The returned error covers
// infrastructure problems only (cancellation), never a row failure.
func Table4Supervised(ctx context.Context, cfg Table4Config) ([]Table4Row, error) {
	rows, _, err := Table4Map(ctx, sched.Config{Jobs: cfg.Slots, Seed: cfg.Seed}, cfg)
	return rows, err
}

// Table4Map runs the supervised Table IV at the placement ex names, one
// row per classifier in paper order, failed rows carrying Err. With
// ex.Checkpoint set, rows a previous run finished are replayed from its
// ledger. The returned error covers infrastructure only: cancellation, an
// unusable checkpoint directory, or every worker node lost.
func Table4Map(ctx context.Context, ex sched.Config, cfg Table4Config) ([]Table4Row, sched.Telemetry, error) {
	rows, tel, err := table4Kind.Map(ctx, ex, cfg, len(corpus.Classifiers), nil)
	var failed sched.Errors
	if errors.As(err, &failed) {
		for i, ferr := range failed {
			if ferr != nil {
				rows[i] = Table4Row{Classifier: corpus.Classifiers[i], Err: ferr.Error()}
			}
		}
		err = nil
	}
	if err != nil {
		return nil, tel, err
	}
	return rows, tel, nil
}

// FailedRows filters the rows the supervised runner could not measure.
func FailedRows(rows []Table4Row) []Table4Row {
	var out []Table4Row
	for _, r := range rows {
		if r.Err != "" {
			out = append(out, r)
		}
	}
	return out
}

// superviseRow runs one classifier's pipeline in a child goroutine guarded
// by panic recovery and the configured deadline. A timed-out pipeline is
// abandoned: the row reports the deadline at once instead of blocking the
// run, and the pipeline's context is cancelled, so it stops instead of
// competing with the live rows for the pool's CPUs (its goroutine drains
// into a buffered channel).
func superviseRow(ctx context.Context, name string, in *table4Inputs) (Table4Row, error) {
	cfg := in.cfg
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		row Table4Row
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		if cfg.RowHook != nil {
			if err := cfg.RowHook(name); err != nil {
				done <- outcome{err: err}
				return
			}
		}
		row, err := table4Row(ctx, name, in)
		done <- outcome{row: row, err: err}
	}()

	var deadline <-chan time.Time
	if cfg.RowTimeout > 0 {
		timer := time.NewTimer(cfg.RowTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case out := <-done:
		if out.err != nil {
			in.say("%s: FAILED: %v", name, out.err)
		}
		return out.row, out.err
	case <-deadline:
		in.say("%s: deadline %v exceeded; row abandoned", name, cfg.RowTimeout)
		return Table4Row{}, fmt.Errorf("deadline exceeded (%v)", cfg.RowTimeout)
	}
}
