package tables

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"jepo/internal/corpus"
	"jepo/internal/sched"
	"jepo/internal/stats"
)

// cancelCfg is a heavily reduced Table IV configuration: real measurement,
// small enough that individual rows complete in well under a second.
func cancelCfg() Table4Config {
	return Table4Config{
		Seed:      20200518,
		Instances: 400,
		Reps:      1,
		Protocol:  stats.Protocol{Runs: 3, MaxRounds: 2},
		CVFolds:   2,
	}
}

// TestSupervisedCancelKeepsCheckpoints is the interruption acceptance test
// for Table IV: cancelling a checkpointed run mid-way must leave a valid
// ledger holding exactly the completed rows, and a resumed run must replay
// those rows untouched and converge on a ledger byte-identical to an
// uninterrupted run's.
func TestSupervisedCancelKeepsCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real rows")
	}
	// One job keeps execution strictly sequential, so the first three hook
	// entries are fully-measured, recorded rows.
	ex := func(dir string) sched.Config { return sched.Config{Jobs: 1, Seed: 20200518, Checkpoint: dir} }

	// Uninterrupted reference run.
	refDir := t.TempDir()
	refRows, _, err := Table4Map(context.Background(), ex(refDir), cancelCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refRows {
		if r.Err != "" {
			t.Fatalf("reference row %s failed: %s", r.Classifier, r.Err)
		}
	}

	// Interrupted run: let three rows complete, then cancel before the
	// fourth measures.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := cancelCfg()
	var mu sync.Mutex
	entered := 0
	cfg.RowHook = func(name string) error {
		mu.Lock()
		defer mu.Unlock()
		entered++
		if entered > 3 {
			cancel()
			return errors.New("cancelled before measuring")
		}
		return nil
	}
	if _, _, err := Table4Map(ctx, ex(dir), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	// The ledger survived the cancel in a valid state: a strict subset of
	// classifiers, each row equal to the reference run's.
	var done []string
	for name, row := range ledgerRows(t, dir) {
		for _, ref := range refRows {
			if ref.Classifier == name && ref != row {
				t.Errorf("recorded %s row %+v differs from the reference %+v", name, row, ref)
			}
		}
		done = append(done, name)
	}
	if len(done) == 0 || len(done) >= len(corpus.Classifiers) {
		t.Fatalf("cancelled run recorded %v — want a non-empty strict subset", done)
	}

	// Resume with a live context: recorded rows are replayed without
	// re-entering the pipeline, only the missing ones are measured.
	var tried attempts
	cfg.RowHook = tried.hook(func(string) error { return nil })
	rows, _, err := Table4Map(context.Background(), ex(dir), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tried.sorted(), missingFrom(done); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume measured %v, want exactly the missing rows %v", got, want)
	}

	// The resumed table matches the uninterrupted run row for row, and the
	// final ledger is byte-identical — the cancel left no trace.
	for i, r := range rows {
		if r != refRows[i] {
			t.Errorf("row %s drifted after cancel+resume:\n got %+v\nwant %+v", r.Classifier, r, refRows[i])
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "table4row.json"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, "table4row.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Errorf("ledger differs from the uninterrupted run's:\n got %s\nwant %s", got, ref)
	}
}

// missingFrom returns the classifiers not in done, sorted.
func missingFrom(done []string) []string {
	var out []string
	for _, name := range corpus.Classifiers {
		if !contains(done, name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
