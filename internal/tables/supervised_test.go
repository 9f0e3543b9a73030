package tables

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jepo/internal/corpus"
	"jepo/internal/dist"
	"jepo/internal/sched"
	"jepo/internal/stats"
)

// fakeRow builds a plausible completed measurement for a classifier; the
// seed and instance count shift it, so rows of different configurations
// never compare equal.
func fakeRow(name string, cfg Table4Config) Table4Row {
	return Table4Row{
		Classifier:  name,
		Changes:     700 + len(name) + cfg.Instances,
		PackagePct:  3.5 + float64(cfg.Seed%7),
		CPUPct:      3.1,
		TimePct:     2.8,
		AccuracyPct: 0.2,
	}
}

// fakeRows swaps the row pipeline, until the test ends, for one that answers
// every classifier with its fakeRow, so supervision and resume tests never
// run a real pipeline, except the poisoned ones, whose pipeline panics: a
// row failure that — unlike RowHook — also strikes inside pipe workers.
func fakeRows(t *testing.T, poisoned ...string) {
	prev := table4Row
	t.Cleanup(func() { table4Row = prev })
	table4Row = func(_ context.Context, name string, in *table4Inputs) (Table4Row, error) {
		if contains(poisoned, name) {
			panic("poisoned row")
		}
		return fakeRow(name, in.cfg), nil
	}
}

// without lists the classifiers not named.
func without(names ...string) []string {
	var out []string
	for _, c := range corpus.Classifiers {
		if !contains(names, c) {
			out = append(out, c)
		}
	}
	return out
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// ledgerRows reads the Table IV ledger in dir: recorded rows by classifier.
func ledgerRows(t *testing.T, dir string) map[string]Table4Row {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, "table4row.json"))
	if err != nil {
		t.Fatalf("no Table IV ledger: %v", err)
	}
	var doc struct {
		Done map[string]Table4Row `json:"done"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]Table4Row{}
	for key, row := range doc.Done {
		i, err := strconv.Atoi(key)
		if err != nil || corpus.Classifiers[i] != row.Classifier {
			t.Fatalf("ledger entry %s holds %s", key, row.Classifier)
		}
		out[row.Classifier] = row
	}
	return out
}

// attempts records which classifiers reach the row supervisor's hook.
type attempts struct {
	mu    sync.Mutex
	names []string
}

func (a *attempts) hook(fail func(name string) error) func(string) error {
	return func(name string) error {
		a.mu.Lock()
		a.names = append(a.names, name)
		a.mu.Unlock()
		return fail(name)
	}
}

func (a *attempts) sorted() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]string(nil), a.names...)
	sort.Strings(out)
	return out
}

// TestSupervisedPanicIsolatedAndResumed is the Table IV acceptance test: one
// classifier's pipeline panicking must not lose the other nine rows, the
// ledger must not record the failure, and a rerun against the same
// checkpoint directory must re-attempt exactly the failed classifier.
func TestSupervisedPanicIsolatedAndResumed(t *testing.T) {
	dir := t.TempDir()
	const bad = "SMO"
	cfg := Table4Config{Instances: 50}
	fakeRows(t)
	cfg.RowHook = func(name string) error {
		if name == bad {
			panic("injected kernel fault")
		}
		return nil
	}
	ex := sched.Config{Checkpoint: dir}
	rows, _, err := Table4Map(context.Background(), ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(corpus.Classifiers) {
		t.Fatalf("rows = %d, want %d", len(rows), len(corpus.Classifiers))
	}
	for _, r := range rows {
		if r.Classifier == bad {
			if !strings.Contains(r.Err, "panic: injected kernel fault") {
				t.Errorf("%s Err = %q, want the recovered panic", bad, r.Err)
			}
			continue
		}
		if want := fakeRow(r.Classifier, cfg); r != want {
			t.Errorf("%s row = %+v, want %+v", r.Classifier, r, want)
		}
	}
	if failed := FailedRows(rows); len(failed) != 1 || failed[0].Classifier != bad {
		t.Errorf("failed rows = %+v, want exactly %s", failed, bad)
	}
	// Failures must not be recorded, so the rerun retries them.
	if recorded := ledgerRows(t, dir); len(recorded) != len(corpus.Classifiers)-1 || recorded[bad].Classifier != "" {
		t.Errorf("ledger holds %d rows (failed row recorded: %v), want the %d successes",
			len(recorded), recorded[bad].Classifier != "", len(corpus.Classifiers)-1)
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "FAILED: panic: injected kernel fault") {
		t.Errorf("render lacks the failure entry:\n%s", out)
	}
	if !strings.Contains(out, "RandomForest") {
		t.Errorf("render lost the surviving rows:\n%s", out)
	}

	// Rerun: only the failed classifier is re-attempted.
	var tried attempts
	cfg.RowHook = tried.hook(func(string) error { return errors.New("still failing") })
	rows2, _, err := Table4Map(context.Background(), ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tried.sorted(); !reflect.DeepEqual(got, []string{bad}) {
		t.Errorf("rerun attempted %v, want only %s", got, bad)
	}
	for i, r := range rows2 {
		if r.Classifier == bad {
			if r.Err != "still failing" {
				t.Errorf("rerun %s Err = %q", bad, r.Err)
			}
			continue
		}
		if r != rows[i] {
			t.Errorf("rerun %s row changed: %+v vs %+v", r.Classifier, r, rows[i])
		}
	}
}

// TestSupervisedRowTimeout abandons a hung classifier at the deadline while
// the rest of the run completes.
func TestSupervisedRowTimeout(t *testing.T) {
	const hung = "KStar"
	cfg := Table4Config{
		Instances:  50,
		RowTimeout: 50 * time.Millisecond,
		RowHook: func(name string) error {
			if name == hung {
				time.Sleep(400 * time.Millisecond)
			}
			return errors.New("fast failure")
		},
	}
	start := time.Now()
	rows, err := Table4Supervised(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Classifier == hung {
			if !strings.Contains(r.Err, "deadline exceeded") {
				t.Errorf("%s Err = %q, want deadline", hung, r.Err)
			}
		} else if r.Err != "fast failure" {
			t.Errorf("%s Err = %q", r.Classifier, r.Err)
		}
	}
	// The hung row is abandoned, not awaited: the whole run finishes well
	// under the hook's sleep even single-slotted.
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("run took %v — the supervisor waited for the hung row", elapsed)
	}
}

// TestSupervisedRowTimeoutCancelsRow: a row abandoned at its deadline is
// cancelled, not left running to compete with the live rows. Every row's
// pipeline blocks until its context is done; each must see the
// cancellation within 2 s of the run returning.
func TestSupervisedRowTimeoutCancelsRow(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // frees rows that were never cancelled
	cancelled := make(chan string, len(corpus.Classifiers))
	prev := table4Row
	t.Cleanup(func() { table4Row = prev })
	table4Row = func(ctx context.Context, name string, _ *table4Inputs) (Table4Row, error) {
		select {
		case <-ctx.Done():
			cancelled <- name
		case <-release:
		}
		return Table4Row{}, errors.New("row released")
	}

	rows, err := Table4Supervised(context.Background(), Table4Config{Instances: 50, RowTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !strings.Contains(r.Err, "deadline exceeded (20ms)") {
			t.Errorf("%s Err = %q, want the deadline", r.Classifier, r.Err)
		}
	}
	seen := map[string]bool{}
	timeout := time.After(2 * time.Second)
	for len(seen) < len(corpus.Classifiers) {
		select {
		case name := <-cancelled:
			seen[name] = true
		case <-timeout:
			t.Fatalf("2 s after the run returned only %d of %d abandoned rows were cancelled: %v",
				len(seen), len(corpus.Classifiers), seen)
		}
	}
}

// TestLoadCheckpointRejectsBadFiles covers the Table IV ledger's four bad
// cases: a truncated ledger, one written for another configuration, one
// whose run failed a row, and a missing one. None may replay a row that was
// not measured for this configuration; each reruns exactly what it must.
func TestLoadCheckpointRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table4row.json")
	cfg := Table4Config{Seed: 3, Instances: 50}
	fakeRows(t)
	ex := sched.Config{Seed: cfg.Seed, Checkpoint: dir}
	if _, _, err := Table4Map(context.Background(), ex, cfg); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// rerun reports which rows reach the pipeline; every one that does fails.
	rerun := func(ex sched.Config, cfg Table4Config) []string {
		t.Helper()
		var tried attempts
		cfg.RowHook = tried.hook(func(string) error { return errors.New("re-measured") })
		if _, _, err := Table4Map(context.Background(), ex, cfg); err != nil {
			t.Fatal(err)
		}
		return tried.sorted()
	}
	all := append([]string(nil), corpus.Classifiers...)
	sort.Strings(all)

	if err := os.WriteFile(path, good[:len(good)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := rerun(ex, cfg); !reflect.DeepEqual(got, all) {
		t.Errorf("truncated ledger: re-measured %v, want every row", got)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Instances = 60
	if got := rerun(ex, other); !reflect.DeepEqual(got, all) {
		t.Errorf("ledger of another configuration: re-measured %v, want every row", got)
	}

	// A run that fails a row leaves it out of the ledger.
	os.Remove(path)
	fakeRows(t, "SGD")
	if _, _, err := Table4Map(context.Background(), ex, cfg); err != nil {
		t.Fatal(err)
	}
	if recorded := ledgerRows(t, dir); recorded["SGD"].Classifier != "" {
		t.Error("failed row recorded — failures must be re-attempted")
	}
	if got := rerun(ex, cfg); !reflect.DeepEqual(got, []string{"SGD"}) {
		t.Errorf("ledger of a run with a failed row: re-measured %v, want only SGD", got)
	}

	os.Remove(path)
	if got := rerun(ex, cfg); !reflect.DeepEqual(got, all) {
		t.Errorf("missing ledger: re-measured %v, want every row", got)
	}
}

// TestTable4ResumeKeyedByConfig is the regression test for per-row
// checkpoints keyed by classifier name alone: a run resumed over a ledger
// written with a different Seed or Instances must re-measure every row and
// print what a fresh run prints.
func TestTable4ResumeKeyedByConfig(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first func(*Table4Config)
	}{
		{"seed", func(c *Table4Config) { c.Seed = 1 }},
		{"instances", func(c *Table4Config) { c.Instances = 60 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Table4Config{Seed: 2, Instances: 50}
			first := cfg
			tc.first(&first)
			fakeRows(t)
			dir := t.TempDir()
			if _, _, err := Table4Map(context.Background(), sched.Config{Seed: first.Seed, Checkpoint: dir}, first); err != nil {
				t.Fatal(err)
			}
			fresh, _, err := Table4Map(context.Background(), sched.Config{Seed: cfg.Seed}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			resumed, _, err := Table4Map(context.Background(), sched.Config{Seed: cfg.Seed, Checkpoint: dir}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := RenderTable4(resumed), RenderTable4(fresh); got != want {
				t.Errorf("run resumed over another configuration's ledger:\n%s\nfresh run:\n%s", got, want)
			}
		})
	}
}

// TestTable4PipeWorkersRetryFailedRows is the regression test for failed
// rows recorded as results under process placement: on pipe workers, a
// checkpointed run whose rows failed must leave them out of the ledger, so
// the rerun re-attempts exactly those rows and replays the successful ones.
func TestTable4PipeWorkersRetryFailedRows(t *testing.T) {
	failing := []string{"J48", "SMO", "IBk"}
	cfg := Table4Config{Seed: 5, Instances: 50}
	ex := sched.Config{
		Workers:    2,
		Seed:       cfg.Seed,
		Checkpoint: t.TempDir(),
		Spawn:      dist.PipeSpawner(sched.Handle),
	}
	// Pipe workers run in this process, so they see the swapped pipeline.
	// The first run fails the three rows; the rerun can only succeed on
	// those three and fails the other seven unless the ledger replays them.
	fakeRows(t, failing...)
	rows, _, err := Table4Map(context.Background(), ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, r := range FailedRows(rows) {
		failed = append(failed, r.Classifier)
	}
	sort.Strings(failed)
	if want := []string{"IBk", "J48", "SMO"}; !reflect.DeepEqual(failed, want) {
		t.Fatalf("first run failed %v, want %v", failed, want)
	}

	fakeRows(t, without(failing...)...)
	rows, tel, err := Table4Map(context.Background(), ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if want := fakeRow(r.Classifier, cfg); r != want {
			t.Errorf("rerun %s = %+v, want %+v", r.Classifier, r, want)
		}
	}
	if want := len(corpus.Classifiers) - len(failing); tel.Replayed != want {
		t.Errorf("rerun replayed %d rows, want the %d successes (%s)", tel.Replayed, want, tel)
	}
}

// TestSupervisedCheckpointDirInfraError: an unusable checkpoint directory
// is an infrastructure error, not a table of failed rows.
func TestSupervisedCheckpointDirInfraError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ex := sched.Config{Checkpoint: filepath.Join(file, "sub")}
	if _, _, err := Table4Map(context.Background(), ex, Table4Config{}); err == nil {
		t.Fatal("unusable checkpoint dir must be an infrastructure error")
	}
}

// TestSupervisedMeasuresOneRealRow runs a single classifier's genuine
// pipeline at minimal scale through the supervisor, proving the success path
// measures, records, and resumes bit-identically.
func TestSupervisedMeasuresOneRealRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one real classifier pipeline; skipped with -short")
	}
	dir := t.TempDir()
	const real = "NaiveBayes"
	cfg := Table4Config{
		Seed:      20200518,
		Instances: 150,
		Reps:      1,
		Protocol:  stats.Protocol{Runs: 3, MaxRounds: 1},
		CVFolds:   2,
	}
	cfg.RowHook = func(name string) error {
		if name == real {
			return nil
		}
		return errors.New("skipped for speed")
	}
	ex := sched.Config{Seed: cfg.Seed, Checkpoint: dir}
	rows, _, err := Table4Map(context.Background(), ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var measured *Table4Row
	for i := range rows {
		if rows[i].Classifier == real {
			measured = &rows[i]
		}
	}
	if measured == nil || measured.Err != "" {
		t.Fatalf("real row failed: %+v", measured)
	}
	if measured.Changes <= 0 {
		t.Errorf("measured row has no changes: %+v", measured)
	}
	recorded := ledgerRows(t, dir)
	if len(recorded) != 1 || recorded[real] != *measured {
		t.Errorf("ledger holds %+v, want only the measured row %+v", recorded, *measured)
	}
	// The resume run must not re-measure: the hook fails everything, yet
	// the measured row returns intact.
	cfg.RowHook = func(string) error { return fmt.Errorf("re-measured") }
	rows2, _, err := Table4Map(context.Background(), ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows2 {
		if r.Classifier == real {
			if r != *measured {
				t.Errorf("resumed row drifted: %+v vs %+v", r, *measured)
			}
		} else if r.Err != "re-measured" {
			t.Errorf("%s: %+v, want a re-measured failure", r.Classifier, r)
		}
	}
}
