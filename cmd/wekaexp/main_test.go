package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"jepo/internal/corpus"
	"jepo/internal/dist"
	"jepo/internal/sched"
	"jepo/internal/service"
	"jepo/internal/tables"
)

// TestMain lets the test binary stand in for wekaexp's worker processes:
// -workers re-execs the running binary with dist.WorkerArg.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == dist.WorkerArg {
		if err := sched.ServeWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "wekaexp test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// small keeps a real Table IV run to about a second.
var small = []string{"-instances", "120", "-reps", "1", "-runs", "3", "-folds", "2"}

func wekaexp(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if err := realMain(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("wekaexp %v: %v\nstderr:\n%s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestTableAllWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := wekaexp(t, append([]string{"-table", "all", "-checkpoint", dir}, small...)...)
	for _, want := range []string{
		"=== Table I:", "=== Table II:", "=== Table III:", "=== Table IV:", "=== Ablation:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, name := range corpus.Classifiers {
		if !strings.Contains(s, name) {
			t.Errorf("Table IV row for %s missing", name)
		}
	}
	if strings.Contains(s, "FAILED") {
		t.Errorf("rows rendered as failures:\n%s", s)
	}
	if _, err := os.Stat(filepath.Join(dir, "table4row.json")); err != nil {
		t.Errorf("-checkpoint wrote no Table IV ledger: %v", err)
	}
}

// TestTable4ResumesFromCheckpoint: a rerun over the ledger of a finished run
// replays every row without measuring one, and prints the same table.
func TestTable4ResumesFromCheckpoint(t *testing.T) {
	args := append([]string{"-table", "4", "-checkpoint", t.TempDir(), "-v"}, small...)
	first, _ := wekaexp(t, args...)
	again, stderr := wekaexp(t, args...)
	if again != first {
		t.Errorf("resumed table differs:\n%s\nfirst run:\n%s", again, first)
	}
	if want := fmt.Sprintf("resumed %d of %d tasks", len(corpus.Classifiers), len(corpus.Classifiers)); !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr)
	}
	if strings.Contains(stderr, "=== ") {
		t.Errorf("a resumed row was measured again:\n%s", stderr)
	}
}

// TestWorkersStderrLines: under -workers every stderr line is whole — the
// telemetry line ends in a newline, so the cache statistics start their own
// line — and stdout matches the in-process run.
func TestWorkersStderrLines(t *testing.T) {
	want, _ := wekaexp(t, "-table", "2", "-jobs", "1")
	got, stderr := wekaexp(t, "-table", "2", "-workers", "2")
	if got != want {
		t.Errorf("-workers 2 stdout differs from -jobs 1:\n%s\nvs\n%s", got, want)
	}
	if !strings.HasSuffix(stderr, "\n") {
		t.Errorf("stderr does not end in a newline: %q", stderr)
	}
	if !regexp.MustCompile(`(?m)^sched: .* quarantined=0$`).MatchString(stderr) {
		t.Errorf("no whole telemetry line with the node counters:\n%s", stderr)
	}
	if !regexp.MustCompile(`(?m)^cache: \d+ hits`).MatchString(stderr) {
		t.Errorf("cache statistics do not start a line:\n%s", stderr)
	}
}

// TestWorkersFaultDrill is the process-placement fault drill: Table II on
// four worker processes of this test binary, with node 1 killed taking its
// 2nd task and node 2 hung on its 1st, must quarantine both nodes, finish
// the table, and render exactly what the in-process -jobs 1 run prints.
func TestWorkersFaultDrill(t *testing.T) {
	want, _ := wekaexp(t, "-table", "2", "-jobs", "1")
	plan := &dist.FaultPlan{Script: map[int]map[int]dist.FaultKind{
		1: {1: dist.FaultKill},
		2: {0: dist.FaultHang},
	}}
	const seed = 20200518 // wekaexp's default -seed
	ex := sched.Config{
		Workers:  4,
		Seed:     seed,
		Deadline: 5 * time.Second,
		Spawn:    dist.ChaosSpawner(dist.SelfSpawner(), plan),
	}
	rows, tel, err := tables.Table2Map(context.Background(), ex, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := service.RenderTable2(rows); got != want {
		t.Errorf("faulted -workers 4 table differs from -jobs 1:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(tel.String(), "quarantined=2") {
		t.Errorf("telemetry did not record the two quarantined workers: %s", tel)
	}
}

// TestWorkersRerunRetriesFailedRows: rows that fail on worker processes are
// never recorded, so a rerun over the same checkpoint re-attempts them
// instead of replaying the failures.
func TestWorkersRerunRetriesFailedRows(t *testing.T) {
	args := append([]string{"-table", "4", "-seed", "3", "-row-timeout", "1ms", "-workers", "2", "-checkpoint", t.TempDir()}, small...)
	for run := 1; run <= 2; run++ {
		var out, errb bytes.Buffer
		err := realMain(context.Background(), args, &out, &errb)
		if err == nil || !strings.Contains(errb.String(), "classifier row(s) failed") {
			t.Fatalf("run %d: err = %v, want failed rows\nstderr:\n%s", run, err, errb.String())
		}
		if !strings.Contains(errb.String(), " replayed=0 ") {
			t.Errorf("run %d replayed rows that failed:\n%s", run, errb.String())
		}
		if n := strings.Count(out.String(), "FAILED: deadline exceeded (1ms)"); n != len(corpus.Classifiers) {
			t.Errorf("run %d: %d rows hit the deadline, want all %d:\n%s", run, n, len(corpus.Classifiers), out.String())
		}
	}
}

func TestTable3WritesARFF(t *testing.T) {
	arff := filepath.Join(t.TempDir(), "airlines.arff")
	var out, errb bytes.Buffer
	if err := realMain(context.Background(), []string{"-table", "3", "-instances", "50", "-arff", arff}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(arff)
	if err != nil {
		t.Fatalf("ARFF not written: %v", err)
	}
	if !strings.Contains(string(b), "@relation") {
		t.Error("ARFF file lacks @relation header")
	}
}

func TestDumpCorpus(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	// -table 3 keeps the run cheap; -dump-corpus happens before table
	// selection.
	if err := realMain(context.Background(), []string{"-table", "3", "-instances", "50", "-dump-corpus", dir}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	found := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".java") {
			found++
		}
		return nil
	})
	if found == 0 {
		t.Error("no corpus .java files written")
	}
}

func TestBadFlagRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if err := realMain(context.Background(), []string{"-no-such-flag"}, &out, &errb); err == nil {
		t.Error("unknown flag accepted")
	}
}
