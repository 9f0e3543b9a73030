package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"jepo/internal/core"
	"jepo/internal/sched"
)

// workSrc is a runnable program with measurable fixes (modulus masking).
const workSrc = `class Work {
	public static void main(String[] args) {
		long total = 0;
		for (int i = 0; i < 200; i++) {
			total = total + i % 8;
		}
		System.out.println(total);
	}
}`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(svc.Close)
	return svc
}

func openSession(t *testing.T, svc *Service) *Session {
	t.Helper()
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutFile("Work.java", workSrc); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionLifecycle(t *testing.T) {
	svc := newTestService(t, Config{})
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := svc.Session(s.ID()); err != nil || got != s {
		t.Fatalf("Session(%q) = %v, %v", s.ID(), got, err)
	}
	if err := s.PutFile("a/B.java", "class B { }"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFile("../escape.java", "class E { }"); err == nil {
		t.Error("PutFile accepted a path escaping the session")
	}
	if err := s.PutFile("/abs.java", "class A { }"); err == nil {
		t.Error("PutFile accepted an absolute path")
	}
	if files := s.Files(); len(files) != 1 || files[0] != "a/B.java" {
		t.Errorf("Files() = %v", files)
	}
	if err := s.DeleteFile("a/B.java"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteFile("a/B.java"); err == nil {
		t.Error("DeleteFile of a missing file succeeded")
	}
	s.Close()
	if _, err := svc.Session(s.ID()); !errors.Is(err, ErrNoSession) {
		t.Errorf("closed session still resolvable: %v", err)
	}
	if err := s.PutFile("x.java", "class X { }"); !errors.Is(err, ErrClosed) {
		t.Errorf("PutFile on closed session: %v", err)
	}
}

// TestAnalyzeMatchesCLI asserts the contract the daemon is built on: a
// session analyze renders byte-identically to the CLI path (core.Analyze +
// RenderAnalyze over the same sources).
func TestAnalyzeMatchesCLI(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	res, err := s.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(context.Background(), core.Project{"Work.java": workSrc}, core.AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want := RenderAnalyze(rep); res.Output != want {
		t.Errorf("service output diverges from CLI rendering:\n--- service ---\n%s\n--- cli ---\n%s", res.Output, want)
	}
	if !strings.Contains(res.Output, "diagnostic(s)") {
		t.Errorf("output missing summary line:\n%s", res.Output)
	}
}

// TestSessionsShareStore asserts two sessions with identical sources share
// cached artifacts: the second analyze hits the store the first one filled.
func TestSessionsShareStore(t *testing.T) {
	svc := newTestService(t, Config{})
	a := openSession(t, svc)
	if _, err := a.Analyze(context.Background(), Request{}, nil); err != nil {
		t.Fatal(err)
	}
	cold := svc.Store().Stats()
	b := openSession(t, svc)
	out2, err := b.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := svc.Store().Stats()
	if warm.Hits <= cold.Hits {
		t.Errorf("second session did not hit the shared store: cold=%+v warm=%+v", cold, warm)
	}
	out1, err := a.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Output != out2.Output {
		t.Error("identical sessions produced different outputs")
	}
}

// TestEvents asserts the progress stream's shape: queued, running, then a
// telemetry event and done, with monotonically increasing sequence numbers.
func TestEvents(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	var events []Event
	if _, err := s.Analyze(context.Background(), Request{}, func(ev Event) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want >= 3: %v", len(events), events)
	}
	if events[0].Stage != "queued" || events[1].Stage != "running" {
		t.Errorf("event prefix = %s, %s; want queued, running", events[0].Stage, events[1].Stage)
	}
	if last := events[len(events)-1]; last.Stage != "done" {
		t.Errorf("final event = %v, want done", last)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestOpBudget asserts a starved per-request budget fails the request and
// does NOT poison the shared store: the same request at a workable budget
// succeeds afterwards.
func TestOpBudget(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	if _, err := s.Analyze(context.Background(), Request{MaxOps: 10}, nil); err != nil {
		t.Fatalf("tiny budget must not error the analyze itself (it marks the program non-runnable): %v", err)
	}
	res, err := s.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Executable {
		t.Errorf("default-budget analyze inherited the starved verdict: %s", res.Report.ExecNote)
	}
}

// TestProfileBudget asserts the op budget flows into profile runs.
func TestProfileBudget(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	if _, err := s.Profile(context.Background(), Request{MaxOps: 10}, nil); err == nil {
		t.Fatal("profile under a 10-op budget succeeded")
	}
	res, err := s.Profile(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTxt == "" {
		t.Error("profile returned no result.txt content")
	}
	if !strings.Contains(res.Output, "measurement health:") {
		t.Errorf("profile output missing health line:\n%s", res.Output)
	}
}

// mixedSrc is a program the VM runs partly on the tree-walker: risky and
// guard hold try/catch, which has no bytecode lowering, while plain and boom
// compile. boom's exception unwinds a compiled frame into a walker frame.
const mixedSrc = `class Demo {
	static int risky(int n) {
		int s = 0;
		try {
			for (int i = 0; i < n; i++) {
				if (i > 1000) { throw new RuntimeException("past 1000"); }
				s += i % 7;
			}
		} catch (RuntimeException e) {
			s = -s;
		}
		return s;
	}
	static int plain(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s += i % 5; }
		return s;
	}
	static int boom(int n) {
		if (n > 0) { throw new IllegalStateException("boom " + n); }
		return n;
	}
	static int guard(int n) {
		try { return boom(n); } catch (IllegalStateException e) { return -1; }
	}
	public static void main(String[] args) {
		int a = risky(500) + risky(2000);
		int b = plain(800);
		int c = guard(3) + guard(0);
		System.out.println(a + " " + b + " " + c);
	}
}`

// TestProfileIdenticalAcrossEngines pins that the profiler's view and
// result.txt do not depend on the engine, for a program whose methods the
// VM splits between bytecode and the walker: probes are method labels both
// engines fire at the same points, and they charge nothing on either.
func TestProfileIdenticalAcrossEngines(t *testing.T) {
	svc := newTestService(t, Config{})
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutFile("Demo.java", mixedSrc); err != nil {
		t.Fatal(err)
	}
	vm, err := s.Profile(context.Background(), Request{Engine: "vm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ast, err := s.Profile(context.Background(), Request{Engine: "ast"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Output != ast.Output {
		t.Errorf("profile output differs across engines:\nvm:\n%s\nast:\n%s", vm.Output, ast.Output)
	}
	if vm.ResultTxt != ast.ResultTxt {
		t.Errorf("result.txt differs across engines:\nvm:\n%s\nast:\n%s", vm.ResultTxt, ast.ResultTxt)
	}
	for _, want := range []string{"Demo.risky", "Demo.plain", "Demo.boom", "Demo.guard",
		"probes: enters=8 exits=8 read_errors=0 unbalanced_exits=0"} {
		if !strings.Contains(vm.Output, want) {
			t.Errorf("profile output missing %q:\n%s", want, vm.Output)
		}
	}
}

// spinSrc never ends on its own: only an op budget or the context stops it.
const spinSrc = `class Spin {
	public static void main(String[] args) {
		int i = 0;
		while (true) {
			i = i + 1;
		}
	}
}`

func openSpinSession(t *testing.T, svc *Service) *Session {
	t.Helper()
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutFile("Spin.java", spinSrc); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRequestBudgetClampedToServiceCeiling asserts a client cannot raise its
// op budget past the service's: the loop ends at the service's 100000 ops,
// not when the deadline cuts an effectively unlimited run short.
func TestRequestBudgetClampedToServiceCeiling(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	svc := newTestService(t, Config{MaxOps: 100_000})
	s := openSpinSession(t, svc)
	_, err := s.Profile(ctx, Request{MaxOps: 1 << 62}, nil)
	if err == nil || !strings.Contains(err.Error(), "op budget of 100000 exceeded") {
		t.Fatalf("profile with max_ops 1<<62 returned %v, want the service's 100000-op budget error", err)
	}
}

// TestNegativeRequestLimitsRejected asserts a negative max_ops or jobs fails
// in resolve, before the request is queued or anything runs; the
// interpreter would read a negative budget as no budget at all.
func TestNegativeRequestLimitsRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	svc := newTestService(t, Config{MaxOps: 100_000})
	s := openSpinSession(t, svc)
	for _, req := range []Request{{MaxOps: -1}, {Jobs: -1}} {
		var events []Event
		_, err := s.Profile(ctx, req, func(ev Event) { events = append(events, ev) })
		if err == nil || ctx.Err() != nil {
			t.Fatalf("request %+v returned %v (context: %v), want an immediate rejection", req, err, ctx.Err())
		}
		if len(events) != 0 {
			t.Errorf("request %+v was admitted before failing: %+v", req, events)
		}
	}
}

// TestRequestJobsClampedToServiceWidth asserts a client cannot widen the
// pool past the service's Jobs: Table II has 10 rows, so an unclamped
// request for 64 runs 10 wide.
func TestRequestJobsClampedToServiceWidth(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	svc := newTestService(t, Config{Jobs: 2})
	var telemetry []string
	_, err := svc.Table(ctx, 2, DefaultTableSeed, Request{Jobs: 64}, func(ev Event) {
		if ev.Stage == "telemetry" {
			telemetry = append(telemetry, ev.Message)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(telemetry) != 1 || !strings.Contains(telemetry[0], "jobs=2 ") {
		t.Errorf("telemetry %q, want one event reporting jobs=2", telemetry)
	}
}

func TestOptimize(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	res, err := s.Optimize(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changes == 0 {
		t.Error("optimize applied no changes to a program with a modulus-power-of-two loop")
	}
	if !strings.Contains(res.Output, "applied") {
		t.Errorf("output missing summary:\n%s", res.Output)
	}
	// The session's own files must be untouched.
	if files := s.Files(); len(files) != 1 {
		t.Errorf("optimize mutated the session file set: %v", files)
	}
}

// TestAdmissionShedsWhenSaturated asserts the gate's shed path: with one
// slot held and no queue, a second request fails fast with ErrSaturated.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: 0})
	s := openSession(t, svc)

	release, err := svc.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Analyze(context.Background(), Request{}, nil)
	release()
	if !errors.Is(err, sched.ErrSaturated) {
		t.Fatalf("saturated gate returned %v, want ErrSaturated", err)
	}
	// With the slot free again the same request succeeds.
	if _, err := s.Analyze(context.Background(), Request{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionQueues asserts a queued request waits for the slot instead
// of shedding, and runs once the holder releases.
func TestAdmissionQueues(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: 4})
	s := openSession(t, svc)

	release, err := svc.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	queued := make(chan struct{})
	var res *AnalyzeResult
	var aerr error
	go func() {
		defer wg.Done()
		res, aerr = s.Analyze(context.Background(), Request{}, func(ev Event) {
			if ev.Stage == "queued" {
				close(queued)
			}
		})
	}()
	<-queued
	// Give the goroutine time to reach the gate, then free the slot.
	time.Sleep(10 * time.Millisecond)
	release()
	wg.Wait()
	if aerr != nil {
		t.Fatal(aerr)
	}
	if res == nil || res.Output == "" {
		t.Fatal("queued request produced no output")
	}
	if st := svc.GateStats(); st.Waited == 0 {
		t.Errorf("gate stats recorded no waiter: %+v", st)
	}
}

// TestCancelQueuedRequest asserts cancelling a queued request's context
// unblocks it with the context error and leaves the gate consistent.
func TestCancelQueuedRequest(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: 4})
	s := openSession(t, svc)

	release, err := svc.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, aerr := s.Analyze(ctx, Request{}, nil)
		done <- aerr
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case aerr := <-done:
		if !errors.Is(aerr, context.Canceled) {
			t.Fatalf("cancelled queued request returned %v", aerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued request never returned")
	}
	if st := svc.GateStats(); st.Queued != 0 {
		t.Errorf("cancelled waiter still counted as queued: %+v", st)
	}
}

// TestCancelRunningRequest asserts cancelling mid-analysis aborts the
// interpreter loop and the session stays usable.
func TestCancelRunningRequest(t *testing.T) {
	svc := newTestService(t, Config{})
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	// A long loop so cancellation lands mid-interpretation.
	if err := s.PutFile("Spin.java", `class Spin {
	public static void main(String[] args) {
		long total = 0;
		for (int i = 0; i < 100000000; i++) {
			total = total + i % 7;
		}
		System.out.println(total);
	}
}`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, aerr := s.Analyze(ctx, Request{}, nil)
		done <- aerr
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case aerr := <-done:
		if !errors.Is(aerr, context.Canceled) {
			t.Fatalf("cancelled analyze returned %v, want context.Canceled", aerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled analyze never returned")
	}
	// The session — and the shared store — survive the cancellation: the
	// next request returns a report, not an error. A small budget keeps the
	// follow-up from spinning the whole loop; it ends the run in an op-budget
	// note instead.
	res, err := s.Analyze(context.Background(), Request{MaxOps: 100_000}, nil)
	if err != nil {
		t.Fatalf("session unusable after a cancelled request: %v", err)
	}
	if res.Report.Executable || !strings.Contains(res.Report.ExecNote, "op budget of 100000 exceeded") {
		t.Errorf("follow-up report: executable=%v, note %q; want the op-budget note",
			res.Report.Executable, res.Report.ExecNote)
	}
}

func TestTables(t *testing.T) {
	svc := newTestService(t, Config{})
	res, err := svc.Table(context.Background(), 2, DefaultTableSeed, Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Output, "=== Table II: WEKA classifier metrics ===\n") {
		t.Errorf("table 2 output missing header:\n%.80s", res.Output)
	}
	if _, err := svc.Table(context.Background(), 9, 0, Request{}, nil); err == nil {
		t.Error("unknown table number accepted")
	}
}

func TestServiceClose(t *testing.T) {
	svc := New(Config{})
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.CreateSession(); !errors.Is(err, ErrClosed) {
		t.Errorf("CreateSession after Close: %v", err)
	}
	if err := s.PutFile("x.java", "class X { }"); !errors.Is(err, ErrClosed) {
		t.Errorf("PutFile after service Close: %v", err)
	}
}
