package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"jepo/internal/stats"
)

// The serve workload: independent users, so an open loop at a fixed rate.
// The rate is about a third of the daemon's measured capacity on two CPUs,
// so latency reflects the request path rather than a queue that grows.
const (
	serveSessions = 8
	serveRate     = 30 // requests per second
	serveConns    = 2  // generator connections, matching the daemon's two slots
	servePath     = "EnergyDemo.java"
	serveExample  = "examples/java/EnergyDemo.java"
)

// serveReq is one scheduled request. Expect holds the daemon's response
// once the run has made it, for the tracer's replay.
type serveReq struct {
	Kind    string `json:"kind"` // read | edit | profile
	Session int    `json:"session"`
	Source  string `json:"source,omitempty"` // edit: the variant uploaded
	Expect  string `json:"expect,omitempty"`
}

// servePlan is everything a serve run sends; it derives from the seed alone.
type servePlan struct {
	Path     string     `json:"path"`
	Initial  []string   `json:"initial"`
	Warm     []string   `json:"warm,omitempty"` // each session's first analyze response
	Requests []serveReq `json:"requests"`
}

// The request mix: 65% reads (analyze an unchanged session: the store-hit
// path), 25% edits (upload a fresh variant, then analyze: the cold
// pipeline), 10% profiles.
func newServePlan(base string, seed uint64, n int) (*servePlan, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6a65706f))
	used := map[string]bool{base: true}
	fresh := func() (string, error) {
		for try := 0; try < 100; try++ {
			v, err := variant(base, rng)
			if err != nil {
				return "", err
			}
			if !used[v] {
				used[v] = true
				return v, nil
			}
		}
		return "", errors.New("no unused source variant in 100 draws")
	}
	p := &servePlan{Path: servePath}
	for i := 0; i < serveSessions; i++ {
		v, err := fresh()
		if err != nil {
			return nil, err
		}
		p.Initial = append(p.Initial, v)
	}
	// Exact proportions in a seeded order: every seed asks for the same
	// amount of each kind of work.
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i < n*65/100:
			kinds[i] = "read"
		case i < n*90/100:
			kinds[i] = "edit"
		default:
			kinds[i] = "profile"
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, kind := range kinds {
		r := serveReq{Kind: kind, Session: rng.IntN(serveSessions)}
		if kind == "edit" {
			v, err := fresh()
			if err != nil {
				return nil, err
			}
			r.Source = v
		}
		p.Requests = append(p.Requests, r)
	}
	return p, nil
}

var intArg = regexp.MustCompile(`\b(\w+)\((\d+)\)`)

// variant rewrites every single-integer call argument of the example (for
// EnergyDemo: the workload sizes main passes) to a value up to about 10%
// larger. Work per request stays close to the original while every variant
// has its own output, so a stale cached response cannot pass as fresh.
func variant(base string, rng *rand.Rand) (string, error) {
	if !intArg.MatchString(base) {
		return "", fmt.Errorf("%s has no integer call argument to vary", serveExample)
	}
	return intArg.ReplaceAllStringFunc(base, func(call string) string {
		m := intArg.FindStringSubmatch(call)
		n, _ := strconv.Atoi(m[2])
		return fmt.Sprintf("%s(%d)", m[1], n+rng.IntN(n/10+2))
	}), nil
}

// daemon is one jepod process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has exited and been reaped
	errLog string
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts jepod and returns once it answers HTTP. A port taken
// between choosing and binding it costs a retry on another port.
func startDaemon(ctx context.Context, e *env, dir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		errLog := filepath.Join(dir, "jepod.err")
		f, err := os.Create(errLog)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(e.jepod, "-addr", addr, "-slots", strconv.Itoa(serveConns), "-jobs", "2")
		cmd.Dir = dir
		cmd.Env = childEnv()
		cmd.Stderr = f
		err = cmd.Start()
		f.Close() // the child holds its own descriptor
		if err != nil {
			return nil, err
		}
		d := &daemon{
			cmd:  cmd,
			base: "http://" + addr,
			client: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     serveConns,
				MaxIdleConnsPerHost: serveConns,
				DisableCompression:  true,
			}},
			exited: make(chan struct{}),
			errLog: errLog,
		}
		go func() {
			cmd.Wait()
			close(d.exited)
		}()
		if lastErr = d.waitReady(ctx); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, fmt.Errorf("jepod did not start: %w", lastErr)
}

func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			b, _ := os.ReadFile(d.errLog)
			return fmt.Errorf("jepod exited: %s", tail(string(b)))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if status, _, err := d.call(ctx, "GET", "/v1/stats", ""); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("jepod not answering after 10s")
}

// stop sends SIGTERM, waits for the drain (killing the process after ten
// seconds) and returns its resource usage. It is safe to call twice.
func (d *daemon) stop() *syscall.Rusage {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.client.CloseIdleConnections()
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// call sends one plain request and returns the status and body.
func (d *daemon) call(ctx context.Context, method, path, body string) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// sseTimes are the client-side arrival times of a request's progress events.
type sseTimes struct {
	queued, running, done time.Time
}

// callSSE posts a streaming request and returns the result's output and the
// arrival times of its queued, running and done events.
func (d *daemon) callSSE(ctx context.Context, path string) (string, sseTimes, error) {
	var t sseTimes
	req, err := http.NewRequestWithContext(ctx, "POST", d.base+path, nil)
	if err != nil {
		return "", t, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := d.client.Do(req)
	if err != nil {
		return "", t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return "", t, fmt.Errorf("POST %s: %s: %s", path, resp.Status, tail(string(b)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		switch event {
		case "progress":
			var ev struct {
				Stage string `json:"stage"`
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return "", t, fmt.Errorf("progress event: %w", err)
			}
			switch ev.Stage {
			case "queued":
				t.queued = now
			case "running":
				t.running = now
			case "done":
				t.done = now
			}
		case "result":
			var res struct {
				Output string `json:"output"`
			}
			if err := json.Unmarshal([]byte(data), &res); err != nil {
				return "", t, fmt.Errorf("result event: %w", err)
			}
			if t.queued.IsZero() || t.running.IsZero() || t.done.IsZero() {
				return "", t, errors.New("result arrived before its queued/running/done events")
			}
			return res.Output, t, nil
		case "error":
			return "", t, fmt.Errorf("POST %s: %s", path, data)
		}
	}
	if err := sc.Err(); err != nil {
		return "", t, err
	}
	return "", t, errors.New("event stream ended without a result")
}

// daemonStats is the part of GET /v1/stats the benchmark reads.
type daemonStats struct {
	hits, misses, rejected float64
}

func (d *daemon) stats(ctx context.Context) (daemonStats, error) {
	var s daemonStats
	status, body, err := d.call(ctx, "GET", "/v1/stats", "")
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	var v struct {
		Cache string `json:"cache"`
		Gate  struct {
			Rejected int `json:"rejected"`
		} `json:"gate"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		return s, fmt.Errorf("GET /v1/stats: %w", err)
	}
	m := cacheLine.FindStringSubmatch(v.Cache)
	if m == nil {
		return s, fmt.Errorf("GET /v1/stats: cache field %q", v.Cache)
	}
	s.hits, _ = strconv.ParseFloat(m[1], 64)
	s.misses, _ = strconv.ParseFloat(m[2], 64)
	s.rejected = float64(v.Gate.Rejected)
	return s, nil
}

// procCPU is a live process's user+system CPU time, from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	// fields[0] is field 3 of proc(5); utime and stime are fields 14 and 15,
	// in USER_HZ ticks, which are 100 per second on every Linux Go runs on.
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// serveState tracks what each session's responses must be. Requests of one
// session run one at a time and in schedule order (see generate), so the
// per-session slices need no lock; profile outputs are shared by content
// across sessions and take mu.
type serveState struct {
	plan   *servePlan
	ids    []string
	source []string // current source of each session
	expect []string // last analyze response of each session

	mu       sync.Mutex
	profiles map[string]string // source -> profile response
}

func newServeState(plan *servePlan, ids, warm []string) *serveState {
	return &serveState{
		plan:     plan,
		ids:      ids,
		source:   append([]string(nil), plan.Initial...),
		expect:   append([]string(nil), warm...),
		profiles: make(map[string]string),
	}
}

// check compares a response with what the session's history says it must
// be, and records what later responses must match: a read must equal the
// last analyze response for the session's content, and a profile must equal
// any earlier profile of the same source.
func (st *serveState) check(r serveReq, body string) error {
	switch r.Kind {
	case "read":
		if body != st.expect[r.Session] {
			return fmt.Errorf("read of session %d differs from the last response for its content", r.Session)
		}
	case "edit":
		st.source[r.Session] = r.Source
		st.expect[r.Session] = body
	case "profile":
		st.mu.Lock()
		defer st.mu.Unlock()
		src := st.source[r.Session]
		if prev, ok := st.profiles[src]; ok && prev != body {
			return fmt.Errorf("profile of session %d differs from an earlier profile of the same source", r.Session)
		}
		st.profiles[src] = body
	}
	return nil
}

// outcome is one request's result.
type outcome struct {
	latency     time.Duration // from the due time to the last response byte
	total       time.Duration // from sending to the last response byte
	queue, exec time.Duration // traced runs: from the SSE event arrival times
	body        string
	err         error // transport failure, error status or shed request
	mismatch    error // a response that fails check
}

func (st *serveState) do(ctx context.Context, d *daemon, r serveReq, due time.Time, sse bool) outcome {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var o outcome
	sent := time.Now()
	finish := func() outcome {
		end := time.Now()
		o.latency, o.total = end.Sub(due), end.Sub(sent)
		return o
	}
	session := "/v1/sessions/" + st.ids[r.Session]
	if r.Kind == "edit" {
		status, body, err := d.call(ctx, "PUT", session+"/files/"+servePath, r.Source)
		if err == nil && status != http.StatusNoContent {
			err = fmt.Errorf("PUT: status %d: %s", status, tail(body))
		}
		if err != nil {
			o.err = err
			return finish()
		}
	}
	path := session + "/analyze"
	if r.Kind == "profile" {
		path = session + "/profile"
	}
	if sse {
		var t sseTimes
		o.body, t, o.err = d.callSSE(ctx, path)
		o.queue, o.exec = t.running.Sub(t.queued), t.done.Sub(t.running)
	} else {
		var status int
		status, o.body, o.err = d.call(ctx, "POST", path, "")
		if o.err == nil && status != http.StatusOK {
			o.err = fmt.Errorf("POST %s: status %d: %s", path, status, tail(o.body))
		}
	}
	o = finish()
	if o.err == nil {
		o.mismatch = st.check(r, o.body)
	}
	return o
}

// generate sends the plan's requests on schedule: request i is due i/rate
// seconds after the start, whatever happened to earlier ones. Two workers
// hold the connections; a request waits for a free worker, and for its
// session's previous request, and that wait counts in its latency. It
// returns each request's outcome and how late the generator's own timer
// woke, the lag that is the generator's fault rather than the daemon's.
func (st *serveState) generate(ctx context.Context, d *daemon, sse bool) ([]outcome, time.Duration) {
	reqs := st.plan.Requests
	outs := make([]outcome, len(reqs))
	type job struct {
		i          int
		due        time.Time
		prev, done chan struct{}
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j.prev != nil {
					<-j.prev
				}
				outs[j.i] = st.do(ctx, d, reqs[j.i], j.due, sse)
				close(j.done)
			}
		}()
	}
	interval := time.Second / serveRate
	last := make([]chan struct{}, serveSessions)
	var late time.Duration
	start := time.Now()
dispatch:
	for i, r := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
			late = max(late, time.Since(due))
		}
		done := make(chan struct{})
		select {
		case jobs <- job{i: i, due: due, prev: last[r.Session], done: done}:
		case <-ctx.Done():
			break dispatch
		}
		last[r.Session] = done
	}
	close(jobs)
	wg.Wait()
	return outs, late
}

// setUp starts a daemon, opens the sessions, uploads each session's first
// source and analyzes it once. It returns the session IDs and those first
// responses.
func setUp(ctx context.Context, e *env, dir string, plan *servePlan) (*daemon, []string, []string, error) {
	d, err := startDaemon(ctx, e, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var ids, warm []string
	for _, src := range plan.Initial {
		status, body, err := d.call(ctx, "POST", "/v1/sessions", "")
		var v struct {
			ID string `json:"id"`
		}
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = json.Unmarshal([]byte(body), &v)
		}
		if err != nil {
			d.stop()
			return nil, nil, nil, fmt.Errorf("create session: %w", err)
		}
		session := "/v1/sessions/" + v.ID
		if status, _, err = d.call(ctx, "PUT", session+"/files/"+servePath, src); err == nil && status != http.StatusNoContent {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			status, body, err = d.call(ctx, "POST", session+"/analyze", "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, tail(body))
			}
		}
		if err != nil {
			d.stop()
			return nil, nil, nil, fmt.Errorf("session %s set-up: %w", v.ID, err)
		}
		ids = append(ids, v.ID)
		warm = append(warm, body)
	}
	return d, ids, warm, nil
}

// serveAttempts bounds how often a serve run measures its window: a window
// in which the generator's own timer woke more than one interval late was
// distorted by a host stall, not by the daemon, and is measured again.
const serveAttempts = 3

// runServe measures jepod under the open-loop request mix.
func runServe(ctx context.Context, e *env, seed uint64, seconds int, traced bool) (*record, error) {
	dir, err := e.scratch("serve")
	if err != nil {
		return nil, err
	}
	base, err := os.ReadFile(filepath.Join(e.root, serveExample))
	if err != nil {
		return nil, err
	}
	interval := time.Second / serveRate
	var discarded *record
	for attempt := 1; ; attempt++ {
		plan, err := newServePlan(string(base), seed, serveRate*seconds)
		if err != nil {
			return nil, err
		}
		rec, late, err := measureServe(ctx, e, dir, plan, seed, seconds, traced)
		if err != nil {
			return nil, err
		}
		if discarded != nil {
			rec.Attempted += discarded.Attempted
			rec.Failed += discarded.Failed
			rec.Correct = rec.Correct && discarded.Correct
			rec.Notes = append(discarded.Notes, rec.Notes...)
		}
		if late > interval && attempt < serveAttempts {
			rec.note("window %d discarded: the generator woke %v late, more than one %v interval", attempt, late, interval)
			discarded = rec
			continue
		}
		if late > interval {
			rec.wrong("the generator woke %v late, more than one %v interval, in %d windows: host stalls distort the schedule", late, interval, attempt)
		}
		if !traced {
			return rec, nil
		}
		replay := filepath.Join(dir, "replay.json")
		b, err := json.Marshal(plan)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(replay, b, 0o644); err != nil {
			return nil, err
		}
		return rec, runTracer(ctx, e, rec, dir, "-workload", "serve", "-replay", replay, "-seconds", strconv.Itoa(seconds))
	}
}

// measureServe sets up (start, sessions, first analyses) setupReps times on
// fresh daemons, drives the last one through the window, and checks every
// response. It returns how late the generator's own timer woke at worst.
func measureServe(ctx context.Context, e *env, dir string, plan *servePlan, seed uint64, seconds int, traced bool) (*record, time.Duration, error) {
	rec := newRecord("serve", seed, seconds, traced)
	var d *daemon
	var ids []string
	var setups []float64
	var probe prober
	var err error
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		probe.take(2)
		start := time.Now()
		var warm []string
		d, ids, warm, err = setUp(ctx, e, dir, plan)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if plan.Warm == nil {
			plan.Warm = warm
		} else if strings.Join(warm, "\x00") != strings.Join(plan.Warm, "\x00") {
			rec.wrong("set-up %d: first analyze responses differ from set-up 1", i+1)
		}
	}
	defer d.stop()
	rec.series("setup_s", setups)

	st := newServeState(plan, ids, plan.Warm)
	before, err := d.stats(ctx)
	if err != nil {
		return nil, 0, err
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, 0, err
	}
	// The host is probed around the window, never during it: a probe would
	// compete with the daemon for the CPUs.
	probe.take(10)
	outs, late := st.generate(ctx, d, traced)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, 0, err
	}
	probe.take(10)
	rec.setTime("setup_s", "s", stats.Median(setups), &probe)
	rec.probed(&probe)
	after, err := d.stats(ctx)
	if err != nil {
		return nil, 0, err
	}

	rec.Info["late_ms_max"] = ms(late)
	var all []float64
	byKind := map[string][]float64{}
	var queue, exec, total time.Duration
	svc := map[string][]float64{} // per-request service times, from SSE events
	h := sha256.New()
	for i, o := range outs {
		rec.Attempted++
		r := &plan.Requests[i]
		if o.err != nil {
			rec.Failed++
			if rec.Failed <= 3 {
				rec.note("request %d (%s): %v", i, r.Kind, o.err)
			}
			continue
		}
		if o.mismatch != nil {
			rec.wrong("request %d: %v", i, o.mismatch)
		}
		r.Expect = o.body
		io.WriteString(h, o.body)
		all = append(all, ms(o.latency))
		byKind[r.Kind] = append(byKind[r.Kind], ms(o.latency))
		if traced {
			queue += o.queue
			exec += o.exec
			total += o.total
			svc["queue"] = append(svc["queue"], ms(o.queue))
			svc[r.Kind+"_exec"] = append(svc[r.Kind+"_exec"], ms(o.exec))
			svc["transport"] = append(svc["transport"], ms(o.total-o.queue-o.exec))
		}
	}
	rec.OutputSHA = hex.EncodeToString(h.Sum(nil))
	if len(all) == 0 {
		return nil, 0, errors.New("no request succeeded")
	}
	for _, k := range []string{"read", "edit", "profile"} {
		rec.Info["raw_"+k+"_p50_ms"] = percentile(byKind[k], 50)
	}
	rec.Info["raw_latency_p90_ms"] = percentile(all, 90)
	rec.Info["raw_latency_p99_ms"] = percentile(all, 99)
	rec.series("latency_ms", all)

	// Each session's final source, analyzed by the CLI, must reproduce the
	// daemon's last response for it byte for byte.
	for i, src := range st.source {
		sdir := filepath.Join(dir, fmt.Sprintf("session%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, 0, err
		}
		if err := os.WriteFile(filepath.Join(sdir, servePath), []byte(src), 0o644); err != nil {
			return nil, 0, err
		}
		p, err := runProc(ctx, sdir, e.jepo, "analyze", servePath)
		if err != nil {
			return nil, 0, err
		}
		if string(p.stdout) != st.expect[i] {
			rec.wrong("session %d: the daemon's analyze response differs from jepo analyze on the same source", i)
		}
	}

	ru := d.stop()
	if ru == nil {
		return nil, 0, errors.New("no resource usage for jepod")
	}
	if !d.cmd.ProcessState.Success() {
		rec.wrong("jepod did not shut down cleanly: %v", d.cmd.ProcessState)
	}
	if !traced {
		// A read is a millisecond of loopback round trip, wake-ups and a
		// little CPU work, so the probe's CPU slowdown does not scale it: on
		// the calibration runs dividing by it tripled the read median's
		// spread. It is reported as measured.
		rec.set("latency_p50_ms", "ms", percentile(byKind["read"], 50))
		rec.setTime("cpu_ms_per_op", "ms", ms(cpu1-cpu0)/float64(len(outs)), &probe)
		rec.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024)
		return rec, late, nil
	}

	n := float64(len(outs))
	setEngine(rec, (after.hits-before.hits)/n, (after.misses-before.misses)/n)
	rec.set("service.rejected", "count", after.rejected-before.rejected)
	share := func(d time.Duration) float64 { return float64(d) / float64(total) }
	rec.set("service.queue_share", "frac", share(queue))
	rec.set("service.exec_share", "frac", share(exec))
	rec.set("service.transport_share", "frac", share(total-queue-exec))
	for name, xs := range svc {
		rec.Info["service_"+name+"_ms_p50"] = percentile(xs, 50)
	}
	rec.set("loadgen.late_frac", "frac", float64(late)/float64(time.Second/serveRate))
	rec.set("sched.tasks", "count", 0)
	rec.set("sched.util", "frac", 0)
	rec.set("sched.straggler_frac", "frac", 0)

	return rec, late, nil
}
