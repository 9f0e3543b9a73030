package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"jepo/internal/stats"
)

// probeRefMs is hostProbe's median CPU time on the host the bounds were
// calibrated on (see README.md). End-to-end times are reported at that
// host speed.
const probeRefMs = 10.0

// probeWork is one probe thread's working set, allocated once so that
// probing never makes the harness collect garbage next to a measured run.
type probeWork struct {
	buf  []byte
	ints []int
	m    map[int]int
	sink int
}

// probeWorkers run at once, one per CPU the workloads use.
var probeWorkers = [2]*probeWork{newProbeWork(), newProbeWork()}

func newProbeWork() *probeWork {
	return &probeWork{buf: make([]byte, 256<<10), ints: make([]int, 40000), m: make(map[int]int, 20000)}
}

// run times the fixed work (hashing, sorting, map updates) on one locked
// thread, in wall time and in the thread's CPU time.
func (w *probeWork) run() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	start := time.Now()
	for round := 0; round < 2; round++ {
		for i := range w.buf {
			w.buf[i] = byte(i * (7 + round))
		}
		for i := 0; i < 4; i++ {
			sum := sha256.Sum256(w.buf)
			w.sink += int(sum[0])
		}
		for i := range w.ints {
			w.ints[i] = (i * 2654435761) % (1000003 + round)
		}
		sort.Ints(w.ints)
		clear(w.m)
		for _, x := range w.ints[:20000] {
			w.m[x]++
		}
		w.sink += len(w.m)
	}
	return time.Since(start), threadCPU() - cpu0
}

// hostProbe times a fixed piece of Go work whose cost depends only on the
// host, never on the commit under test, on two threads at once. The bench
// code is the same on both sides of a comparison, so the probe tracks how
// fast the shared host is running at the moment. It returns the two
// threads' mean wall time, which grows when the hypervisor steals the CPUs,
// and mean CPU time, which grows only when the CPUs themselves run slower.
func hostProbe() (wall, cpu time.Duration) {
	var walls, cpus [len(probeWorkers)]time.Duration
	var wg sync.WaitGroup
	for i, w := range probeWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walls[i], cpus[i] = w.run()
		}()
	}
	wg.Wait()
	return (walls[0] + walls[1]) / 2, (cpus[0] + cpus[1]) / 2
}

// threadCPU is the calling thread's CPU clock. Rusage's per-thread figures
// are tick-sampled and too coarse for a probe a few milliseconds long.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// Reading a clock of the calling thread into valid memory cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// prober collects host probes, taken only while nothing measured runs.
type prober struct {
	last      time.Time
	wall, cpu []float64 // ms
}

// take runs n probes back to back.
func (p *prober) take(n int) {
	for i := 0; i < n; i++ {
		wall, cpu := hostProbe()
		p.wall = append(p.wall, ms(wall))
		p.cpu = append(p.cpu, ms(cpu))
	}
	p.last = time.Now()
}

// every probes once if interval has passed since the last probe.
func (p *prober) every(interval time.Duration) {
	if time.Since(p.last) >= interval {
		p.take(1)
	}
}

// slowdown is how much slower than the reference the host ran in wall
// time: the median probe wall time over probeRefMs. It exceeds cpuSlowdown
// by the share of the two CPUs the hypervisor took away.
func (p *prober) slowdown() float64 { return stats.Median(p.wall) / probeRefMs }

// cpuSlowdown is how much slower than the reference the CPUs ran while the
// probe had them: the median probe CPU time over probeRefMs.
func (p *prober) cpuSlowdown() float64 { return stats.Median(p.cpu) / probeRefMs }

// setTime records a time metric at the reference host speed, keeping the
// value as measured under raw_<name>. A shared host's CPUs run tens of
// percent slower or faster from one minute to the next; dividing by the
// probed CPU slowdown takes that drift out of comparisons between runs made
// at different moments. The wall-time slowdown is not used: it also counts
// CPUs taken away, which costs a one-worker run nothing and a two-worker
// run up to half its speed.
func (r *record) setTime(name, unit string, raw float64, p *prober) {
	r.Info["raw_"+name] = raw
	r.set(name, unit, raw/p.cpuSlowdown())
}

// probed records the probes and the slowdowns derived from them.
func (r *record) probed(p *prober) {
	r.Info["host_slowdown"] = p.slowdown()
	r.Info["host_cpu_slowdown"] = p.cpuSlowdown()
	r.series("probe_ms", p.wall)
	r.series("probe_cpu_ms", p.cpu)
}
