//go:build faultmatrix

package profile

import (
	"testing"

	"jepo/internal/energy"
	"jepo/internal/rapl"
)

// matrixSrc is a small instrumented workload: nested calls plus a caught
// exception, so the probe stream exercises both balanced pairs and the
// finally path under every fault mix.
const matrixSrc = `class B {
	static int leaf() {
		int s = 0;
		for (int i = 0; i < 200; i++) { s += i % 3; }
		return s;
	}
	static int boom() { throw new RuntimeException("x"); }
	static double f() {
		int s = leaf();
		try { s += boom(); } catch (RuntimeException e) { s += leaf(); }
		return s;
	}
}`

// seededFailures picks which of the first reads reads fail: each one
// independently with probability rate, and every read from the first death
// on, where a read dies with probability death. The picks come from a
// splitmix64 stream, so every failure reproduces from its seed alone.
func seededFailures(seed uint64, reads int, rate, death float64) map[int]bool {
	fail := map[int]bool{}
	dead := false
	z := seed
	draw := func() float64 {
		z += 0x9E3779B97F4A7C15
		x := z
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
		return float64(x>>11) / float64(1<<53)
	}
	for i := 0; i < reads; i++ {
		dead = dead || draw() < death
		if dead || draw() < rate {
			fail[i] = true
		}
	}
	return fail
}

// TestFaultMatrixProfiledRunsComplete fuzzes profiled interpreter runs over
// a seeded failing source: every run must complete with a full record set,
// non-negative energies and a balanced probe stream, count every failed
// read, and set Err exactly when a read failed.
func TestFaultMatrixProfiledRunsComplete(t *testing.T) {
	mixes := []struct{ rate, death float64 }{
		{rate: 0.20},
		{rate: 0.10, death: 0.04},
		{death: 0.15},
		{}, // a clean control
	}
	const reps = 6
	const reads = 2 * 4 * reps // f, leaf ×2, boom per rep; two reads each
	for mi, mx := range mixes {
		for seed := uint64(1); seed <= 25; seed++ {
			meter := energy.NewMeter(energy.DefaultCosts())
			src := &windowFailSource{inner: rapl.NewSimSource(meter), fail: seededFailures(seed, reads, mx.rate, mx.death)}
			prof := driveBench(t, src, meter, matrixSrc, reps)

			recs := prof.Records()
			if len(recs) != 4*reps {
				t.Fatalf("mix %d seed %d: records = %d, want %d", mi, seed, len(recs), 4*reps)
			}
			for i, r := range recs {
				if r.Package < 0 || r.Core < 0 || r.DRAM < 0 {
					t.Errorf("mix %d seed %d record %d went negative: %+v", mi, seed, i, r)
				}
			}
			h := prof.Health()
			if h.Enters != h.Exits || src.reads != reads {
				t.Errorf("mix %d seed %d: probes unbalanced (%d reads): %s", mi, seed, src.reads, h)
			}
			if h.UnbalancedExits != 0 || h.DroppedFrames != 0 {
				t.Errorf("mix %d seed %d: finally probes lost frames: %s", mi, seed, h)
			}
			if h.ReadErrors != src.failed {
				t.Errorf("mix %d seed %d: read errors = %d, source failed %d reads", mi, seed, h.ReadErrors, src.failed)
			}
			if (prof.Err() != nil) != (src.failed > 0) {
				t.Errorf("mix %d seed %d: Err = %v after %d failed reads", mi, seed, prof.Err(), src.failed)
			}
		}
	}
}

// TestFaultMatrixSummariesStayOrdered checks the aggregation contract under
// failing reads: summaries exist for every method and inclusive totals never
// go negative, so degraded runs still produce a usable profiler view.
func TestFaultMatrixSummariesStayOrdered(t *testing.T) {
	const reps = 4
	for seed := uint64(1); seed <= 25; seed++ {
		meter := energy.NewMeter(energy.DefaultCosts())
		src := &windowFailSource{inner: rapl.NewSimSource(meter), fail: seededFailures(seed, 2*4*reps, 0.2, 0.05)}
		prof := driveBench(t, src, meter, matrixSrc, reps)
		sums := prof.Summaries()
		if len(sums) != 3 {
			t.Fatalf("seed %d: summaries = %d, want 3 (f, leaf, boom)", seed, len(sums))
		}
		for _, s := range sums {
			if s.Package < 0 || s.Core < 0 || s.Elapsed < 0 {
				t.Errorf("seed %d: summary went negative: %+v", seed, s)
			}
			if s.Degraded > s.Executions {
				t.Errorf("seed %d: degraded count exceeds executions: %+v", seed, s)
			}
		}
		// View and ResultTxt must render without panicking on degraded data.
		_ = prof.View()
		_ = prof.ResultTxt()
	}
}
