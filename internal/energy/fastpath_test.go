package energy

import (
	"math/rand"
	"strings"
	"testing"
)

// The fast path's only contract is bit-identity: every precomputed or fused
// charge must land on exactly the joule, cycle and counter bits the reference
// slow path produces. These tests hold the two paths against each other —
// exhaustively over the cost table, and differentially over seeded random
// access patterns and cache geometries. Float comparisons are deliberately ==,
// not within-epsilon: an epsilon would accept the drift the design forbids.

// newFastSlow builds two meters over the same cost table and cache
// geometry: the test charges fast through the public methods and slow
// through the reference forms, stepSlow and accessSlow.
func newFastSlow(costs CostTable, cache CacheConfig) (fast, slow *Meter) {
	return NewMeterCache(costs, cache), NewMeterCache(costs, cache)
}

// sameBits fails unless the two meters' samples and op counters are
// bit-identical.
func sameBits(t *testing.T, what string, fast, slow *Meter) {
	t.Helper()
	fs, ss := fast.Snapshot(), slow.Snapshot()
	if fs != ss {
		t.Fatalf("%s: fast sample %+v != slow sample %+v", what, fs, ss)
	}
	for op := 0; op < NumOps; op++ {
		if fast.OpCount(Op(op)) != slow.OpCount(Op(op)) {
			t.Fatalf("%s: op %v count fast=%d slow=%d",
				what, Op(op), fast.OpCount(Op(op)), slow.OpCount(Op(op)))
		}
	}
	fh, fm := fast.CacheStats()
	sh, sm := slow.CacheStats()
	if fh != sh || fm != sm {
		t.Fatalf("%s: cache stats fast=%d/%d slow=%d/%d", what, fh, fm, sh, sm)
	}
}

// TestStepFastSlowBitIdentity drives every op of the full cost table through
// both paths at unit and non-unit counts, accumulating across calls so any
// divergence compounds into the running sums.
func TestStepFastSlowBitIdentity(t *testing.T) {
	fast, slow := newFastSlow(DefaultCosts(), DefaultCacheConfig())
	for _, n := range []int{1, 1, 2, 3, 7, 1000, 0, -4} {
		for op := 0; op < NumOps; op++ {
			fast.Step(Op(op), n)
			slow.stepSlow(Op(op), n)
		}
		sameBits(t, "after n="+string(rune('0'+max(n, 0)%10)), fast, slow)
	}
}

// TestAccessFastSlowBitIdentity walks both paths over a mixed access pattern:
// sequential sweeps (hits), strided sweeps (misses and evictions), and
// accesses sized and placed to span line boundaries — the case the fast
// single-line check must hand back to the general path.
func TestAccessFastSlowBitIdentity(t *testing.T) {
	geometries := []CacheConfig{
		DefaultCacheConfig(),
		{SizeBytes: 24 << 10, LineBytes: 64, Ways: 8}, // 48 sets: not a power of two
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4},
	}
	for _, g := range geometries {
		fast, slow := newFastSlow(DefaultCosts(), g)
		rng := rand.New(rand.NewSource(43))
		base := fast.Alloc(1 << 16)
		if sb := slow.Alloc(1 << 16); sb != base {
			t.Fatalf("allocators diverged: %d vs %d", base, sb)
		}
		for i := 0; i < 4000; i++ {
			addr := base + uint64(rng.Intn(1<<16))
			size := []int{1, 4, 8, 8, 64, 100, 0}[rng.Intn(7)]
			fast.Access(addr, size)
			slow.accessSlow(addr, size)
		}
		sameBits(t, "random accesses", fast, slow)
	}
}

// TestFusedHelpersMatchGeneralSequence pins each flattened helper to the
// general call sequence it replaces, and to that sequence charged through
// the reference forms: the fused form must be indistinguishable from both
// expansions.
func TestFusedHelpersMatchGeneralSequence(t *testing.T) {
	fused := NewMeter(DefaultCosts())
	expanded := NewMeter(DefaultCosts())
	reference := NewMeter(DefaultCosts())
	base := fused.Alloc(4096)
	expanded.Alloc(4096)
	reference.Alloc(4096)
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 2000; i++ {
		addr := base + uint64(8*rng.Intn(512))
		var steps []Op
		switch i % 4 {
		case 0:
			fused.ArrayAccess(addr, 8)
			steps = []Op{OpArrayElem, OpBoundsCheck}
		case 1:
			// Element sizes that span lines must fall back identically.
			addr |= 61
			fused.ArrayAccess(addr, 8)
			steps = []Op{OpArrayElem, OpBoundsCheck}
		case 2:
			fused.FieldAccess(addr)
			steps = []Op{OpField}
		case 3:
			fused.StaticAccess(addr)
			steps = []Op{OpStatic}
		}
		for _, op := range steps {
			expanded.Step(op, 1)
			reference.stepSlow(op, 1)
		}
		expanded.Access(addr, 8)
		reference.accessSlow(addr, 8)
	}
	sameBits(t, "fused vs expanded", fused, expanded)
	sameBits(t, "fused vs reference", fused, reference)
}

// TestReportRowOrderDeterministic is the regression test for the unstable
// Report sort: ops with equal counts must render in op-index order, every
// time, so the report is a pure function of the counters.
func TestReportRowOrderDeterministic(t *testing.T) {
	m := NewMeter(DefaultCosts())
	// Three distinct ops, identical counts — the tie the old sort.Slice
	// comparator left to the sorter's whim.
	for _, op := range []Op{OpStatic, OpArithInt, OpLocal} {
		m.Step(op, 7)
	}
	m.Step(OpCall, 9)
	want := m.Report()
	for i := 0; i < 20; i++ {
		if got := m.Report(); got != want {
			t.Fatalf("Report changed between calls:\n%s\nvs\n%s", got, want)
		}
	}
	lines := strings.Split(strings.TrimSpace(want), "\n")
	if len(lines) != 5 {
		t.Fatalf("report = %q, want header + 4 rows", want)
	}
	// Highest count first, then the tied trio in op-index order.
	wantOrder := []Op{OpCall, OpArithInt, OpLocal, OpStatic}
	if OpArithInt > OpLocal || OpLocal > OpStatic {
		t.Fatal("test assumes OpArithInt < OpLocal < OpStatic; adjust wantOrder")
	}
	for i, op := range wantOrder {
		if !strings.Contains(lines[i+1], op.String()) {
			t.Errorf("row %d = %q, want op %v", i, lines[i+1], op)
		}
	}
}
