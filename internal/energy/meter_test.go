package energy

import (
	"math/rand"
	"strings"
	"testing"
)

// The meter's contract is that a sample is a pure function of its counts:
// per-op counts, cache hits and cache misses. These tests hold the charging
// lanes against each other on those counts and on the sample bits, check
// that charge order between reads cannot move a bit, and re-price the
// counts independently. Float comparisons are deliberately ==, not
// within-epsilon: an epsilon would accept the drift the design forbids.

// sameBits fails unless the two meters' samples, op counters and cache
// stats are bit-identical.
func sameBits(t *testing.T, what string, a, b *Meter) {
	t.Helper()
	as, bs := a.Snapshot(), b.Snapshot()
	if as != bs {
		t.Fatalf("%s: sample %+v != %+v", what, as, bs)
	}
	for op := 0; op < NumOps; op++ {
		if a.OpCount(Op(op)) != b.OpCount(Op(op)) {
			t.Fatalf("%s: op %v count %d != %d", what, Op(op), a.OpCount(Op(op)), b.OpCount(Op(op)))
		}
	}
	ah, am := a.CacheStats()
	bh, bm := b.CacheStats()
	if ah != bh || am != bm {
		t.Fatalf("%s: cache stats %d/%d != %d/%d", what, ah, am, bh, bm)
	}
}

// TestAccessFastSlowBitIdentity walks the meter's Access, whose single-line
// lane touches the line directly, and the cache model's general Cache.Access
// over the same mixed pattern: sequential sweeps (hits), strided sweeps
// (misses and evictions), and accesses sized and placed to span line
// boundaries — the case the single-line check must hand to the general path.
func TestAccessFastSlowBitIdentity(t *testing.T) {
	geometries := []CacheConfig{
		DefaultCacheConfig(),
		{SizeBytes: 24 << 10, LineBytes: 64, Ways: 8}, // 48 sets: not a power of two
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4},
	}
	for _, g := range geometries {
		lane, general := NewMeterCache(DefaultCosts(), g), NewMeterCache(DefaultCosts(), g)
		rng := rand.New(rand.NewSource(43))
		base := lane.Alloc(1 << 16)
		if gb := general.Alloc(1 << 16); gb != base {
			t.Fatalf("allocators diverged: %d vs %d", base, gb)
		}
		for i := 0; i < 4000; i++ {
			addr := base + uint64(rng.Intn(1<<16))
			size := []int{1, 4, 8, 8, 64, 100, 0}[rng.Intn(7)]
			lane.Access(addr, size)
			general.cache.Access(addr, size)
		}
		sameBits(t, "random accesses", lane, general)
	}
}

// TestFusedHelpersMatchGeneralSequence pins each flattened helper to the
// Step+Access sequence it replaces, after every call.
func TestFusedHelpersMatchGeneralSequence(t *testing.T) {
	fused := NewMeter(DefaultCosts())
	expanded := NewMeter(DefaultCosts())
	base := fused.Alloc(4096)
	expanded.Alloc(4096)
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 2000; i++ {
		addr := base + uint64(8*rng.Intn(512))
		var helper string
		var steps []Op
		switch i % 4 {
		case 0:
			fused.ArrayAccess(addr, 8)
			helper, steps = "ArrayAccess", []Op{OpArrayElem, OpBoundsCheck}
		case 1:
			// Element sizes that span lines must take the general path.
			addr |= 61
			fused.ArrayAccess(addr, 8)
			helper, steps = "ArrayAccess spanning", []Op{OpArrayElem, OpBoundsCheck}
		case 2:
			fused.FieldAccess(addr)
			helper, steps = "FieldAccess", []Op{OpField}
		case 3:
			fused.StaticAccess(addr)
			helper, steps = "StaticAccess", []Op{OpStatic}
		}
		for _, op := range steps {
			expanded.Step(op, 1)
		}
		expanded.Access(addr, 8)
		sameBits(t, helper, fused, expanded)
	}
}

// charge is one Step call.
type charge struct {
	op Op
	n  int
}

// randomCharges draws a seeded sequence of Step calls over every op, mostly
// unit counts as the dispatch loop issues them.
func randomCharges(rng *rand.Rand, count int) []charge {
	cs := make([]charge, count)
	for i := range cs {
		cs[i] = charge{Op(rng.Intn(NumOps)), []int{1, 1, 1, 1, 2, 3, 17, 1000}[rng.Intn(8)]}
	}
	return cs
}

// TestSnapshotIndependentOfChargeOrder charges one multiset of Steps in two
// shuffled orders, interleaved with the same access sequence, and requires
// identical sample bits: a charge reordered between two reads must not move
// a bit.
func TestSnapshotIndependentOfChargeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	charges := randomCharges(rng, 5000)
	shuffled := append([]charge(nil), charges...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	addrs := make([]uint64, len(charges))
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 18))
	}
	run := func(cs []charge) *Meter {
		m := NewMeter(DefaultCosts())
		base := m.Alloc(1 << 18)
		for i, c := range cs {
			m.Step(c.op, c.n)
			m.Access(base+addrs[i], 4)
		}
		return m
	}
	sameBits(t, "shuffled charges", run(charges), run(shuffled))
}

// TestSnapshotPricesCountsExactly re-prices a random run's counts under the
// default table in uint64 picojoules: every default picojoule cost is an
// integer, so core energy must be exactly that sum, converted once.
func TestSnapshotPricesCountsExactly(t *testing.T) {
	costs := DefaultCosts()
	pj := func(c Cost) uint64 {
		p := uint64(c.Picojoules)
		if float64(p) != c.Picojoules {
			t.Fatalf("default cost %v pJ is not an integer", c.Picojoules)
		}
		return p
	}
	m := NewMeter(costs)
	rng := rand.New(rand.NewSource(67))
	base := m.Alloc(1 << 18)
	for _, c := range randomCharges(rng, 20000) {
		m.Step(c.op, c.n)
		m.Access(base+uint64(rng.Intn(1<<18)), []int{1, 4, 8, 100}[rng.Intn(4)])
	}
	var sum uint64
	for op := 0; op < NumOps; op++ {
		sum += pj(costs.Ops[op]) * m.OpCount(Op(op))
	}
	hits, misses := m.CacheStats()
	sum += pj(costs.CacheHit)*hits + pj(costs.CacheMiss)*misses
	s := m.Snapshot()
	if want := Picojoules(float64(sum)); s.Core != want {
		t.Errorf("core = %v (%b), want %v (%b) from %d pJ", s.Core, float64(s.Core), want, float64(want), sum)
	}
	if want := Joules(costs.DRAMJoulesPerMiss * float64(misses)); s.DRAM != want {
		t.Errorf("dram = %v, want %v from %d misses", s.DRAM, want, misses)
	}
}

// TestSnapshotMonotone reads the meter after every charge of a seeded random
// sequence: no domain of a later sample may read below an earlier one, the
// contract simulated RAPL counters rely on.
func TestSnapshotMonotone(t *testing.T) {
	m := NewMeter(DefaultCosts())
	rng := rand.New(rand.NewSource(71))
	base := m.Alloc(1 << 18)
	prev := m.Snapshot()
	for i, c := range randomCharges(rng, 5000) {
		if i%2 == 0 {
			m.Step(c.op, c.n)
		} else {
			m.Access(base+uint64(rng.Intn(1<<18)), []int{1, 4, 8, 100}[rng.Intn(4)])
		}
		s := m.Snapshot()
		if s.Cycles < prev.Cycles || s.Elapsed < prev.Elapsed || s.Core < prev.Core ||
			s.Package < prev.Package || s.DRAM < prev.DRAM {
			t.Fatalf("charge %d: sample %+v decreased from %+v", i, s, prev)
		}
		prev = s
	}
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
