package energy

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Meter measures energy, cycles and memory behaviour for one modelled
// execution. It is the single source of truth the simulated RAPL registers
// read from.
//
// A Meter is not safe for concurrent use; the interpreter that drives it is
// single-threaded, as the JVM thread the paper instruments is.
//
// The meter counts on the hot path and prices on read. Every charge is
// linear in three counts it keeps anyway — per-op counts, cache hits and
// cache misses — so Step and the access methods only count (and drive the
// cache model), and Snapshot multiplies the counts by the cost table in one
// fixed order. A sample is therefore a pure function of the counts: two runs
// that reach the same counts between reads read the same bits, whatever
// order the charges came in. Only the cache model is order-sensitive, since
// its hits and misses depend on the access sequence.
type Meter struct {
	costs      CostTable
	cache      *Cache
	opCounts   [NumOps]uint64
	heapCursor uint64 // bump allocator for synthetic addresses
}

// NewMeter builds a meter over the given cost table and the default cache
// geometry. It panics if the table fails validation, since an unpopulated
// table is a programming error.
func NewMeter(costs CostTable) *Meter {
	return NewMeterCache(costs, DefaultCacheConfig())
}

// NewMeterCache builds a meter with an explicit cache geometry.
func NewMeterCache(costs CostTable, cache CacheConfig) *Meter {
	if err := costs.Validate(); err != nil {
		panic(err)
	}
	return &Meter{
		costs:      costs,
		cache:      NewCache(cache),
		heapCursor: 1 << 20, // keep address 0 unused
	}
}

// Costs returns the meter's cost table.
func (m *Meter) Costs() CostTable { return m.costs }

// Step charges n occurrences of op; n <= 0 charges nothing. It is the
// dispatch loop's most frequent call, so it must stay within the compiler's
// inlining budget.
func (m *Meter) Step(op Op, n int) {
	if n > 0 {
		m.opCounts[op] += uint64(n)
	}
}

// Access routes a memory access of size bytes at addr through the cache
// model. An access within one line — nearly all of them — touches that line
// directly; one spanning a line boundary touches every line it covers.
func (m *Meter) Access(addr uint64, size int) {
	c := m.cache
	if size > 0 && (addr+uint64(size)-1)>>c.lineBits == addr>>c.lineBits {
		c.touch(addr >> c.lineBits)
		return
	}
	c.Access(addr, size)
}

// ArrayAccess charges one array-element access: the element step, the bounds
// check and the memory access — the fixed charges of the interpreter's
// indexed load/store paths (OpLoadIndexL and friends) in one concrete call.
func (m *Meter) ArrayAccess(addr uint64, size int) {
	m.opCounts[OpArrayElem]++
	m.opCounts[OpBoundsCheck]++
	m.Access(addr, size)
}

// FieldAccess charges one instance-field access: the field step and the
// 8-byte slot access of every field load/store lane.
func (m *Meter) FieldAccess(addr uint64) {
	m.opCounts[OpField]++
	// 8-byte slots are 8-aligned, so the access never spans a line.
	m.cache.touch(addr >> m.cache.lineBits)
}

// StaticAccess charges one static-field access: the static step and the
// 8-byte slot access of every static load/store lane.
func (m *Meter) StaticAccess(addr uint64) {
	m.opCounts[OpStatic]++
	m.cache.touch(addr >> m.cache.lineBits)
}

// Alloc reserves size bytes of synthetic address space, 8-byte aligned, and
// returns the base address. Objects and arrays created by the interpreter
// live at these addresses so the cache model sees realistic layouts.
func (m *Meter) Alloc(size int) uint64 {
	if size < 0 {
		size = 0
	}
	base := m.heapCursor
	m.heapCursor += (uint64(size) + 7) &^ 7
	return base
}

// Sample is a point-in-time reading of the meter, in the same domain split
// RAPL exposes: package, core (PP0) and DRAM.
type Sample struct {
	Cycles  float64
	Elapsed time.Duration
	Core    Joules
	Package Joules
	DRAM    Joules
}

// Snapshot prices the counts into the current sample: ops in index order,
// then cache hits, then cache misses, each term count × cost. Package energy
// is core energy plus the uncore static power integrated over modelled time.
//
// With integer picojoule costs (every entry of DefaultCosts) each term and
// the running sum are exact in float64 while the total stays below 2^53 pJ,
// about 9 kJ, so core energy rounds once, in Picojoules. Cycle costs such as
// 0.3 are not binary fractions and round once per term. The terms are
// non-negative and added in a fixed order, so successive snapshots never
// decrease in any domain.
func (m *Meter) Snapshot() Sample {
	var pj, cycles float64
	for op, n := range m.opCounts {
		if n == 0 {
			continue
		}
		c := &m.costs.Ops[op]
		pj += c.Picojoules * float64(n)
		cycles += c.Cycles * float64(n)
	}
	hits, misses := float64(m.cache.hits), float64(m.cache.misses)
	pj += m.costs.CacheHit.Picojoules * hits
	cycles += m.costs.CacheHit.Cycles * hits
	pj += m.costs.CacheMiss.Picojoules * misses
	cycles += m.costs.CacheMiss.Cycles * misses
	core := Picojoules(pj)
	secs := cycles / m.costs.FrequencyHz
	return Sample{
		Cycles:  cycles,
		Elapsed: time.Duration(secs * float64(time.Second)),
		Core:    core,
		Package: core + Joules(m.costs.UncoreWatts*secs),
		DRAM:    Joules(m.costs.DRAMJoulesPerMiss * misses),
	}
}

// Sub returns the per-domain difference b − a. It is the measurement a pair
// of RAPL reads around a region of code yields.
func (b Sample) Sub(a Sample) Sample {
	return Sample{
		Cycles:  b.Cycles - a.Cycles,
		Elapsed: b.Elapsed - a.Elapsed,
		Core:    b.Core - a.Core,
		Package: b.Package - a.Package,
		DRAM:    b.DRAM - a.DRAM,
	}
}

// OpCount reports how many times op has been charged.
func (m *Meter) OpCount(op Op) uint64 { return m.opCounts[op] }

// CacheStats reports cumulative cache hits and misses.
func (m *Meter) CacheStats() (hits, misses uint64) { return m.cache.Hits(), m.cache.Misses() }

// Reset zeroes the op counts, invalidates the cache and resets the synthetic
// heap.
func (m *Meter) Reset() {
	m.opCounts = [NumOps]uint64{}
	m.cache.Reset()
	m.heapCursor = 1 << 20
}

// Report renders a human-readable op-count breakdown, most frequent first.
// Ties break on op index, so the row order is a pure function of the counts:
// an unstable sort here made ops with equal counts swap lines between runs.
func (m *Meter) Report() string {
	type row struct {
		op Op
		n  uint64
	}
	rows := make([]row, 0, NumOps)
	for op := 0; op < NumOps; op++ {
		if m.opCounts[op] > 0 {
			rows = append(rows, row{Op(op), m.opCounts[op]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].op < rows[j].op
	})
	var sb strings.Builder
	s := m.Snapshot()
	fmt.Fprintf(&sb, "package=%v core=%v dram=%v cycles=%.0f time=%v\n",
		s.Package, s.Core, s.DRAM, s.Cycles, s.Elapsed)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-14s %12d\n", r.op, r.n)
	}
	return sb.String()
}
