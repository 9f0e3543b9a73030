package energy

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Meter accumulates energy, cycles and memory behaviour for one modelled
// execution. It is the single source of truth the simulated RAPL registers
// read from.
//
// A Meter is not safe for concurrent use; the interpreter that drives it is
// single-threaded, as the JVM thread the paper instruments is.
//
// The charging methods come in two layers. Step and Access are the general
// API; their hot cases run on precomputed unit deltas (see fastpath.go), and
// the flattened helpers — FieldAccess, StaticAccess, ArrayAccess — give the
// interpreter's dispatch loop single concrete calls for its fixed charge
// sequences. Every fast form performs the identical additions in the
// identical order as the reference form it replaces (stepSlow, accessSlow).
type Meter struct {
	costs CostTable
	cache *Cache

	cycles     float64
	coreJ      Joules // PP0 (core) domain
	dramJ      Joules // DRAM domain
	opCounts   [NumOps]uint64
	heapCursor uint64 // bump allocator for synthetic addresses

	// Fast-path state, folded from costs at construction (fastpath.go):
	// per-op unit deltas and the unit cache hit/miss/DRAM charges.
	unit        [NumOps]unitCost
	hitU, missU unitCost
	dramPerMiss Joules
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
	m := &Meter{
		costs:      costs,
		cache:      NewCache(cache),
		heapCursor: 1 << 20, // keep address 0 unused
	}
	m.unit = bindUnits(&costs)
	m.hitU = unitCost{j: Picojoules(costs.CacheHit.Picojoules), c: costs.CacheHit.Cycles}
	m.missU = unitCost{j: Picojoules(costs.CacheMiss.Picojoules), c: costs.CacheMiss.Cycles}
	m.dramPerMiss = Joules(costs.DRAMJoulesPerMiss)
	return m
}

// Costs returns the meter's cost table.
func (m *Meter) Costs() CostTable { return m.costs }

// Step charges n occurrences of op. The n==1 case — the dispatch loop's
// shape — adds the precomputed unit delta; other counts take stepSlow, the
// reference product. Step must stay within the compiler's inlining budget:
// the whole point of the unit-delta path is that the dispatch loop's charges
// compile to straight-line adds, not calls.
func (m *Meter) Step(op Op, n int) {
	if n == 1 {
		m.coreJ += m.unit[op].j
		m.cycles += m.unit[op].c
		m.opCounts[op]++
		return
	}
	m.stepSlow(op, n)
}

// stepSlow is the reference charge path: per-call table lookup and product.
// The fast paths must be indistinguishable from it bit for bit.
func (m *Meter) stepSlow(op Op, n int) {
	if n <= 0 {
		return
	}
	c := m.costs.Ops[op]
	f := float64(n)
	m.coreJ += Picojoules(c.Picojoules * f)
	m.cycles += c.Cycles * f
	m.opCounts[op] += uint64(n)
}

// Access routes a memory access of size bytes at addr through the cache model
// and charges the hit/miss costs. The single-line case (any access that does
// not span a line boundary) is charged through the unit deltas; spanning
// accesses take the general batched path.
func (m *Meter) Access(addr uint64, size int) {
	c := m.cache
	if size > 0 && (addr+uint64(size)-1)>>c.lineBits == addr>>c.lineBits {
		if m.cache.touch(addr >> c.lineBits) {
			m.coreJ += m.hitU.j
			m.cycles += m.hitU.c
		} else {
			m.coreJ += m.missU.j
			m.cycles += m.missU.c
			m.dramJ += m.dramPerMiss
		}
		return
	}
	m.accessSlow(addr, size)
}

// accessSlow is the reference access path: batched hit/miss charges over
// however many lines the access covered. For a single-line access the fast
// path adds the identical bits: hits and misses are 0 or 1, and x*1.0 == x.
func (m *Meter) accessSlow(addr uint64, size int) {
	lines, missed := m.cache.Access(addr, size)
	hits := lines - missed
	if hits > 0 {
		m.coreJ += Picojoules(m.costs.CacheHit.Picojoules * float64(hits))
		m.cycles += m.costs.CacheHit.Cycles * float64(hits)
	}
	if missed > 0 {
		m.coreJ += Picojoules(m.costs.CacheMiss.Picojoules * float64(missed))
		m.cycles += m.costs.CacheMiss.Cycles * float64(missed)
		m.dramJ += Joules(m.costs.DRAMJoulesPerMiss * float64(missed))
	}
}

// ArrayAccess charges one array-element access: the element step, the bounds
// check and the memory access, in that order — the fixed sequence of the
// interpreter's indexed load/store paths (OpLoadIndexL and friends),
// flattened into one concrete call.
func (m *Meter) ArrayAccess(addr uint64, size int) {
	u := &m.unit[OpArrayElem]
	m.coreJ += u.j
	m.cycles += u.c
	m.opCounts[OpArrayElem]++
	u = &m.unit[OpBoundsCheck]
	m.coreJ += u.j
	m.cycles += u.c
	m.opCounts[OpBoundsCheck]++
	if size > 0 && (addr+uint64(size)-1)>>m.cache.lineBits == addr>>m.cache.lineBits {
		if m.cache.touch(addr >> m.cache.lineBits) {
			m.coreJ += m.hitU.j
			m.cycles += m.hitU.c
		} else {
			m.coreJ += m.missU.j
			m.cycles += m.missU.c
			m.dramJ += m.dramPerMiss
		}
		return
	}
	m.accessSlow(addr, size)
}

// FieldAccess charges one instance-field access: the field step then the
// 8-byte slot access — the fixed sequence of every field load/store lane.
func (m *Meter) FieldAccess(addr uint64) {
	u := &m.unit[OpField]
	m.coreJ += u.j
	m.cycles += u.c
	m.opCounts[OpField]++
	// 8-byte slots are 8-aligned, so the access never spans a line.
	if m.cache.touch(addr >> m.cache.lineBits) {
		m.coreJ += m.hitU.j
		m.cycles += m.hitU.c
	} else {
		m.coreJ += m.missU.j
		m.cycles += m.missU.c
		m.dramJ += m.dramPerMiss
	}
}

// StaticAccess charges one static-field access: the static step then the
// 8-byte slot access — the fixed sequence of every static load/store lane.
func (m *Meter) StaticAccess(addr uint64) {
	u := &m.unit[OpStatic]
	m.coreJ += u.j
	m.cycles += u.c
	m.opCounts[OpStatic]++
	if m.cache.touch(addr >> m.cache.lineBits) {
		m.coreJ += m.hitU.j
		m.cycles += m.hitU.c
	} else {
		m.coreJ += m.missU.j
		m.cycles += m.missU.c
		m.dramJ += m.dramPerMiss
	}
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

// Snapshot computes the current sample. Package energy is core energy plus
// the uncore static power integrated over modelled time.
func (m *Meter) Snapshot() Sample {
	secs := m.cycles / m.costs.FrequencyHz
	return Sample{
		Cycles:  m.cycles,
		Elapsed: time.Duration(secs * float64(time.Second)),
		Core:    m.coreJ,
		Package: m.coreJ + Joules(m.costs.UncoreWatts*secs),
		DRAM:    m.dramJ,
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

// Reset zeroes all accumulators, invalidates the cache and resets the
// synthetic heap.
func (m *Meter) Reset() {
	m.cycles = 0
	m.coreJ = 0
	m.dramJ = 0
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
