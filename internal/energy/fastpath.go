package energy

// Metering fast path.
//
// The simulated meter is the reproduction's instrumentation overhead: both
// execution engines must issue the identical Step/Access/cache sequence, so
// every cycle the meter costs is an Amdahl floor under every workload built
// on top (Diamond et al., "What Is the Cost of Energy Monitoring?"). The
// fast path shrinks that floor without changing a single joule bit, by
// precomputing at cost-table-bind time everything Step recomputes per call:
//
//   - Step(op, n) charges Picojoules(c.Picojoules * float64(n)). That
//     product is a pure function of the cost table and n; for the dominant
//     n==1 case, x*1.0 == x exactly in IEEE 754, so a per-op table of ready
//     (joule, cycle) unit deltas folded at meter construction makes the hot
//     charge add-only — no table lookup, no int→float conversion, no
//     multiply. The n>1 general case is unchanged code.
//   - Cache hit/miss/DRAM charges get the same unit-delta treatment, and
//     the single-line access case (the overwhelming majority) is charged
//     without the general multi-line batching arithmetic.
//
// The reference forms are the general cases: stepSlow charges counts other
// than one and accessSlow charges line-spanning accesses. The energy tests
// hold every fast form against them bit for bit; any divergence is a
// fast-path bug by definition.

// unitCost is one precomputed single-charge delta: the exact Joules and
// cycles Step(op, 1) would add.
type unitCost struct {
	j Joules
	c float64
}

// bindUnits folds a cost table into its per-op unit deltas.
func bindUnits(t *CostTable) (units [NumOps]unitCost) {
	for op := 0; op < NumOps; op++ {
		units[op] = unitCost{j: Picojoules(t.Ops[op].Picojoules), c: t.Ops[op].Cycles}
	}
	return units
}
