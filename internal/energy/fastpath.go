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
//   - A recorded charge list (a basic block's pre-aggregated run) replays as
//     a list of StepDeltas: each entry's delta is computed once when the
//     cost table is bound to the program, then added per replay. Entries are
//     still added one by one in original order — float addition is not
//     associative, so only the per-entry *product* may be hoisted, never the
//     sum across entries.
//   - Cache hit/miss/DRAM charges get the same unit-delta treatment, and
//     the single-line access case (the overwhelming majority) is charged
//     without the general multi-line batching arithmetic.
//
// The reference forms are the general cases: stepSlow charges counts other
// than one, accessSlow charges line-spanning accesses, and StepList replays
// charge lists bound to no table (a custom cost table). The energy tests hold
// every fast form against them bit for bit; any divergence is a fast-path bug
// by definition.

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

// StepDelta is one precomputed Step(Op, N) call: the exact core-energy and
// cycle deltas that call would add, with the op and count kept so the op
// counters advance identically. Replaying a []StepDelta with Meter.StepRun
// is bit-identical to replaying the source []Charge with Meter.StepList.
type StepDelta struct {
	CoreJ  Joules
	Cycles float64
	Op     Op
	N      uint64
}

// BindSteps precomputes the per-call deltas of replaying charges against
// this cost table, one StepDelta per effective Step call. Entries with a
// non-positive count are dropped — Step treats them as no-ops — so the
// bound list replays exactly the calls that would have charged.
func (t *CostTable) BindSteps(charges []Charge) []StepDelta {
	if len(charges) == 0 {
		return nil
	}
	out := make([]StepDelta, 0, len(charges))
	for _, ch := range charges {
		if ch.N <= 0 {
			continue
		}
		c := t.Ops[ch.Op]
		f := float64(ch.N)
		out = append(out, StepDelta{
			CoreJ:  Picojoules(c.Picojoules * f),
			Cycles: c.Cycles * f,
			Op:     ch.Op,
			N:      uint64(ch.N),
		})
	}
	return out
}
