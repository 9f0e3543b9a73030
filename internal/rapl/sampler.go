package rapl

import (
	"fmt"

	"jepo/internal/energy"
)

// Snapshot is a monotonically accumulated energy reading per domain.
type Snapshot struct {
	Package energy.Joules
	Core    energy.Joules
	DRAM    energy.Joules
}

// Domain selects one domain's value from the snapshot.
func (s Snapshot) Domain(d Domain) energy.Joules {
	switch d {
	case Package:
		return s.Package
	case Core:
		return s.Core
	case DRAM:
		return s.DRAM
	}
	return 0
}

// Sub returns the per-domain difference b − a.
func (b Snapshot) Sub(a Snapshot) Snapshot {
	return Snapshot{
		Package: b.Package - a.Package,
		Core:    b.Core - a.Core,
		DRAM:    b.DRAM - a.DRAM,
	}
}

// Source yields accumulated energy snapshots. Implementations must already
// have wraparound handled: successive snapshots are non-decreasing per domain
// as long as the source is sampled more often than the counters wrap.
type Source interface {
	Snapshot() (Snapshot, error)
}

// Sampler turns raw 32-bit wrapping MSR counters into monotonically
// accumulating energies. It is the unwrap logic the injected JEPO probes
// need, since MSR_PKG_ENERGY_STATUS wraps every minute or so under load on
// real parts.
type Sampler struct {
	msr  MSRReader
	unit energy.Joules
	last [numDomains]uint64
	acc  [numDomains]uint64 // accumulated counts, 64-bit so it never wraps
	init bool
}

// samplerMaxDelta is the half-range plausibility bound on one snapshot's
// counter delta. A genuine wrap produces a small modular delta; a stale or
// duplicated reading of an already-advanced counter aliases to a delta near
// 2^32, which would charge ~65 kJ out of nowhere. Deltas above half the
// counter range are treated as backwards readings and skipped.
const samplerMaxDelta = 1 << 31

// NewSampler builds a sampler over an MSR reader, decoding the energy unit
// from MSR_RAPL_POWER_UNIT.
func NewSampler(msr MSRReader) (*Sampler, error) {
	pu, err := msr.ReadMSR(MSRPowerUnit)
	if err != nil {
		return nil, fmt.Errorf("rapl: reading power unit: %w", err)
	}
	unit := EnergyUnit(pu)
	if unit <= 0 {
		return nil, fmt.Errorf("rapl: bad energy unit %v", unit)
	}
	return &Sampler{msr: msr, unit: unit}, nil
}

var domainMSR = [numDomains]uint32{
	Package: MSRPkgEnergyStatus,
	Core:    MSRPP0EnergyStatus,
	DRAM:    MSRDRAMEnergyStatus,
}

// Snapshot reads every domain counter, unwraps, and returns accumulated
// energy since the sampler was created.
func (s *Sampler) Snapshot() (Snapshot, error) {
	var raw [numDomains]uint64
	for d := Domain(0); d < numDomains; d++ {
		v, err := s.msr.ReadMSR(domainMSR[d])
		if err != nil {
			return Snapshot{}, fmt.Errorf("rapl: reading %v counter: %w", d, err)
		}
		raw[d] = v & 0xFFFFFFFF
	}
	if !s.init {
		s.last = raw
		s.init = true
	}
	for d := Domain(0); d < numDomains; d++ {
		delta := (raw[d] - s.last[d]) & 0xFFFFFFFF // modular: handles wrap
		if delta >= samplerMaxDelta {
			// Stale/backwards reading aliased through the modular unwrap;
			// skip the delta and resync rather than charge a phantom wrap.
			delta = 0
		}
		s.acc[d] += delta
		s.last[d] = raw[d]
	}
	return Snapshot{
		Package: energy.Joules(float64(s.acc[Package])) * s.unit,
		Core:    energy.Joules(float64(s.acc[Core])) * s.unit,
		DRAM:    energy.Joules(float64(s.acc[DRAM])) * s.unit,
	}, nil
}

// NewSimSource builds the full simulated read path — meter → simulated MSRs →
// unwrapping sampler — so measurements taken through it exercise exactly the
// protocol the injected probes use on hardware.
func NewSimSource(m *energy.Meter) *Sampler {
	s, err := NewSampler(NewSimMSR(m))
	if err != nil {
		// NewSimMSR always answers MSRPowerUnit; this is unreachable.
		panic(err)
	}
	return s
}
