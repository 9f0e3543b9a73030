// Package rapl reproduces the energy-measurement substrate JEPO injects into
// Java methods: Intel Running Average Power Limit (RAPL) counters.
//
// Two back ends are provided. SimMSR exposes the machine-specific-register
// (MSR) protocol — 32-bit energy-status counters in energy-status units that
// wrap around — backed by the energy-model meter, so the full read/unwrap
// path is exercised exactly as it would be against /dev/cpu/*/msr. Sysfs
// reads the Linux powercap interface (/sys/class/powercap/intel-rapl*);
// Detect returns it on hosts that expose real RAPL counters. Only the
// examples/rapl program calls Detect: the commands and core.Profile read the
// simulator, so their output stays deterministic.
package rapl

import (
	"fmt"

	"jepo/internal/energy"
)

// Real Intel MSR addresses for the RAPL interface.
const (
	MSRPowerUnit        = 0x606 // MSR_RAPL_POWER_UNIT
	MSRPkgEnergyStatus  = 0x611 // MSR_PKG_ENERGY_STATUS
	MSRDRAMEnergyStatus = 0x619 // MSR_DRAM_ENERGY_STATUS
	MSRPP0EnergyStatus  = 0x639 // MSR_PP0_ENERGY_STATUS (core domain)
)

// Domain identifies a RAPL power domain.
type Domain int

// The three domains the paper's evaluation reports (package and CPU/core) or
// that stock RAPL exposes alongside them (DRAM).
const (
	Package Domain = iota
	Core
	DRAM
	numDomains
)

// String names the domain as the paper does.
func (d Domain) String() string {
	switch d {
	case Package:
		return "package"
	case Core:
		return "core"
	case DRAM:
		return "dram"
	}
	return fmt.Sprintf("domain(%d)", int(d))
}

// Domains lists all modelled domains.
func Domains() []Domain { return []Domain{Package, Core, DRAM} }

// MSRReader reads one machine-specific register.
type MSRReader interface {
	ReadMSR(reg uint32) (uint64, error)
}

// defaultESU is the stock energy-status-unit exponent: energies are counted
// in units of 2^-16 J ≈ 15.3 µJ, encoded in bits 12:8 of MSR_RAPL_POWER_UNIT.
const defaultESU = 16

// SimMSR is a simulated MSR file backed by an energy.Meter. Its counters have
// the real registers' semantics: 32 significant bits, energy-status-unit
// scaling, wraparound.
type SimMSR struct {
	meter *energy.Meter
	esu   uint // energy unit = 2^-esu joules
}

// NewSimMSR builds a simulated MSR file over m with the stock energy unit.
func NewSimMSR(m *energy.Meter) *SimMSR { return &SimMSR{meter: m, esu: defaultESU} }

// SetESU overrides the energy-status-unit exponent (energy unit = 2^-esu J).
// Exponents above 31 or zero are rejected as the hardware cannot encode them.
func (s *SimMSR) SetESU(esu uint) error {
	if esu == 0 || esu > 31 {
		return fmt.Errorf("rapl: energy status unit exponent %d out of range [1,31]", esu)
	}
	s.esu = esu
	return nil
}

// counts converts joules to energy-status counts, truncated to 32 bits.
func (s *SimMSR) counts(j energy.Joules) uint64 {
	unit := 1.0 / float64(uint64(1)<<s.esu)
	return uint64(float64(j)/unit) & 0xFFFFFFFF
}

// ReadMSR implements MSRReader for the registers RAPL defines.
func (s *SimMSR) ReadMSR(reg uint32) (uint64, error) {
	snap := s.meter.Snapshot()
	switch reg {
	case MSRPowerUnit:
		// Power unit in bits 3:0, energy unit in 12:8, time unit in 19:16.
		return uint64(3) | uint64(s.esu)<<8 | uint64(10)<<16, nil
	case MSRPkgEnergyStatus:
		return s.counts(snap.Package), nil
	case MSRPP0EnergyStatus:
		return s.counts(snap.Core), nil
	case MSRDRAMEnergyStatus:
		return s.counts(snap.DRAM), nil
	}
	return 0, fmt.Errorf("rapl: unsupported MSR 0x%x", reg)
}

// EnergyUnit decodes the energy-status unit (in joules per count) from a
// MSR_RAPL_POWER_UNIT value.
func EnergyUnit(powerUnit uint64) energy.Joules {
	esu := (powerUnit >> 8) & 0x1F
	return energy.Joules(1.0 / float64(uint64(1)<<esu))
}

// ScriptedMSR replays exact per-register counter sequences. It is the tool
// for boundary tests — wraps exactly at the 32-bit edge, double wraps
// between snapshots, first-read initialization — where the value stream must
// be controlled to the count. Once a sequence is exhausted its final value
// is held, like a counter between increments.
type ScriptedMSR struct {
	// ESU is the energy-status-unit exponent reported via MSR_RAPL_POWER_UNIT
	// (0 means the stock 2^-16 J).
	ESU uint
	// Seq holds the counter values returned for each register, in order.
	Seq map[uint32][]uint64

	pos map[uint32]int
}

// ReadMSR implements MSRReader over the scripted sequences.
func (s *ScriptedMSR) ReadMSR(reg uint32) (uint64, error) {
	if reg == MSRPowerUnit {
		esu := s.ESU
		if esu == 0 {
			esu = defaultESU
		}
		return uint64(3) | uint64(esu)<<8 | uint64(10)<<16, nil
	}
	seq, ok := s.Seq[reg]
	if !ok || len(seq) == 0 {
		return 0, fmt.Errorf("rapl: scripted MSR has no sequence for 0x%x", reg)
	}
	if s.pos == nil {
		s.pos = map[uint32]int{}
	}
	i := s.pos[reg]
	if i >= len(seq) {
		i = len(seq) - 1
	} else {
		s.pos[reg] = i + 1
	}
	return seq[i], nil
}
