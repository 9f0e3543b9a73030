package rapl

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"jepo/internal/energy"
)

func newTestMeter() *energy.Meter { return energy.NewMeter(energy.DefaultCosts()) }

func TestDomainString(t *testing.T) {
	if Package.String() != "package" || Core.String() != "core" || DRAM.String() != "dram" {
		t.Error("domain names wrong")
	}
	if Domain(42).String() == "" {
		t.Error("unknown domain must still format")
	}
	if len(Domains()) != 3 {
		t.Error("Domains() must list the three modelled domains")
	}
}

func TestSimMSRPowerUnit(t *testing.T) {
	s := NewSimMSR(newTestMeter())
	pu, err := s.ReadMSR(MSRPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	unit := EnergyUnit(pu)
	want := energy.Joules(1.0 / 65536.0)
	if math.Abs(float64(unit-want)) > 1e-15 {
		t.Errorf("energy unit = %v, want %v (2^-16 J)", unit, want)
	}
}

func TestSimMSRUnknownRegister(t *testing.T) {
	s := NewSimMSR(newTestMeter())
	if _, err := s.ReadMSR(0x123); err == nil {
		t.Fatal("want error for unsupported MSR")
	}
}

func TestSetESU(t *testing.T) {
	s := NewSimMSR(newTestMeter())
	if err := s.SetESU(0); err == nil {
		t.Error("ESU 0 must be rejected")
	}
	if err := s.SetESU(32); err == nil {
		t.Error("ESU 32 must be rejected")
	}
	if err := s.SetESU(10); err != nil {
		t.Errorf("ESU 10 rejected: %v", err)
	}
	pu, _ := s.ReadMSR(MSRPowerUnit)
	if got := EnergyUnit(pu); math.Abs(float64(got)-1.0/1024) > 1e-15 {
		t.Errorf("energy unit after SetESU(10) = %v, want 2^-10", got)
	}
}

func TestSimMSRCountsTrackMeter(t *testing.T) {
	m := newTestMeter()
	s := NewSimMSR(m)
	m.Step(energy.OpModInt, 1_000_000) // 172 µJ core
	raw, err := s.ReadMSR(MSRPP0EnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	gotJ := float64(raw) / 65536.0
	wantJ := float64(m.Snapshot().Core)
	if math.Abs(gotJ-wantJ) > 1.0/65536 {
		t.Errorf("PP0 counter = %g J, want %g J within one count", gotJ, wantJ)
	}
}

func TestSamplerMonotonicAndAccurate(t *testing.T) {
	m := newTestMeter()
	src := NewSimSource(m)
	s0, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m.Step(energy.OpModInt, 2_000_000)
	s1, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := s1.Sub(s0)
	if d.Core <= 0 || d.Package <= 0 {
		t.Fatalf("energy did not accumulate: %+v", d)
	}
	if d.Package <= d.Core {
		t.Errorf("package (%v) must exceed core (%v)", d.Package, d.Core)
	}
	wantCore := float64(m.Snapshot().Core)
	if math.Abs(float64(d.Core)-wantCore) > 2.0/65536 {
		t.Errorf("sampled core = %v, want %g", d.Core, wantCore)
	}
}

// The sampler must survive 32-bit counter wraparound: drive the meter past
// 65536 J-counts × 2^32 is impractical, so shrink the energy unit instead.
func TestSamplerWraparound(t *testing.T) {
	m := newTestMeter()
	msr := NewSimMSR(m)
	if err := msr.SetESU(31); err != nil { // unit = 2^-31 J: wraps at 2 J
		t.Fatal(err)
	}
	smp, err := NewSampler(msr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smp.Snapshot(); err != nil {
		t.Fatal(err)
	}
	var total float64
	// Each step batch adds ~0.6 J core; sample every batch so wraps (every
	// ~2 J) are observed at least once per wrap period.
	for i := 0; i < 12; i++ {
		m.Step(energy.OpThrow, 1_000_000) // 0.6 J at 600 nJ per throw
		total += 0.6
		if _, err := smp.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := smp.Snapshot()
	if math.Abs(float64(snap.Core)-total) > 0.01 {
		t.Errorf("unwrapped core = %v J, want ≈%.1f J across wraps", snap.Core, total)
	}
}

func TestSnapshotDomainAndSub(t *testing.T) {
	s := Snapshot{Package: 3, Core: 2, DRAM: 1}
	if s.Domain(Package) != 3 || s.Domain(Core) != 2 || s.Domain(DRAM) != 1 {
		t.Error("Domain accessor wrong")
	}
	if s.Domain(Domain(9)) != 0 {
		t.Error("unknown domain must read 0")
	}
	d := s.Sub(Snapshot{Package: 1, Core: 1, DRAM: 1})
	if d.Package != 2 || d.Core != 1 || d.DRAM != 0 {
		t.Errorf("Sub wrong: %+v", d)
	}
}

// Property: modular 32-bit delta recovers the true delta for any pair of
// counter values whose true distance is below 2^32.
func TestUnwrapProperty(t *testing.T) {
	f := func(start uint32, inc uint32) bool {
		next := start + inc // wraps naturally in uint32
		delta := (uint64(next) - uint64(start)) & 0xFFFFFFFF
		return delta == uint64(inc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- powercap sysfs over a fake tree ---

func writeZone(t *testing.T, root, name, label string, uj, maxRange uint64) string {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite := func(file, content string) {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("name", label+"\n")
	mustWrite("energy_uj", itoa(uj))
	if maxRange > 0 {
		mustWrite("max_energy_range_uj", itoa(maxRange))
	}
	return dir
}

func itoa(v uint64) string {
	if v == 0 {
		return "0\n"
	}
	var b [24]byte
	i := len(b)
	b[i-1] = '\n'
	i--
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestSysfsReadsFakeTree(t *testing.T) {
	root := t.TempDir()
	pkg := writeZone(t, root, "intel-rapl:0", "package-0", 1_000_000, 262_143_328_850)
	writeZone(t, root, "intel-rapl:0:0", "core", 400_000, 262_143_328_850)
	writeZone(t, root, "intel-rapl:0:1", "dram", 100_000, 65_712_999_613)
	writeZone(t, root, "intel-rapl:0:2", "uncore", 1, 0) // ignored
	writeZone(t, root, "intel-rapl-mmio:0", "package-0", 5, 0)

	s, err := NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Advance the package counter by 2 J and the core by 0.5 J.
	os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte("3000000\n"), 0o644)
	os.WriteFile(filepath.Join(root, "intel-rapl:0:0", "energy_uj"), []byte("900000\n"), 0o644)
	s1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := s1.Sub(s0)
	if math.Abs(float64(d.Package)-2.0) > 1e-9 {
		t.Errorf("package delta = %v, want 2 J", d.Package)
	}
	if math.Abs(float64(d.Core)-0.5) > 1e-9 {
		t.Errorf("core delta = %v, want 0.5 J", d.Core)
	}
	if d.DRAM != 0 {
		t.Errorf("dram delta = %v, want 0", d.DRAM)
	}
}

func TestSysfsUnwrapsAgainstMaxRange(t *testing.T) {
	root := t.TempDir()
	pkg := writeZone(t, root, "intel-rapl:0", "package-0", 999_000, 1_000_000)
	s, err := NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Counter wraps: 999000 → 500 with range 1e6 means +1500 µJ.
	os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte("500\n"), 0o644)
	s1, _ := s.Snapshot()
	if math.Abs(s1.Package.Microjoules()-1500) > 1e-6 {
		t.Errorf("wrapped package = %v µJ, want 1500", s1.Package.Microjoules())
	}
}

func TestSysfsErrors(t *testing.T) {
	if _, err := NewSysfs(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing root must error")
	}
	root := t.TempDir()
	writeZone(t, root, "intel-rapl:0:0", "core", 1, 0) // sub-zone only
	if _, err := NewSysfs(root); err == nil {
		t.Error("tree without a package zone must error")
	}
}

func TestDetectFallsBackGracefully(t *testing.T) {
	// Detect must never panic; on machines without powercap it returns nil.
	src := Detect()
	if src != nil {
		if _, err := src.Snapshot(); err != nil {
			t.Errorf("detected source failed to read: %v", err)
		}
	}
}

// TestSysfsBackwardsWithoutRangeSkipsDelta covers the counter-reset branch:
// with max_energy_range_uj absent, a backwards jump must not re-accumulate
// the counter value (double-counting on stale reads); the delta is skipped.
// The known-range wrap branch is covered by
// TestSysfsUnwrapsAgainstMaxRange.
func TestSysfsBackwardsWithoutRangeSkipsDelta(t *testing.T) {
	root := t.TempDir()
	pkg := writeZone(t, root, "intel-rapl:0", "package-0", 999_000, 0) // no range file
	s, err := NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Counter goes backwards: reset or stale duplicate, either way the
	// accumulated energy must not jump by the raw value.
	os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte("500\n"), 0o644)
	s1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Package != 0 {
		t.Errorf("backwards jump accumulated %v µJ, want 0 (delta skipped)", s1.Package.Microjoules())
	}
	// The zone resyncs from the new value and keeps counting.
	os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte("1500\n"), 0o644)
	s2, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2.Package.Microjoules()-1000) > 1e-6 {
		t.Errorf("post-reset delta = %v µJ, want 1000", s2.Package.Microjoules())
	}
}

// TestSysfsSurvivesDisappearingZone exercises zone loss mid-run: a sub-zone
// whose files vanish between reads contributes its frozen accumulation, is
// quarantined after the threshold, and the snapshot keeps succeeding from
// the surviving zones.
func TestSysfsSurvivesDisappearingZone(t *testing.T) {
	root := t.TempDir()
	pkg := writeZone(t, root, "intel-rapl:0", "package-0", 1_000_000, 0)
	core := writeZone(t, root, "intel-rapl:0:0", "core", 400_000, 0)
	s, err := NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Both zones advance once, so the core zone has accumulated energy to
	// freeze when it disappears.
	os.WriteFile(filepath.Join(core, "energy_uj"), []byte("500000\n"), 0o644)
	os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte("1050000\n"), 0o644)
	s1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Core.Microjoules()-100_000) > 1e-6 || math.Abs(s1.Package.Microjoules()-50_000) > 1e-6 {
		t.Fatalf("pre-loss accumulation wrong: %+v", s1)
	}

	// The core zone disappears (hotplug); the package keeps advancing.
	if err := os.RemoveAll(core); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= quarantineAfter; i++ {
		os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte(itoa(1_050_000+uint64(i)*100_000)), 0o644)
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d after zone loss: %v", i, err)
		}
		if math.Abs(snap.Core.Microjoules()-100_000) > 1e-6 {
			t.Errorf("snapshot %d: core = %v µJ, want frozen 100000", i, snap.Core.Microjoules())
		}
		wantPkg := float64(50_000 + i*100_000)
		if math.Abs(snap.Package.Microjoules()-wantPkg) > 1e-6 {
			t.Errorf("snapshot %d: package = %v µJ, want %v", i, snap.Package.Microjoules(), wantPkg)
		}
	}

	// Quarantined means never read again: a zone that comes back stays
	// frozen.
	writeZone(t, root, "intel-rapl:0:0", "core", 900_000, 0)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.Core.Microjoules()-100_000) > 1e-6 {
		t.Errorf("quarantined zone read again: core = %v µJ, want frozen 100000", snap.Core.Microjoules())
	}
}

// TestSysfsDiesWhenAllPackageZonesGone: the lost package zone is served
// frozen until it is quarantined, and from then on the source errors.
func TestSysfsDiesWhenAllPackageZonesGone(t *testing.T) {
	root := t.TempDir()
	writeZone(t, root, "intel-rapl:0", "package-0", 1_000_000, 0)
	s, err := NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, "intel-rapl:0")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < quarantineAfter; i++ {
		if _, err := s.Snapshot(); err != nil {
			t.Fatalf("failed read %d of %d before quarantine: %v", i, quarantineAfter, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Snapshot(); err == nil {
			t.Fatal("losing the only package zone must kill the source")
		}
	}
}

// newScriptedSampler builds a sampler whose package counter replays seq
// (core and dram held at zero). The stock unit is 2^-16 J per count.
func newScriptedSampler(t *testing.T, seq []uint64) *Sampler {
	t.Helper()
	msr := &ScriptedMSR{Seq: map[uint32][]uint64{
		MSRPkgEnergyStatus:  seq,
		MSRPP0EnergyStatus:  {0},
		MSRDRAMEnergyStatus: {0},
	}}
	s, err := NewSampler(msr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSamplerUnwrapBoundary drives the unwrap logic with exact counter
// values around the 32-bit edge: first-read initialization, a wrap exactly
// at the boundary, wrap from the maximum value, and the aliasing limit of a
// double wrap between snapshots.
func TestSamplerUnwrapBoundary(t *testing.T) {
	cases := []struct {
		name string
		seq  []uint64 // raw counter per snapshot
		want []uint64 // accumulated counts after each snapshot
	}{
		{
			name: "first read initializes, not accumulates",
			seq:  []uint64{0xFFFF_FFF0, 0xFFFF_FFF0},
			want: []uint64{0, 0},
		},
		{
			name: "wrap exactly at the boundary",
			seq:  []uint64{0xFFFF_FFFF, 0x0000_0000, 0x0000_0001},
			want: []uint64{0, 1, 2},
		},
		{
			name: "wrap across the boundary mid-delta",
			seq:  []uint64{0xFFFF_FFF0, 0x0000_0010},
			want: []uint64{0, 0x20},
		},
		{
			name: "largest plausible delta is kept",
			seq:  []uint64{0, samplerMaxDelta - 1},
			want: []uint64{0, samplerMaxDelta - 1},
		},
		{
			// A counter advancing by exactly 2^32 between two snapshots is
			// invisible: the modular delta is 0. This is the documented
			// aliasing limit — sample faster than the wrap period.
			name: "double wrap between snapshots aliases to zero",
			seq:  []uint64{0x0000_0100, 0x0000_0100},
			want: []uint64{0, 0},
		},
		{
			// A backwards/stale reading would alias to a near-2^32 delta;
			// the half-range guard skips it and resyncs.
			name: "backwards reading skipped by half-range guard",
			seq:  []uint64{0x0000_1000, 0x0000_0100, 0x0000_0200},
			want: []uint64{0, 0, 0x100},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newScriptedSampler(t, tc.seq)
			for i := range tc.seq {
				snap, err := s.Snapshot()
				if err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				got := uint64(float64(snap.Package) / float64(s.unit))
				if got != tc.want[i] {
					t.Errorf("after snapshot %d: accumulated %d counts, want %d", i, got, tc.want[i])
				}
			}
		})
	}
}

// TestSamplerHealthCountsStaleSkips: a backwards reading charges nothing,
// and the sampler resyncs from it, so the next forward step counts in full.
func TestSamplerHealthCountsStaleSkips(t *testing.T) {
	s := newScriptedSampler(t, []uint64{0x1000, 0x100, 0x200})
	for i, want := range []uint64{0, 0, 0x100} {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := uint64(float64(snap.Package) / float64(s.unit)); got != want {
			t.Errorf("after snapshot %d: accumulated %d counts, want %d", i, got, want)
		}
	}
}

func TestScriptedMSRHoldsLastValue(t *testing.T) {
	msr := &ScriptedMSR{Seq: map[uint32][]uint64{MSRPkgEnergyStatus: {5, 9}}}
	for i, want := range []uint64{5, 9, 9, 9} {
		v, err := msr.ReadMSR(MSRPkgEnergyStatus)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("read %d = %d, want %d", i, v, want)
		}
	}
	if _, err := msr.ReadMSR(MSRPP0EnergyStatus); err == nil {
		t.Error("register without a sequence must error")
	}
}
