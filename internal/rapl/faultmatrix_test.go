//go:build faultmatrix

package rapl

import "testing"

// splitmix64 is the fuzz's deterministic stream: every failure reproduces
// from its seed alone.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *splitmix64) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// TestFaultMatrixScriptedMSRSampler fuzzes the sampler's unwrap against
// random wrapping/stale counter sequences generated from the seeded stream:
// after every read the accumulated count is exactly the sum of the forward
// steps so far, so wraps count in full and stale repeats and backwards
// glitches count nothing.
func TestFaultMatrixScriptedMSRSampler(t *testing.T) {
	for seed := uint64(1); seed <= 80; seed++ {
		rng := splitmix64{state: seed}
		cur := uint64(rng.next() & 0xFFFF_FFFF)
		seq := []uint64{cur}
		want := []uint64{0} // accumulated counts after each read
		for i := 0; i < 100; i++ {
			acc := want[len(want)-1]
			switch {
			case rng.float64() < 0.10: // stale repeat
				seq = append(seq, seq[len(seq)-1])
			case rng.float64() < 0.05: // backwards glitch
				cur = (seq[len(seq)-1] - 1 - rng.next()%1000) & 0xFFFF_FFFF
				seq = append(seq, cur)
			default:
				step := rng.next() % (1 << 24)
				cur = (cur + step) & 0xFFFF_FFFF // may wrap
				seq = append(seq, cur)
				acc += step
			}
			want = append(want, acc)
		}
		msr := &ScriptedMSR{Seq: map[uint32][]uint64{
			MSRPkgEnergyStatus:  seq,
			MSRPP0EnergyStatus:  {0},
			MSRDRAMEnergyStatus: {0},
		}}
		s, err := NewSampler(msr)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatalf("seed %d read %d: %v", seed, i, err)
			}
			if got := uint64(float64(snap.Package) / float64(s.unit)); got != want[i] {
				t.Fatalf("seed %d read %d: accumulated %d counts, want %d", seed, i, got, want[i])
			}
		}
	}
}
