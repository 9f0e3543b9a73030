package rapl

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"jepo/internal/energy"
)

// PowercapRoot is the stock location of the Linux powercap RAPL tree.
const PowercapRoot = "/sys/class/powercap"

// zone is one powercap zone (a directory with name and energy_uj files).
type zone struct {
	dir      string
	maxRange uint64 // max_energy_range_uj, 0 if absent
	last     uint64
	acc      uint64
	init     bool

	fails       int  // consecutive failed reads
	quarantined bool // dropped after too many consecutive failures
}

// quarantineAfter is how many consecutive failed reads drop a zone.
const quarantineAfter = 3

// Sysfs reads real RAPL counters through the Linux powercap interface. It
// maps the top-level "package-N" zones to the Package domain and their
// "core" / "dram" sub-zones to Core and DRAM, summing across sockets.
//
// The reader guards input from outside the program: a zone whose energy_uj
// read fails (permission flip, hotplug removal) contributes its last
// accumulated value, and after quarantineAfter consecutive failures it is
// quarantined — never read again, its accumulated energy frozen so totals
// stay monotonic. The snapshot only errors once every package zone is
// quarantined.
type Sysfs struct {
	zones [numDomains][]*zone
}

// NewSysfs scans root (usually PowercapRoot) for intel-rapl zones. It returns
// an error when no package zone is readable.
func NewSysfs(root string) (*Sysfs, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("rapl: powercap unavailable: %w", err)
	}
	s := &Sysfs{}
	for _, e := range entries {
		name := e.Name()
		// Top-level zones look like intel-rapl:0; sub-zones intel-rapl:0:0.
		if !strings.HasPrefix(name, "intel-rapl") || strings.Count(name, ":") != 1 {
			continue
		}
		dir := filepath.Join(root, name)
		label, err := os.ReadFile(filepath.Join(dir, "name"))
		if err != nil || !strings.HasPrefix(strings.TrimSpace(string(label)), "package") {
			continue
		}
		if z := openZone(dir); z != nil {
			s.zones[Package] = append(s.zones[Package], z)
		}
		subs, _ := filepath.Glob(dir + ":*")
		for _, sub := range subs {
			subLabel, err := os.ReadFile(filepath.Join(sub, "name"))
			if err != nil {
				continue
			}
			var d Domain
			switch strings.TrimSpace(string(subLabel)) {
			case "core":
				d = Core
			case "dram":
				d = DRAM
			default:
				continue
			}
			if z := openZone(sub); z != nil {
				s.zones[d] = append(s.zones[d], z)
			}
		}
	}
	if len(s.zones[Package]) == 0 {
		return nil, fmt.Errorf("rapl: no readable package zone under %s", root)
	}
	return s, nil
}

// openZone validates that energy_uj is readable and loads the wrap range.
func openZone(dir string) *zone {
	if _, err := readUint(filepath.Join(dir, "energy_uj")); err != nil {
		return nil
	}
	z := &zone{dir: dir}
	if r, err := readUint(filepath.Join(dir, "max_energy_range_uj")); err == nil {
		z.maxRange = r
	}
	return z
}

func readUint(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
}

// read returns the zone's accumulated microjoules, unwrapping against
// max_energy_range_uj.
func (z *zone) read() (uint64, error) {
	v, err := readUint(filepath.Join(z.dir, "energy_uj"))
	if err != nil {
		return 0, err
	}
	if !z.init {
		z.last, z.init = v, true
	}
	if v >= z.last {
		z.acc += v - z.last
	} else if z.maxRange > 0 {
		z.acc += (z.maxRange - z.last) + v
	}
	// Backwards with no declared range counts nothing: a counter reset
	// (hotplug, suspend) is indistinguishable from a stale duplicate
	// reading, and accumulating v would re-count energy already charged
	// whenever the glitch repeats. The zone resyncs from the new value.
	z.last = v
	return z.acc, nil
}

// Snapshot implements Source, summing zones per domain across sockets.
// Failed zone reads contribute the zone's last accumulated value; zones
// failing quarantineAfter consecutive reads are quarantined with their
// accumulation frozen. The snapshot errors only when no live package zone
// remains.
func (s *Sysfs) Snapshot() (Snapshot, error) {
	var out Snapshot
	for d := Domain(0); d < numDomains; d++ {
		var uj uint64
		for _, z := range s.zones[d] {
			v := z.acc
			if !z.quarantined {
				nv, err := z.read()
				if err != nil {
					z.fails++
					z.quarantined = z.fails >= quarantineAfter
				} else {
					z.fails = 0
					v = nv
				}
			}
			uj += v
		}
		j := energy.Joules(float64(uj) * 1e-6)
		switch d {
		case Package:
			out.Package = j
		case Core:
			out.Core = j
		case DRAM:
			out.DRAM = j
		}
	}
	live := 0
	for _, z := range s.zones[Package] {
		if !z.quarantined {
			live++
		}
	}
	if live == 0 {
		return Snapshot{}, fmt.Errorf("rapl: every package zone quarantined under powercap")
	}
	return out, nil
}

// Detect returns a real powercap source when the host exposes one, and nil
// otherwise. Callers fall back to NewSimSource when it returns nil.
func Detect() Source {
	s, err := NewSysfs(PowercapRoot)
	if err != nil {
		return nil
	}
	return s
}
