package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"jepo/internal/stats"
)

// metric is one measured value in its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run of one workload measured. The -o file holds
// one record per line; compare and summary read them back.
type record struct {
	Host      host               `json:"host"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"`
	// Samples holds the raw series behind the metrics, in run order.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// OutputSHA is the sha256 of the workload's output (batch stdout, or
	// the serve responses in order), so compare can flag output changes.
	OutputSHA string   `json:"output_sha256,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

func newRecord(workload string, seed uint64, seconds int, traced bool) *record {
	return &record{
		Workload: workload,
		Seed:     seed,
		Seconds:  seconds,
		Trace:    traced,
		Correct:  true,
		Metrics:  make(map[string]metric),
		Info:     make(map[string]float64),
		Samples:  make(map[string][]float64),
	}
}

func (r *record) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// wrong marks the run incorrect and says why.
func (r *record) wrong(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *record) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// series records a sample series with its size and spread as
// informational values. Outliers are counted, never removed: removing them
// would delete the tail the percentiles report.
func (r *record) series(name string, xs []float64) {
	r.Samples[name] = xs
	s := summarize(xs)
	r.Info[name+"_n"] = float64(s.N)
	r.Info[name+"_iqr_frac"] = s.iqrFrac()
	r.Info[name+"_outliers"] = float64(s.Outliers)
}

// spread summarizes a sample: median, Tukey-hinge quartiles, and how many
// values fall outside the Tukey fences.
type spread struct {
	N        int
	Median   float64
	Q1, Q3   float64
	Outliers int
}

func summarize(xs []float64) spread {
	s := spread{N: len(xs), Median: stats.Median(xs)}
	q1, q3, err := stats.Quartiles(xs)
	if err != nil { // fewer than three values: no spread to speak of
		s.Q1, s.Q3 = s.Median, s.Median
		return s
	}
	s.Q1, s.Q3 = q1, q3
	out, _ := stats.OutlierIndices(xs) // cannot fail once Quartiles succeeded
	s.Outliers = len(out)
	return s
}

// iqrFrac is the interquartile range as a share of the median.
func (s spread) iqrFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// percentile is the p-th percentile of xs, interpolating linearly between
// the closest ranks. It is NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// host is the header every record carries: what the numbers were measured
// on and from which commit.
type host struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	// Measurable is false below two CPUs: the workloads run two workers,
	// so a one-CPU host measures contention, not the program.
	Measurable bool `json:"measurable"`
}

func hostInfo() host {
	h := host{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
	}
	h.Measurable = h.NumCPU >= 2
	// go build stamps the commit of the enclosing git checkout into the
	// binary; a checkout without git metadata leaves it unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
