package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"jepo/internal/stats"
)

// Verdicts compare reports per (workload, metric).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved" // the runs spread wider than the bound
	verdictInfo       = "info"       // per-layer metrics carry no bound
)

// judgement is the comparison of one metric's runs on two commits.
type judgement struct {
	Old, New    spread
	Delta       float64 // change of the median, as a share of the old median
	Pairs, Wins int     // runs paired in order; pairs the new side won
	Verdict     string
}

// judge applies the benchmark's rules. A metric is worse when its median
// moved the wrong way by more than the bound. It is better only when the
// new side won at least nine of every ten of at least ten pairs and the
// medians differ by more than the old side's interquartile range. When
// either side's runs spread wider than the bound, the verdict is unresolved
// unless every new run beats every old run.
func judge(old, new []float64, lowerBetter bool, bound float64) judgement {
	j := judgement{Old: summarize(old), New: summarize(new), Verdict: verdictUnresolved}
	if len(old) == 0 || len(new) == 0 || j.Old.Median == 0 {
		return j
	}
	gain := func(o, n float64) float64 { // > 0: the new value is better
		if lowerBetter {
			return o - n
		}
		return n - o
	}
	j.Delta = (j.New.Median - j.Old.Median) / math.Abs(j.Old.Median)
	j.Pairs = min(len(old), len(new))
	for i := 0; i < j.Pairs; i++ {
		if gain(old[i], new[i]) > 0 {
			j.Wins++
		}
	}
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			allBetter = allBetter && gain(o, n) > 0
		}
	}
	loss := -gain(j.Old.Median, j.New.Median) / math.Abs(j.Old.Median)
	switch {
	case bound == 0:
		j.Verdict = verdictInfo
	case max(j.Old.iqrFrac(), j.New.iqrFrac()) > bound:
		if allBetter {
			j.Verdict = verdictBetter
		}
	case loss > bound:
		j.Verdict = verdictWorse
	case loss < 0 && j.Pairs >= 10 && float64(j.Wins) >= 0.9*float64(j.Pairs) &&
		math.Abs(j.New.Median-j.Old.Median) > j.Old.Q3-j.Old.Q1:
		j.Verdict = verdictBetter
	default:
		j.Verdict = verdictUnchanged
	}
	return j
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// slowdown is the median host CPU slowdown the records' probes measured,
// the factor their times were normalized by.
func slowdown(recs []*record) float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Info["host_cpu_slowdown"]; ok {
			xs = append(xs, v)
		}
	}
	return stats.Median(xs)
}

// series groups record values by workload and metric, in record order.
type series map[string]map[string][]float64

func collect(recs []*record) series {
	s := series{}
	for _, r := range recs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

// specFor loads BENCHMARK.json from path, or from the checkout root when
// path is relative and absent from the working directory.
func specFor(path string) (*spec, error) {
	if !filepath.IsAbs(path) && !fileExists(path) {
		if root, err := findRoot(); err == nil {
			path = filepath.Join(root, path)
		}
	}
	return loadSpec(path)
}

// cmdCompare compares the runs of two commits, each a JSON Lines file of
// records (run -o), one row per (workload, metric).
func cmdCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-spec BENCHMARK.json] old.jsonl new.jsonl")
	}
	sp, err := specFor(*specPath)
	if err != nil {
		return err
	}
	oldRecs, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	newRecs, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	oh, nh := oldRecs[0].Host, newRecs[0].Host
	fmt.Fprintf(w, "old: commit %s dirty=%v, %s, %d CPUs, host CPU slowdown %.3f\n", oh.Commit, oh.Dirty, oh.CPUModel, oh.NumCPU, slowdown(oldRecs))
	fmt.Fprintf(w, "new: commit %s dirty=%v, %s, %d CPUs, host CPU slowdown %.3f\n", nh.Commit, nh.Dirty, nh.CPUModel, nh.NumCPU, slowdown(newRecs))
	if oh.CPUModel != nh.CPUModel || oh.NumCPU != nh.NumCPU {
		fmt.Fprintln(w, "warning: the two sides ran on different hosts")
	}
	if !oh.Measurable || !nh.Measurable {
		fmt.Fprintln(w, "warning: a side ran on fewer than two CPUs: not measurable")
	}
	old, new := collect(oldRecs), collect(newRecs)
	fmt.Fprintf(w, "%-8s %-26s %12s %25s %12s %25s %8s %7s  %s\n",
		"workload", "metric", "old median", "[q1, q3]", "new median", "[q1, q3]", "delta", "wins", "verdict")
	for _, wl := range sortedKeys(new) {
		for _, name := range sortedKeys(new[wl]) {
			m, ok := sp.metricSpec(name)
			if !ok || old[wl][name] == nil {
				continue
			}
			j := judge(old[wl][name], new[wl][name], m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-8s %-26s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g] %+7.1f%% %3d/%-3d  %s\n",
				wl, name, j.Old.Median, j.Old.Q1, j.Old.Q3, j.New.Median, j.New.Q1, j.New.Q3,
				100*j.Delta, j.Wins, j.Pairs, j.Verdict)
		}
	}
	// Outputs are deterministic per seed: a change is a behaviour change.
	type run struct {
		workload string
		seed     uint64
	}
	oldSHA := map[run]string{}
	for _, r := range oldRecs {
		oldSHA[run{r.Workload, r.Seed}] = r.OutputSHA
	}
	for _, r := range newRecs {
		if o := oldSHA[run{r.Workload, r.Seed}]; o != "" && r.OutputSHA != "" && o != r.OutputSHA {
			fmt.Fprintf(w, "OUTPUT CHANGED: %s seed %d\n", r.Workload, r.Seed)
			oldSHA[run{r.Workload, r.Seed}] = r.OutputSHA // report each once
		}
	}
	return nil
}

// cmdSummary prints, per file of records, each (workload, metric)'s median,
// quartiles and spread as JSON, under the first record's host header.
func cmdSummary(args []string, w io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: summary runs.jsonl...")
	}
	type stat struct {
		Unit     string  `json:"unit"`
		N        int     `json:"n"`
		Median   float64 `json:"median"`
		Q1       float64 `json:"q1"`
		Q3       float64 `json:"q3"`
		IQRFrac  float64 `json:"iqr_frac"`
		Outliers int     `json:"outliers"`
	}
	type invocation struct {
		File      string                     `json:"file"`
		Seeds     []uint64                   `json:"seeds"`
		Workloads map[string]map[string]stat `json:"workloads"`
	}
	var out struct {
		Host        host         `json:"host"`
		Invocations []invocation `json:"invocations"`
	}
	for _, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			return err
		}
		if len(out.Invocations) == 0 {
			out.Host = recs[0].Host
		}
		inv := invocation{File: filepath.Base(path), Workloads: map[string]map[string]stat{}}
		seen := map[uint64]bool{}
		units := map[string]string{}
		for _, r := range recs {
			if !seen[r.Seed] {
				seen[r.Seed] = true
				inv.Seeds = append(inv.Seeds, r.Seed)
			}
			for name, m := range r.Metrics {
				units[name] = m.Unit
			}
		}
		sort.Slice(inv.Seeds, func(i, j int) bool { return inv.Seeds[i] < inv.Seeds[j] })
		for wl, metrics := range collect(recs) {
			inv.Workloads[wl] = map[string]stat{}
			for name, xs := range metrics {
				s := summarize(xs)
				inv.Workloads[wl][name] = stat{units[name], s.N, s.Median, s.Q1, s.Q3, s.iqrFrac(), s.Outliers}
			}
		}
		out.Invocations = append(out.Invocations, inv)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
