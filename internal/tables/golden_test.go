package tables

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"jepo/internal/airlines"
	"jepo/internal/corpus"
	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/passes"
	"jepo/internal/sched"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden files under testdata")

// goldenRecord pins one program's complete energy fingerprint: the counts
// the meter prices (op counts, cache hits, cache misses) and the sample it
// prices them into. Joules and cycles are stored as float64 bit patterns so
// the comparison is exact: interpreter optimization work (slot frames,
// call-site caches, pooling) must not move a single count or access, and the
// sample is a pure function of the counts.
type goldenRecord struct {
	Name        string            `json:"name"`
	Output      string            `json:"output"`
	OpCounts    map[string]uint64 `json:"op_counts"`
	CacheHits   uint64            `json:"cache_hits"`
	CacheMisses uint64            `json:"cache_misses"`
	Cycles      uint64            `json:"cycles_bits"`
	Package     uint64            `json:"package_bits"`
	Core        uint64            `json:"core_bits"`
	DRAM        uint64            `json:"dram_bits"`
	// Human-readable mirrors, ignored by the comparison.
	PackageJ float64 `json:"package_joules"`
	CycleF   float64 `json:"cycles"`
}

// goldenCase is one battery entry in error-returning form, so the battery
// can run sequentially under testing.T or be sharded across the sched pool.
type goldenCase struct {
	name string
	run  func() (goldenRecord, error)
}

// fingerprint runs one program `runs` times against a fresh interpreter and
// meter and captures the cumulative charge fingerprint plus whatever it
// printed. With runs > 1 the later drives run against the site cache the
// first one filled, so the fingerprint covers the cache's hits as well as
// its first fills.
func fingerprint(engine interp.Engine, name string, runs int, load func() (*interp.Program, error), drive func(in *interp.Interp) error) (goldenRecord, error) {
	prog, err := load()
	if err != nil {
		return goldenRecord{}, err
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(2_000_000_000), interp.WithEngine(engine))
	for r := 0; r < runs; r++ {
		if err := drive(in); err != nil {
			return goldenRecord{}, err
		}
	}
	m := in.Meter()
	s := m.Snapshot()
	counts := map[string]uint64{}
	for op := 0; op < energy.NumOps; op++ {
		if n := m.OpCount(energy.Op(op)); n > 0 {
			counts[energy.Op(op).String()] = n
		}
	}
	hits, misses := m.CacheStats()
	return goldenRecord{
		Name:        name,
		Output:      in.Output(),
		OpCounts:    counts,
		CacheHits:   hits,
		CacheMisses: misses,
		Cycles:      math.Float64bits(s.Cycles),
		Package:     math.Float64bits(float64(s.Package)),
		Core:        math.Float64bits(float64(s.Core)),
		DRAM:        math.Float64bits(float64(s.DRAM)),
		PackageJ:    float64(s.Package),
		CycleF:      s.Cycles,
	}, nil
}

// goldenCases builds the full determinism battery: every Table I variant
// plus the RandomForest Table IV kernel, original and refactored. Each case
// is self-contained — its own parse, load, interpreter and meter — so cases
// can run in any order or in parallel and still produce identical records.
func goldenCases(engine interp.Engine, runs int) ([]goldenCase, error) {
	var cases []goldenCase

	loadSrc := func(src string) func() (*interp.Program, error) {
		return func() (*interp.Program, error) {
			f, err := parser.Parse("golden.java", src)
			if err != nil {
				return nil, err
			}
			return interp.Load(f)
		}
	}
	driveF := func(in *interp.Interp) error {
		if err := in.InitStatics(); err != nil {
			return err
		}
		_, err := in.CallStatic("B", "f")
		return err
	}
	addCase := func(name string, load func() (*interp.Program, error), drive func(in *interp.Interp) error) {
		cases = append(cases, goldenCase{name: name, run: func() (goldenRecord, error) {
			return fingerprint(engine, name, runs, load, drive)
		}})
	}
	for _, b := range table1Benches {
		addCase(fmt.Sprintf("table1/%v/inefficient", b.rule), loadSrc(b.slow), driveF)
		addCase(fmt.Sprintf("table1/%v/efficient", b.rule), loadSrc(b.fast), driveF)
	}

	// One Table IV kernel pair on real generated data, exercising statics,
	// objects, arrays, calls and exceptions together.
	const kernelName = "RandomForest"
	const kernelRows = 300
	proj, err := corpus.Generate(kernelName, 20200518)
	if err != nil {
		return nil, err
	}
	data := airlines.Generate(kernelRows, 20200518)
	feats, labels := kernelData(data)
	loadKernel := func(refactored bool) func() (*interp.Program, error) {
		return func() (*interp.Program, error) {
			master, err := kernelAST(proj, kernelName)
			if err != nil {
				return nil, err
			}
			// The master is read-only: load and rewrite a copy.
			kernel := ast.CloneFile(master)
			if refactored {
				files := []*ast.File{kernel}
				passes.ApplyFixes(files, passes.AnalyzeFiles(files))
			}
			return interp.Load(kernel)
		}
	}
	driveKernel := func(in *interp.Interp) error {
		if err := in.InitStatics(); err != nil {
			return err
		}
		kc := corpus.KernelClass(kernelName)
		if err := in.Bind(kc, "DATA", in.NewDoubleMatrix(feats)); err != nil {
			return err
		}
		if err := in.Bind(kc, "LABELS", in.NewIntArray(labels)); err != nil {
			return err
		}
		_, err := in.CallStatic(kc, "run", interp.IntVal(1))
		return err
	}
	addCase("table4/"+kernelName+"/original", loadKernel(false), driveKernel)
	addCase("table4/"+kernelName+"/refactored", loadKernel(true), driveKernel)
	return cases, nil
}

// goldenBattery runs the battery sequentially.
func goldenBattery(t *testing.T, engine interp.Engine, runs int) []goldenRecord {
	t.Helper()
	cases, err := goldenCases(engine, runs)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]goldenRecord, len(cases))
	for i, c := range cases {
		if recs[i], err = c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	return recs
}

// readGolden loads testdata/golden_energy.json.
func readGolden(t *testing.T) []goldenRecord {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_energy.json"))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenEnergyDeterminism is the tentpole invariant of the interpreter:
// simulated energy is a pure function of the program and cost table,
// independent of host-side interpreter optimizations AND of the execution
// engine. Both the tree-walker and the bytecode VM must reproduce the golden
// file bit-for-bit — any drift in op counts, cache hits or misses, joules,
// cycles or program output fails the test.
//
// Regenerate (only after an intentional cost-model or corpus change) with:
//
//	go test ./internal/tables -run GoldenEnergy -update
func TestGoldenEnergyDeterminism(t *testing.T) {
	path := filepath.Join("testdata", "golden_energy.json")
	if *updateGolden {
		got := goldenBattery(t, interp.EngineVM, 1)
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records)", path, len(got))
		return
	}
	want := readGolden(t)
	for _, engine := range []interp.Engine{interp.EngineVM, interp.EngineAST} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			compareGolden(t, want, goldenBattery(t, engine, 1))
		})
	}
}

// TestGoldenEnergyWarmExecution is the second-run half of the battery: every
// case is driven twice on one interpreter instance per engine, so the second
// pass runs the same lanes against a filled site cache. The cumulative
// two-run fingerprints of the VM and the tree-walker must agree bit for bit —
// a cache hit must not move a single charge. (The first run is pinned
// against the golden file by TestGoldenEnergyDeterminism; second runs have no
// golden of their own because statics mutate across runs, so the walker
// itself is the reference.)
func TestGoldenEnergyWarmExecution(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is regenerated by TestGoldenEnergyDeterminism")
	}
	ast := goldenBattery(t, interp.EngineAST, 2)
	vm := goldenBattery(t, interp.EngineVM, 2)
	compareGolden(t, ast, vm)
}

// TestGoldenEnergySchedJobs runs the same battery sharded across the sched
// pool at -jobs 1, 4 and GOMAXPROCS, against the same golden file. This is
// the parallel-determinism acceptance gate: worker count must not move a
// single charge, op count or output byte.
func TestGoldenEnergySchedJobs(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is regenerated by TestGoldenEnergyDeterminism")
	}
	want := readGolden(t)
	cases, err := goldenCases(interp.EngineVM, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobsValues := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, jobs := range jobsValues {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			got, tel, err := sched.Map(context.Background(), sched.Config{Jobs: jobs, Seed: 20200518}, cases,
				func(_ sched.Task, c goldenCase) (goldenRecord, error) {
					return c.run()
				})
			if err != nil {
				t.Fatal(err)
			}
			if tel.Tasks != len(cases) {
				t.Errorf("telemetry tasks = %d, want %d", tel.Tasks, len(cases))
			}
			compareGolden(t, want, got)
		})
	}
}

// TestGoldenEnergyPricedFromCounts re-prices every golden record from its
// own recorded counts under DefaultCosts and requires the recorded bits. Core
// picojoules are summed in uint64: every default picojoule cost is an
// integer and the float64 sum the meter keeps is exact below 2^53 pJ, so the
// recorded core energy must be that integer, converted once. Cycles, package
// and DRAM follow the meter's fixed pricing order.
func TestGoldenEnergyPricedFromCounts(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is regenerated by TestGoldenEnergyDeterminism")
	}
	costs := energy.DefaultCosts()
	pj := func(c energy.Cost) uint64 {
		p := uint64(c.Picojoules)
		if float64(p) != c.Picojoules {
			t.Fatalf("default cost %v pJ is not an integer", c.Picojoules)
		}
		return p
	}
	for _, w := range readGolden(t) {
		var sum uint64
		var cycles float64
		priced := 0
		for op := 0; op < energy.NumOps; op++ {
			n, ok := w.OpCounts[energy.Op(op).String()]
			if !ok {
				continue
			}
			priced++
			c := costs.Ops[op]
			sum += pj(c) * n
			cycles += c.Cycles * float64(n)
		}
		if priced != len(w.OpCounts) {
			t.Errorf("%s: %d of %d recorded ops are not in the cost table", w.Name, len(w.OpCounts)-priced, len(w.OpCounts))
		}
		hits, misses := float64(w.CacheHits), float64(w.CacheMisses)
		sum += pj(costs.CacheHit)*w.CacheHits + pj(costs.CacheMiss)*w.CacheMisses
		cycles += costs.CacheHit.Cycles * hits
		cycles += costs.CacheMiss.Cycles * misses
		core := energy.Picojoules(float64(sum))
		pkg := core + energy.Joules(costs.UncoreWatts*(cycles/costs.FrequencyHz))
		dram := energy.Joules(costs.DRAMJoulesPerMiss * misses)
		if math.Float64bits(float64(core)) != w.Core {
			t.Errorf("%s: core priced from counts = %v (%d pJ), golden %v",
				w.Name, core, sum, math.Float64frombits(w.Core))
		}
		if math.Float64bits(cycles) != w.Cycles {
			t.Errorf("%s: cycles priced from counts = %v, golden %v", w.Name, cycles, math.Float64frombits(w.Cycles))
		}
		if math.Float64bits(float64(pkg)) != w.Package {
			t.Errorf("%s: package priced from counts = %v, golden %v", w.Name, pkg, math.Float64frombits(w.Package))
		}
		if math.Float64bits(float64(dram)) != w.DRAM {
			t.Errorf("%s: dram priced from counts = %v, golden %v", w.Name, dram, math.Float64frombits(w.DRAM))
		}
	}
}

// compareGolden diffs one engine's battery against the golden records.
func compareGolden(t *testing.T, want, got []goldenRecord) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("battery size changed: golden has %d records, run produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.Name {
			t.Errorf("record %d: name %q, golden %q", i, g.Name, w.Name)
			continue
		}
		if g.Output != w.Output {
			t.Errorf("%s: program output drifted", w.Name)
		}
		if g.Cycles != w.Cycles || g.Package != w.Package || g.Core != w.Core || g.DRAM != w.DRAM {
			t.Errorf("%s: energy drifted: package %v (golden %v), cycles %v (golden %v)",
				w.Name, math.Float64frombits(g.Package), math.Float64frombits(w.Package),
				math.Float64frombits(g.Cycles), math.Float64frombits(w.Cycles))
		}
		for op, n := range w.OpCounts {
			if g.OpCounts[op] != n {
				t.Errorf("%s: op %s count = %d, golden %d", w.Name, op, g.OpCounts[op], n)
			}
		}
		for op, n := range g.OpCounts {
			if _, ok := w.OpCounts[op]; !ok {
				t.Errorf("%s: new op %s charged %d times, absent from golden", w.Name, op, n)
			}
		}
		if g.CacheHits != w.CacheHits || g.CacheMisses != w.CacheMisses {
			t.Errorf("%s: cache hits/misses = %d/%d, golden %d/%d",
				w.Name, g.CacheHits, g.CacheMisses, w.CacheHits, w.CacheMisses)
		}
	}
}
