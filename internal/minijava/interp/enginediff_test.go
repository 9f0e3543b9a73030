//go:build enginediff

// Differential engine fuzz: the bytecode VM and the tree-walker must be
// observationally identical — same results, same printed output, same op
// counts, same energy bits — on every program. The test drives both engines
// over (a) the Table I benchmark corpus and (b) seeded randomly generated
// programs exercising locals, statics, fields, arrays, loops, switches,
// short-circuits, casts, instanceof, calls, exceptions thrown from compiled
// code, and assignments and ++/-- used as values, with expressions over
// every numeric kind (int, long, float and double; short, byte and char
// through casts), the bitwise and shift operators, and mixed-kind operands.
// Any divergence is a compiler or dispatch bug, never acceptable drift.
//
// The profiled pass runs the same programs with every method labelled by
// instrument.Inject and a hook that logs each probe event with the meter's
// package-energy and cycle bits at that moment, so both engines must also
// fire the same events at the same points of the charge sequence.
//
// Run with:
//
//	go test -tags enginediff -run EngineDiff ./internal/minijava/interp
package interp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/tables"
)

// observation is everything one engine run exposes.
type observation struct {
	errText string
	kind    interp.Kind
	i       int64
	dBits   uint64
	out     string
	ops     int64
	cycles  uint64 // Float64bits of the meter's cycle count
	pkg     uint64 // Float64bits of package Joules
	core    uint64
}

// observe runs class.method() twice on ONE engine instance — cold, then warm
// — and captures an observation at each run boundary. The second VM run
// executes this instance's quickened code copies and hits its filled site
// cache, so comparing both boundaries pins that runtime quickening never
// shifts a result, an op count or an energy bit. (The two runs are not
// expected to match each other: statics mutate across runs. Each boundary is
// compared against the same boundary on the other engine.) A run that errors
// ends the sequence — both engines must fail identically at the same point.
//
// A profiled observation labels every method for probing first and returns
// the hook's event log as well.
func observe(t *testing.T, src, class, method string, e interp.Engine, profiled bool) ([]observation, []string) {
	t.Helper()
	f, err := parser.Parse("fuzz.java", src)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	if profiled {
		instrument.Inject(f)
	}
	prog, err := interp.Load(f)
	if err != nil {
		t.Fatalf("load: %v\nsource:\n%s", err, src)
	}
	meter := energy.NewMeter(energy.DefaultCosts())
	hook := &meterHook{meter: meter}
	in := interp.New(prog, meter, interp.WithMaxOps(100_000_000), interp.WithEngine(e), interp.WithHook(hook))
	if err := in.InitStatics(); err != nil {
		return []observation{{errText: "init: " + err.Error()}}, hook.events
	}
	var obs []observation
	for run := 0; run < 2; run++ {
		var o observation
		v, err := in.CallStatic(class, method)
		if err != nil {
			o.errText = err.Error()
		}
		s := in.Meter().Snapshot()
		o.kind = v.K
		o.i = v.I
		o.dBits = math.Float64bits(v.D)
		o.out = in.Output()
		o.ops = in.Ops()
		o.cycles = math.Float64bits(s.Cycles)
		o.pkg = math.Float64bits(float64(s.Package))
		o.core = math.Float64bits(float64(s.Core))
		obs = append(obs, o)
		if err != nil {
			break
		}
	}
	return obs, hook.events
}

// meterHook logs every probe event with the meter's package-energy and
// cycle bits at the moment it fires.
type meterHook struct {
	meter  *energy.Meter
	events []string
}

func (h *meterHook) Enter(m string) { h.log("+", m) }
func (h *meterHook) Exit(m string)  { h.log("-", m) }

func (h *meterHook) log(dir, m string) {
	s := h.meter.Snapshot()
	h.events = append(h.events, fmt.Sprintf("%s%s pkg=%#x cycles=%#x",
		dir, m, math.Float64bits(float64(s.Package)), math.Float64bits(s.Cycles)))
}

// diffEngines asserts observational identity of the two engines on src, at
// both the cold and the warm run boundary and, when profiled, at every probe
// event.
func diffEngines(t *testing.T, name, src, class, method string, profiled bool) {
	t.Helper()
	vm, vmEvents := observe(t, src, class, method, interp.EngineVM, profiled)
	ast, astEvents := observe(t, src, class, method, interp.EngineAST, profiled)
	if profiled && len(vmEvents) == 0 {
		t.Errorf("%s: profiled run fired no probe events", name)
	}
	for i := 0; i < len(vmEvents) || i < len(astEvents); i++ {
		var v, a string
		if i < len(vmEvents) {
			v = vmEvents[i]
		}
		if i < len(astEvents) {
			a = astEvents[i]
		}
		if v != a {
			t.Errorf("%s: probe event %d diverged\n  vm:  %s\n  ast: %s", name, i, v, a)
			break
		}
	}
	if len(vm) != len(ast) {
		t.Errorf("%s: engines diverged in run count: vm %d, ast %d\nsource:\n%s",
			name, len(vm), len(ast), src)
		return
	}
	for i := range vm {
		if vm[i] != ast[i] {
			t.Errorf("%s: engines diverged on run %d\n  vm:  %+v\n  ast: %+v\nsource:\n%s",
				name, i+1, vm[i], ast[i], src)
		}
	}
}

func TestEngineDiffTableICorpus(t *testing.T) { diffTableICorpus(t, false) }

func TestEngineDiffRandomPrograms(t *testing.T) { diffRandomPrograms(t, false) }

func TestEngineDiffProfiledTableICorpus(t *testing.T) { diffTableICorpus(t, true) }

func TestEngineDiffProfiledRandomPrograms(t *testing.T) { diffRandomPrograms(t, true) }

func diffTableICorpus(t *testing.T, profiled bool) {
	for _, b := range tables.InterpBenches() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			diffEngines(t, b.Name, b.Src, "B", "f", profiled)
		})
	}
}

func diffRandomPrograms(t *testing.T, profiled bool) {
	const programs = 60
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			src := generate(rand.New(rand.NewSource(seed)))
			diffEngines(t, fmt.Sprintf("seed %d", seed), src, "F", "f", profiled)
		})
	}
}
