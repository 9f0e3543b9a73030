// Package cliconfig is the one place the repository's command-line surfaces
// declare their shared execution knobs. jepo, jperf, wekaexp and the jepod
// daemon expose the same flags — -engine, -jobs, and on the batch commands
// -workers and -node-deadline — and before this package each binary
// re-declared them with drifting help strings. Register once, Parse, then
// read the typed accessors.
//
// DistConfig is the one constructor of the executor config (sched.Config)
// a command maps with: it reads -jobs, -workers, -node-deadline and the
// JEPO_DIST_FAULTS chaos plan, so one call places a map in process or on
// worker processes.
package cliconfig

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"jepo/internal/dist"
	"jepo/internal/minijava/interp"
	"jepo/internal/sched"
)

// Feature selects which flag groups Register declares.
type Feature uint

const (
	// FeatEngine declares -engine (vm | ast).
	FeatEngine Feature = 1 << iota
	// FeatJobs declares -jobs (in-process pool width; pure wall-clock knob).
	FeatJobs
	// FeatDist declares -workers and -node-deadline (process placement).
	FeatDist
)

// Set holds the parsed shared flags of one command. Accessors are valid
// only after the owning FlagSet has been parsed.
type Set struct {
	features Feature

	engineName   *string
	jobs         *int
	workers      *int
	nodeDeadline *time.Duration
}

// Register declares the flag groups selected by features on fs. Call before
// fs.Parse.
func Register(fs *flag.FlagSet, features Feature) *Set {
	s := &Set{features: features}
	if features&FeatEngine != 0 {
		s.engineName = fs.String("engine", "vm", "execution engine: vm (bytecode) or ast (tree-walker)")
	}
	if features&FeatJobs != 0 {
		s.jobs = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker pool width; stdout is bit-identical at any value (telemetry goes to stderr)")
	}
	if features&FeatDist != 0 {
		s.workers = fs.Int("workers", 1, "worker processes; >1 places tasks on re-exec'd workers with fault tolerance (stdout stays bit-identical)")
		s.nodeDeadline = fs.Duration("node-deadline", 10*time.Second, "silence window after which a worker node is quarantined and its task reassigned")
	}
	return s
}

// Engine resolves the parsed -engine name. Requires FeatEngine.
func (s *Set) Engine() (interp.Engine, error) {
	if s.engineName == nil {
		panic("cliconfig: Engine() without FeatEngine")
	}
	return interp.ParseEngine(*s.engineName)
}

// Jobs returns the parsed -jobs value. Requires FeatJobs.
func (s *Set) Jobs() int {
	if s.jobs == nil {
		panic("cliconfig: Jobs() without FeatJobs")
	}
	return *s.jobs
}

// Workers returns the parsed -workers value. Requires FeatDist.
func (s *Set) Workers() int {
	if s.workers == nil {
		panic("cliconfig: Workers() without FeatDist")
	}
	return *s.workers
}

// NodeDeadline returns the parsed -node-deadline value. Requires FeatDist.
func (s *Set) NodeDeadline() time.Duration {
	if s.nodeDeadline == nil {
		panic("cliconfig: NodeDeadline() without FeatDist")
	}
	return *s.nodeDeadline
}

// DistConfig assembles the executor configuration a command maps with: the
// parsed -jobs width (when declared), worker count and node deadline, the
// map's base seed, the JEPO_DIST_FAULTS chaos plan from the environment,
// and fault-path events narrated through onEvent (stderr material — never
// stdout). Requires FeatDist.
func (s *Set) DistConfig(seed uint64, onEvent func(string)) (sched.Config, error) {
	plan, err := dist.EnvPlan()
	if err != nil {
		return sched.Config{}, fmt.Errorf("cliconfig: %w", err)
	}
	cfg := sched.Config{
		Seed:     seed,
		Workers:  s.Workers(),
		Deadline: s.NodeDeadline(),
		Plan:     plan,
		OnEvent:  onEvent,
	}
	if s.jobs != nil {
		cfg.Jobs = *s.jobs
	}
	return cfg, nil
}
