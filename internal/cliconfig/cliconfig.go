// Package cliconfig is the one place the repository's command-line surfaces
// declare their shared execution knobs. jepo, jperf, wekaexp and the jepod
// daemon expose the same flags — -engine and -jobs — and before this
// package each binary re-declared them with drifting help strings. Register
// once, Parse, then read the typed accessors.
package cliconfig

import (
	"flag"
	"runtime"

	"jepo/internal/minijava/interp"
)

// Feature selects which flag groups Register declares.
type Feature uint

const (
	// FeatEngine declares -engine (vm | ast).
	FeatEngine Feature = 1 << iota
	// FeatJobs declares -jobs (in-process pool width; pure wall-clock knob).
	FeatJobs
)

// Set holds the parsed shared flags of one command. Accessors are valid
// only after the owning FlagSet has been parsed.
type Set struct {
	engineName *string
	jobs       *int
}

// Register declares the flag groups selected by features on fs. Call before
// fs.Parse.
func Register(fs *flag.FlagSet, features Feature) *Set {
	s := &Set{}
	if features&FeatEngine != 0 {
		s.engineName = fs.String("engine", "vm", "execution engine: vm (bytecode) or ast (tree-walker)")
	}
	if features&FeatJobs != 0 {
		s.jobs = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker pool width; stdout is bit-identical at any value (telemetry goes to stderr)")
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
