package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags wires the standard pprof pair (-cpuprofile/-memprofile) into a
// flag set. The CPU profile covers everything between start and stop, and
// the heap profile is written at stop time after a final GC, so it shows
// live objects rather than collection noise.
type profileFlags struct {
	cpu *string
	mem *string

	cpuFile *os.File
}

func registerProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// start begins CPU profiling if requested. Call stop before exiting.
func (p *profileFlags) start() error {
	if *p.cpu == "" {
		return nil
	}
	f, err := os.Create(*p.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// stop ends CPU profiling and writes the heap profile, if requested. Errors
// go to stderr: a failed profile write should not fail the measurement run
// whose report already printed.
func (p *profileFlags) stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "jperf: cpuprofile:", err)
		}
		p.cpuFile = nil
	}
	if *p.mem != "" {
		f, err := os.Create(*p.mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jperf: memprofile:", err)
			return
		}
		runtime.GC() // up-to-date live-object statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "jperf: memprofile:", err)
		}
		f.Close()
	}
}
