package cliconfig

import (
	"flag"
	"io"
	"testing"
	"time"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestDefaults(t *testing.T) {
	fs := newFlagSet()
	s := Register(fs, FeatEngine|FeatJobs|FeatDist)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	eng, err := s.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.String() != "vm" {
		t.Errorf("default engine = %v, want vm", eng)
	}
	if s.Jobs() <= 0 {
		t.Errorf("default jobs = %d, want > 0", s.Jobs())
	}
	if s.Workers() != 1 {
		t.Errorf("default workers = %d, want 1", s.Workers())
	}
	if s.NodeDeadline() != 10*time.Second {
		t.Errorf("default node-deadline = %v, want 10s", s.NodeDeadline())
	}
}

func TestParsedValues(t *testing.T) {
	fs := newFlagSet()
	s := Register(fs, FeatEngine|FeatJobs|FeatDist)
	args := []string{
		"-engine", "ast", "-jobs", "3", "-workers", "4",
		"-node-deadline", "2s",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	eng, err := s.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.String() != "ast" {
		t.Errorf("engine = %v, want ast", eng)
	}
	if s.Jobs() != 3 || s.Workers() != 4 || s.NodeDeadline() != 2*time.Second {
		t.Errorf("jobs/workers/deadline = %d/%d/%v, want 3/4/2s",
			s.Jobs(), s.Workers(), s.NodeDeadline())
	}
}

func TestFeatureGating(t *testing.T) {
	fs := newFlagSet()
	Register(fs, 0)
	fs.VisitAll(func(f *flag.Flag) {
		t.Errorf("flag -%s registered without a feature bit", f.Name)
	})
}

// TestDistConfigReadsJobs: DistConfig folds -workers, -node-deadline, the
// seed and the event sink into the one executor config, and with -jobs
// declared the pool width too, so the same value places a map in process.
func TestDistConfigReadsJobs(t *testing.T) {
	fs := newFlagSet()
	s := Register(fs, FeatDist)
	if err := fs.Parse([]string{"-workers", "3", "-node-deadline", "1s"}); err != nil {
		t.Fatal(err)
	}
	var events []string
	cfg := s.DistConfig(42, func(msg string) { events = append(events, msg) })
	if cfg.Workers != 3 || cfg.Seed != 42 || cfg.Deadline != time.Second || cfg.Jobs != 0 {
		t.Errorf("executor config = %+v, want workers=3 seed=42 deadline=1s and no -jobs width", cfg)
	}
	cfg.OnEvent("probe")
	if len(events) != 1 || events[0] != "probe" {
		t.Errorf("OnEvent not wired: %v", events)
	}

	fs = newFlagSet()
	s = Register(fs, FeatJobs|FeatDist)
	if err := fs.Parse([]string{"-jobs", "5"}); err != nil {
		t.Fatal(err)
	}
	if cfg := s.DistConfig(7, nil); cfg.Jobs != 5 || cfg.Workers != 1 || cfg.Seed != 7 {
		t.Errorf("executor config = %+v, want jobs=5 workers=1 seed=7", cfg)
	}
}
