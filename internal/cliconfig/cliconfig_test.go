package cliconfig

import (
	"flag"
	"io"
	"testing"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestDefaults(t *testing.T) {
	fs := newFlagSet()
	s := Register(fs, FeatEngine|FeatJobs)
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
}

func TestParsedValues(t *testing.T) {
	fs := newFlagSet()
	s := Register(fs, FeatEngine|FeatJobs)
	args := []string{"-engine", "ast", "-jobs", "3"}
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
	if s.Jobs() != 3 {
		t.Errorf("jobs = %d, want 3", s.Jobs())
	}
}

func TestFeatureGating(t *testing.T) {
	fs := newFlagSet()
	Register(fs, 0)
	fs.VisitAll(func(f *flag.Flag) {
		t.Errorf("flag -%s registered without a feature bit", f.Name)
	})
}
