package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"jepo/internal/core"
	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
	"jepo/internal/profile"
	"jepo/internal/rapl"
	"jepo/internal/service"
)

// replayPlan is the serve run's request plan with the daemon's responses,
// as the harness writes it.
type replayPlan struct {
	Path     string   `json:"path"`
	Initial  []string `json:"initial"`
	Warm     []string `json:"warm"`
	Requests []struct {
		Kind    string `json:"kind"`
		Session int    `json:"session"`
		Source  string `json:"source"`
		Expect  string `json:"expect"`
	} `json:"requests"`
}

func loadReplay(path string) (*replayPlan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p replayPlan
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(p.Warm) != len(p.Initial) {
		return nil, fmt.Errorf("%s: %d sessions but %d first responses", path, len(p.Initial), len(p.Warm))
	}
	return &p, nil
}

// serveCfg is how jepod -jobs 2 configures every session request.
var serveCfg = core.AnalyzeConfig{Engine: vm, Jobs: 2}

// session replays one daemon's sessions against one store, as jepod's
// sessions share one.
type session struct {
	m       *mirror
	p       *replayPlan
	sources []string
}

func (s *session) analyze(l *lane, i int) (string, error) {
	rep, err := s.m.analyze(l, core.Project{s.p.Path: s.sources[i]}, serveCfg)
	if err != nil {
		return "", err
	}
	l.begin(layerRender)
	defer l.end()
	return service.RenderAnalyze(rep), nil
}

// setUp runs the sessions' first analyses, untraced. It returns how many
// responses differ from the daemon's.
func (m *mirror) setUp(p *replayPlan) (*session, int, error) {
	s := &session{m: m, p: p, sources: append([]string(nil), p.Initial...)}
	mismatches := 0
	for i := range s.sources {
		out, err := s.analyze(nil, i)
		if err != nil {
			return nil, 0, err
		}
		if out != p.Warm[i] {
			mismatches++
		}
	}
	return s, mismatches, nil
}

// requests replays every request in schedule order, each with a span tree
// of its own. It returns how many responses differ from the daemon's.
func (s *session) requests() (mismatches int, err error) {
	m, p := s.m, s.p
	for _, r := range p.Requests {
		l := m.tr.lane()
		l.begin(glue)
		var out string
		switch r.Kind {
		case "read":
			out, err = s.analyze(l, r.Session)
		case "edit":
			s.sources[r.Session] = r.Source
			out, err = s.analyze(l, r.Session)
		case "profile":
			var res *core.ProfileResult
			if res, err = m.profile(l, core.Project{p.Path: s.sources[r.Session]}); err == nil {
				l.begin(layerRender)
				out = service.RenderProfile(res)
				l.end()
			}
		default:
			err = fmt.Errorf("unknown request kind %q", r.Kind)
		}
		l.end()
		l.release()
		if err != nil {
			return mismatches, err
		}
		// A request that failed against the daemon has no response to match.
		if r.Expect != "" && out != r.Expect {
			mismatches++
		}
	}
	return mismatches, nil
}

// profile is core.Profile: the instrumented program from the store, run
// live under the probe profiler.
func (m *mirror) profile(l *lane, p core.Project) (*core.ProfileResult, error) {
	prog, err := m.program(l, engine.Sources(p), true)
	if err != nil {
		return nil, err
	}
	l.begin(layerExec)
	defer l.end()
	meter := energy.NewMeter(energy.DefaultCosts())
	prof := profile.New(rapl.NewSimSource(meter), func() time.Duration { return meter.Snapshot().Elapsed })
	in := interp.New(prog, meter, interp.WithHook(prof), interp.WithMaxOps(500_000_000), interp.WithEngine(vm), interp.WithContext(m.ctx))
	defer l.countRun(in, meter)
	if err := in.RunMain(""); err != nil {
		return nil, err
	}
	if err := prof.Err(); err != nil {
		return nil, err
	}
	return &core.ProfileResult{Profiler: prof, Stdout: in.Output(), Sample: meter.Snapshot()}, nil
}
