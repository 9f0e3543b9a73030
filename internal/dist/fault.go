// The chaos harness: scripted or seeded node faults injected at the
// transport layer, mirroring rapl's ScriptedMSR/FaultyMSR design one level
// up the stack — there a read lies or dies, here a whole node does. The
// executor never knows it is being tested; it sees exactly what a real
// crashed, hung, slow or babbling worker would produce.
package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// EnvPlan returns the fault plan scripted in $JEPO_DIST_FAULTS, or nil
// when the variable is unset. CLIs install it on their executor config so
// shell gates can kill and hang workers without extra flags.
func EnvPlan() (*FaultPlan, error) {
	spec := os.Getenv(FaultsEnv)
	if spec == "" {
		return nil, nil
	}
	return ParseFaultPlan(spec)
}

// FaultKind is one injected node behavior.
type FaultKind int

const (
	// FaultNone: the task passes through untouched.
	FaultNone FaultKind = iota
	// FaultKill crashes the node at the moment the task is assigned.
	FaultKill
	// FaultHang swallows the assignment: the node goes silent and only the
	// executor's deadline can reclaim the task.
	FaultHang
	// FaultSlow delays the assignment's delivery.
	FaultSlow
	// FaultCorrupt lets the task run but mangles the result JSON on its
	// way back.
	FaultCorrupt
)

func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultHang:
		return "hang"
	case FaultSlow:
		return "slow"
	case FaultCorrupt:
		return "corrupt"
	default:
		return "none"
	}
}

// FaultRates are per-assignment probabilities for the seeded-random mode.
type FaultRates struct {
	Kill, Hang, Slow, Corrupt float64
}

// FaultPlan decides which fault, if any, strikes the nth task assigned to
// a node. Like rapl.ScriptedMSR it has a scripted mode (exact placement,
// for acceptance tests) and a seeded-random mode (rates drawn from a
// splitmix64 stream keyed by (seed, node, nth), for the differential
// fuzz). The decision is a pure function of (node, nth), so a plan is
// reusable and ordering-independent.
type FaultPlan struct {
	// Script maps node id → nth assigned task (0-based) → fault. When
	// non-nil it overrides the random mode entirely.
	Script map[int]map[int]FaultKind
	// Seed keys the random stream; Rates are the per-assignment odds.
	Seed  uint64
	Rates FaultRates
	// SlowBy is the delay FaultSlow injects (default 2ms).
	SlowBy time.Duration
}

// at resolves the fault for a node's nth assignment.
func (p *FaultPlan) at(node, nth int) FaultKind {
	if p == nil {
		return FaultNone
	}
	if p.Script != nil {
		return p.Script[node][nth]
	}
	r := p.Rates
	total := r.Kill + r.Hang + r.Slow + r.Corrupt
	if total <= 0 {
		return FaultNone
	}
	// One independent splitmix64 draw per (seed, node, nth) cell, the same
	// derivation-style rapl's faultRNG uses: no stream is shared across
	// assignments, so injection cannot depend on scheduling order.
	z := p.Seed + (uint64(node)+1)*0x9E3779B97F4A7C15 + (uint64(nth)+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	x := float64(z>>11) / (1 << 53)
	switch {
	case x < r.Kill:
		return FaultKill
	case x < r.Kill+r.Hang:
		return FaultHang
	case x < r.Kill+r.Hang+r.Slow:
		return FaultSlow
	case x < total:
		return FaultCorrupt
	default:
		return FaultNone
	}
}

func (p *FaultPlan) slowBy() time.Duration {
	if p != nil && p.SlowBy > 0 {
		return p.SlowBy
	}
	return 2 * time.Millisecond
}

// ParseFaultPlan parses the scripted spec format the CLIs accept via
// JEPO_DIST_FAULTS: semicolon-separated "node:kind@nth" clauses, e.g.
// "1:kill@1;2:hang@0" kills node 1 on its second assigned task and hangs
// node 2 on its first.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	script := make(map[int]map[int]FaultKind)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		nodeStr, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("dist: fault clause %q: want node:kind@nth", clause)
		}
		kindStr, nthStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("dist: fault clause %q: want node:kind@nth", clause)
		}
		node, err := strconv.Atoi(strings.TrimSpace(nodeStr))
		if err != nil || node < 0 {
			return nil, fmt.Errorf("dist: fault clause %q: bad node id", clause)
		}
		nth, err := strconv.Atoi(strings.TrimSpace(nthStr))
		if err != nil || nth < 0 {
			return nil, fmt.Errorf("dist: fault clause %q: bad task ordinal", clause)
		}
		var kind FaultKind
		switch strings.TrimSpace(kindStr) {
		case "kill":
			kind = FaultKill
		case "hang":
			kind = FaultHang
		case "slow":
			kind = FaultSlow
		case "corrupt":
			kind = FaultCorrupt
		default:
			return nil, fmt.Errorf("dist: fault clause %q: unknown kind %q", clause, kindStr)
		}
		if script[node] == nil {
			script[node] = make(map[int]FaultKind)
		}
		script[node][nth] = kind
	}
	if len(script) == 0 {
		return nil, fmt.Errorf("dist: empty fault spec %q", spec)
	}
	return &FaultPlan{Script: script}, nil
}

// ChaosSpawner wraps a transport with a fault plan. Faults trigger on task
// assignment: kills crash the node, hangs swallow the task and everything
// after it, slows delay delivery, corrupts mangle that task's result.
func ChaosSpawner(inner Spawner, plan *FaultPlan) Spawner {
	return func(id int) (Conn, error) {
		c, err := inner(id)
		if err != nil {
			return nil, err
		}
		return &chaosConn{inner: c, plan: plan, node: id, corrupt: make(map[int]bool)}, nil
	}
}

// chaosConn injects one node's faults.
type chaosConn struct {
	inner Conn
	plan  *FaultPlan
	node  int

	mu      sync.Mutex
	nth     int
	hung    bool
	corrupt map[int]bool
}

func (c *chaosConn) Send(m *Message) error {
	if m.Type != MsgTask {
		return c.inner.Send(m)
	}
	c.mu.Lock()
	kind := c.plan.at(c.node, c.nth)
	c.nth++
	switch kind {
	case FaultKill:
		c.mu.Unlock()
		return c.inner.Kill()
	case FaultHang:
		c.hung = true
		c.mu.Unlock()
		// The assignment vanishes: the worker never sees it, the
		// executor sees silence until its deadline fires.
		return nil
	case FaultCorrupt:
		c.corrupt[m.Index] = true
		c.mu.Unlock()
		return c.inner.Send(m)
	case FaultSlow:
		c.mu.Unlock()
		time.Sleep(c.plan.slowBy())
		return c.inner.Send(m)
	default:
		c.mu.Unlock()
		return c.inner.Send(m)
	}
}

func (c *chaosConn) Recv() (*Message, error) {
	for {
		m, err := c.inner.Recv()
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		if c.hung {
			// A hung node emits nothing, ever.
			c.mu.Unlock()
			continue
		}
		if m.Type == MsgResult && c.corrupt[m.Index] {
			delete(c.corrupt, m.Index)
			c.mu.Unlock()
			m.Result = json.RawMessage(`{"truncated mid-wr`)
			return m, nil
		}
		c.mu.Unlock()
		return m, nil
	}
}

func (c *chaosConn) Close() error { return c.inner.Close() }
func (c *chaosConn) Kill() error  { return c.inner.Kill() }
