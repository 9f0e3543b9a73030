// Process placement: each worker goroutine of the executor owns one worker
// process ("node") and runs a task by sending it over the dist transport and
// waiting for the reply. The node failure policy lives here, the claim,
// requeue and commit in execute:
//
//   - A task error or panic comes back as the task's error: final, and the
//     node stays in service.
//   - A node fault — a spawn failure, a lost connection, silence past
//     Deadline (heartbeats re-arm it), or a corrupt or out-of-protocol
//     reply — puts the in-flight task back on the queue, charged nothing.
//   - A dead or silent node is quarantined at once. A corrupt reply is a
//     strike; three strikes quarantine the node.
package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"jepo/internal/dist"
)

// strikes is how many corrupt replies quarantine a node.
const strikes = 3

// node is one worker process as its executor worker sees it.
type node struct {
	id      int
	conn    dist.Conn
	msgs    chan reply    // the reader goroutine's deliveries, taken while a task runs
	quit    chan struct{} // closed at shutdown: the reader discards from then on
	strikes int
	gone    bool
}

type reply struct {
	msg *dist.Message
	err error
}

// nodeSet is one map's process placement.
type nodeSet struct {
	ctx    context.Context
	cfg    Config
	kind   string
	params json.RawMessage
	decode func(i int, result json.RawMessage) error
	nodes  []*node

	timeouts, corrupt, deaths, quarantines atomic.Int32
}

// spawnNodes starts want nodes. A node that fails to spawn is dead at
// birth: counted, narrated, and left out of the placement.
func spawnNodes(ctx context.Context, cfg Config, want int, kind string, params json.RawMessage, decode func(int, json.RawMessage) error) *nodeSet {
	s := &nodeSet{ctx: ctx, cfg: cfg, kind: kind, params: params, decode: decode}
	spawn := cfg.Spawn
	if spawn == nil {
		spawn = dist.SelfSpawner()
	}
	for id := 0; id < want; id++ {
		conn, err := spawn(id)
		if err != nil {
			s.deaths.Add(1)
			s.quarantines.Add(1)
			cfg.say("sched: node %d failed to spawn: %v", id, err)
			continue
		}
		nd := &node{id: id, conn: conn, msgs: make(chan reply), quit: make(chan struct{})}
		go nd.read()
		s.nodes = append(s.nodes, nd)
	}
	return s
}

// read delivers the node's messages until its stream fails. After quit it
// keeps draining, so a worker blocked writing a late reply can finish and
// see its stream close.
func (nd *node) read() {
	for {
		m, err := nd.conn.Recv()
		select {
		case nd.msgs <- reply{m, err}:
		case <-nd.quit:
		}
		if err != nil {
			return
		}
	}
}

func (s *nodeSet) placement() placement {
	return placement{width: len(s.nodes), nodes: true, run: s.run}
}

// run sends task t to worker w's node and waits for the reply.
func (s *nodeSet) run(w int, t Task) error {
	nd := s.nodes[w]
	m := &dist.Message{Type: dist.MsgTask, Index: t.Index, Seed: t.Seed, Kind: s.kind, Params: s.params,
		HeartbeatMs: (s.cfg.Deadline / 4).Milliseconds()}
	if err := nd.conn.Send(m); err != nil {
		s.deaths.Add(1)
		return s.quarantine(nd, t, "send: "+err.Error(), true)
	}
	// The tick scans for silence; each heartbeat for this task re-arms it.
	var tick <-chan time.Time
	if s.cfg.Deadline > 0 {
		ticker := time.NewTicker(min(max(s.cfg.Deadline/4, time.Millisecond), 250*time.Millisecond))
		defer ticker.Stop()
		tick = ticker.C
	}
	lastBeat := time.Now()
	for {
		select {
		case r := <-nd.msgs:
			if r.err != nil {
				s.deaths.Add(1)
				return s.quarantine(nd, t, "connection lost: "+r.err.Error(), false)
			}
			switch m := r.msg; m.Type {
			case dist.MsgHello:
			case dist.MsgHeartbeat:
				if m.Index == t.Index {
					lastBeat = time.Now()
				}
			case dist.MsgResult:
				if m.Index != t.Index {
					return s.strike(nd, t, "result for unassigned task")
				}
				if len(m.Result) == 0 || s.decode(t.Index, m.Result) != nil {
					return s.strike(nd, t, "corrupt result payload")
				}
				return nil
			case dist.MsgError:
				if m.Index != t.Index {
					return s.strike(nd, t, "error for unassigned task")
				}
				return errors.New(m.Err)
			default:
				return s.strike(nd, t, fmt.Sprintf("unexpected %q message", m.Type))
			}
		case <-tick:
			if time.Since(lastBeat) > s.cfg.Deadline {
				s.timeouts.Add(1)
				return s.quarantine(nd, t, fmt.Sprintf("task %d silent past deadline %v", t.Index, s.cfg.Deadline), true)
			}
		case <-s.ctx.Done():
			// Cancelled: the task is abandoned; close shuts the node down.
			return s.ctx.Err()
		}
	}
}

// strike punishes a corrupt or out-of-protocol reply. The task goes back on
// the queue either way; the third strike also quarantines the node.
func (s *nodeSet) strike(nd *node, t Task, reason string) error {
	s.corrupt.Add(1)
	if nd.strikes++; nd.strikes >= strikes {
		return s.quarantine(nd, t, reason, true)
	}
	s.cfg.say("sched: task %d reassigned from node %d (%s)", t.Index, nd.id, reason)
	return &nodeFault{}
}

// quarantine removes a node from service; its in-flight task goes back on
// the queue. kill tears down a node that may still be running.
func (s *nodeSet) quarantine(nd *node, t Task, reason string, kill bool) error {
	s.quarantines.Add(1)
	nd.gone = true
	s.cfg.say("sched: node %d quarantined: %s; task %d reassigned", nd.id, reason, t.Index)
	if kill {
		go nd.conn.Kill()
	}
	return &nodeFault{gone: true}
}

// count copies the node tallies into the map's telemetry.
func (s *nodeSet) count(tel *Telemetry) {
	tel.Timeouts, tel.Corrupt = int(s.timeouts.Load()), int(s.corrupt.Load())
	tel.Deaths, tel.Quarantines = int(s.deaths.Load()), int(s.quarantines.Load())
}

// close shuts every node still in service down gracefully, tears down (and
// so reaps) the quarantined ones, and lets every reader drain to the end of
// its stream.
func (s *nodeSet) close() {
	for _, nd := range s.nodes {
		if nd.gone {
			nd.conn.Kill()
		} else {
			nd.conn.Send(&dist.Message{Type: dist.MsgShutdown})
			nd.conn.Close()
		}
		close(nd.quit)
	}
}
