// The worker side of the protocol: a loop that decodes task assignments,
// runs them through the handler, and streams heartbeats while a task is
// in flight so the executor can tell "slow" from "hung".
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Serve runs the worker loop: read assignments from r, write hello,
// heartbeat and completion messages to w. It returns nil on a clean
// shutdown (MsgShutdown or EOF — the executor closing the task stream is
// the normal end of a map) and an error only when the transport itself
// fails.
//
// Tasks are served one at a time in arrival order; concurrency across
// tasks is the executor's job, across workers.
func Serve(h Handler, r io.Reader, w io.Writer) error {
	var sendMu sync.Mutex
	enc := json.NewEncoder(w)
	send := func(m *Message) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		return enc.Encode(m)
	}
	if err := send(&Message{Type: MsgHello, Pid: os.Getpid()}); err != nil {
		return fmt.Errorf("dist: worker hello: %w", err)
	}
	dec := json.NewDecoder(r)
	for {
		var m Message
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("dist: worker recv: %w", err)
		}
		switch m.Type {
		case MsgShutdown:
			return nil
		case MsgTask:
			serveTask(h, send, &m)
		default:
			// Unknown executor messages are ignored for forward
			// compatibility; the executor never depends on a reply to
			// anything but MsgTask.
		}
	}
}

// ServeStdio serves tasks over the process's standard streams — the
// transport ProcSpawner wires up. Worker binaries must keep stdout clean:
// everything human-readable goes to stderr.
func ServeStdio(h Handler) error {
	return Serve(h, os.Stdin, os.Stdout)
}

// serveTask runs one assignment under heartbeat cover and replies with
// MsgResult or MsgError. The heartbeat goroutine is joined before the
// completion message is sent, so a task's beats never trail its result.
func serveTask(h Handler, send func(*Message) error, m *Message) {
	stop := make(chan struct{})
	var beats sync.WaitGroup
	if m.HeartbeatMs > 0 {
		beats.Add(1)
		go func() {
			defer beats.Done()
			tick := time.NewTicker(time.Duration(m.HeartbeatMs) * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					// A failed beat means the executor is gone; the
					// completion send will notice, so just stop beating.
					if send(&Message{Type: MsgHeartbeat, Index: m.Index, Seed: m.Seed}) != nil {
						return
					}
				}
			}
		}()
	}
	result, err := h(m.Kind, m.Index, m.Seed, m.Params)
	close(stop)
	beats.Wait()
	if err != nil {
		send(&Message{Type: MsgError, Index: m.Index, Seed: m.Seed, Err: err.Error()})
		return
	}
	send(&Message{Type: MsgResult, Index: m.Index, Seed: m.Seed, Result: result})
}
