// Transports: how the executor reaches a worker. A Conn is one node's
// duplex message stream; a Spawner mints Conns by node id. ProcSpawner
// re-execs the current binary in worker mode over stdio pipes — the
// production transport — and PipeSpawner serves a handler on in-process
// goroutines, which is what the fault-injection tests build on.
package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Conn is one worker's message stream as the executor sees it.
// Send and Recv are each called from a single goroutine (the node's
// executor worker sends; a dedicated reader receives), but Send and Recv
// may overlap, and Kill/Close may race with both.
type Conn interface {
	// Send delivers one message to the worker.
	Send(m *Message) error
	// Recv blocks for the worker's next message.
	Recv() (*Message, error)
	// Close ends the session gracefully: no more tasks will be sent, the
	// worker should drain and exit.
	Close() error
	// Kill tears the node down hard — the transport equivalent of a node
	// crash. Any blocked Recv returns an error promptly.
	Kill() error
}

// Spawner mints the Conn for node id. Spawn failures leave that node dead
// at birth; the executor continues on the survivors.
type Spawner func(id int) (Conn, error)

// streamConn frames messages over a generic byte stream.
type streamConn struct {
	sendMu sync.Mutex
	enc    *json.Encoder
	dec    *json.Decoder
	close  func() error
	kill   func() error
}

func (c *streamConn) Send(m *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.enc.Encode(m)
}

func (c *streamConn) Recv() (*Message, error) {
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (c *streamConn) Close() error { return c.close() }
func (c *streamConn) Kill() error  { return c.kill() }

// PipeSpawner serves the handler on an in-process goroutine per node,
// over synchronous in-memory pipes. Workers spawned this way share the
// executor's address space — which is exactly what the -race fault tests
// want — while exercising the full wire protocol, heartbeats and all.
func PipeSpawner(h Handler) Spawner {
	return func(id int) (Conn, error) {
		taskR, taskW := io.Pipe()
		replyR, replyW := io.Pipe()
		go func() {
			err := Serve(h, taskR, replyW)
			// Serve returning closes the reply stream; a clean return
			// reads as EOF on the executor side, an error as itself.
			replyW.CloseWithError(err)
			taskR.Close()
		}()
		kill := func() error {
			taskR.CloseWithError(io.ErrClosedPipe)
			taskW.CloseWithError(io.ErrClosedPipe)
			replyR.CloseWithError(io.ErrClosedPipe)
			replyW.CloseWithError(io.ErrClosedPipe)
			return nil
		}
		return &streamConn{
			enc:   json.NewEncoder(taskW),
			dec:   json.NewDecoder(replyR),
			close: taskW.Close,
			kill:  kill,
		}, nil
	}
}

// procConn is a spawned worker process over stdio pipes. The pipes are
// plain os.Pipe pairs rather than exec's managed StdinPipe/StdoutPipe, so
// reaping the process never races the reader goroutine still draining
// stdout.
type procConn struct {
	streamConn
	cmd  *exec.Cmd
	in   *os.File // executor → worker stdin
	out  *os.File // worker stdout → executor
	reap sync.Once
}

// reapAfter waits for the child with a grace period, then kills it. Called
// at most once; both Close and Kill funnel here.
func (c *procConn) reapAfter(grace time.Duration) {
	c.reap.Do(func() {
		c.in.Close()
		var killer *time.Timer
		if grace > 0 {
			killer = time.AfterFunc(grace, func() { c.cmd.Process.Kill() })
		} else {
			c.cmd.Process.Kill()
		}
		go func() {
			c.cmd.Wait()
			if killer != nil {
				killer.Stop()
			}
			c.out.Close()
		}()
	})
}

// ProcSpawner re-execs the current binary with the given argv and speaks
// the protocol over its stdio; stderr passes through so worker-side
// telemetry stays visible. The spawned binary must route argv[1] ==
// WorkerArg into ServeStdio.
func ProcSpawner(argv ...string) Spawner {
	return func(id int) (Conn, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dist: locate worker binary: %w", err)
		}
		inR, inW, err := os.Pipe()
		if err != nil {
			return nil, err
		}
		outR, outW, err := os.Pipe()
		if err != nil {
			inR.Close()
			inW.Close()
			return nil, err
		}
		cmd := exec.Command(exe, argv...)
		cmd.Stdin = inR
		cmd.Stdout = outW
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			inR.Close()
			inW.Close()
			outR.Close()
			outW.Close()
			return nil, fmt.Errorf("dist: spawn worker %d: %w", id, err)
		}
		// The child holds its own copies of the pipe ends now.
		inR.Close()
		outW.Close()
		c := &procConn{cmd: cmd, in: inW, out: outR}
		c.streamConn = streamConn{
			enc:   json.NewEncoder(inW),
			dec:   json.NewDecoder(outR),
			close: func() error { c.reapAfter(3 * time.Second); return nil },
			kill:  func() error { c.reapAfter(0); return nil },
		}
		return c, nil
	}
}

// SelfSpawner is the default production transport: the current binary
// re-exec'd in worker mode.
func SelfSpawner() Spawner {
	return ProcSpawner(WorkerArg)
}
