// The wire protocol: newline-delimited JSON messages over a byte stream
// (stdio pipes for spawned processes, in-memory pipes for tests). The
// protocol is deliberately small — six message types, one in-flight task
// per worker — because the robustness machinery lives in the executor, not
// the wire format.
package dist

import "encoding/json"

// MsgType discriminates protocol messages.
type MsgType string

const (
	// MsgHello is the worker's first message: it is alive and serving.
	MsgHello MsgType = "hello"
	// MsgTask assigns one task to a worker (executor → worker).
	MsgTask MsgType = "task"
	// MsgHeartbeat is the worker's liveness beacon while a task runs; each
	// beat re-arms the executor's silence deadline for that task.
	MsgHeartbeat MsgType = "heartbeat"
	// MsgResult carries a completed task's JSON result.
	MsgResult MsgType = "result"
	// MsgError reports a task failure (the task's fault, not the node's).
	MsgError MsgType = "error"
	// MsgShutdown asks the worker to exit cleanly (executor → worker).
	MsgShutdown MsgType = "shutdown"
)

// Message is the single frame type both directions share. Index and Seed
// are never omitted: task index 0 is as real as any other.
type Message struct {
	Type  MsgType `json:"type"`
	Index int     `json:"index"`
	Seed  uint64  `json:"seed"`
	// Task assignment (MsgTask).
	Kind        string          `json:"kind,omitempty"`
	Params      json.RawMessage `json:"params,omitempty"`
	HeartbeatMs int64           `json:"heartbeat_ms,omitempty"`
	// Task completion (MsgResult / MsgError).
	Result json.RawMessage `json:"result,omitempty"`
	Err    string          `json:"err,omitempty"`
	// Worker identity (MsgHello).
	Pid int `json:"pid,omitempty"`
}
