// Package dist is the process transport behind the executor's worker
// placement (internal/sched): how a task reaches a worker process and how
// its reply comes back. Workers are normally the same binary re-exec'd in
// worker mode, speaking a JSON-line protocol over stdio; the package holds
// the spawners and connections, the protocol, the worker loop, and the
// chaos harness that injects node faults into the transport. Scheduling —
// claiming, requeueing, quarantine, commit and the checkpoint ledger — is
// the executor's job, not the transport's.
//
// Byte identity across the process boundary rests on Go's encoding/json
// rendering float64 values in shortest form, which round-trips every finite
// bit pattern exactly: a result computed in a worker process and decoded by
// the executor is bit-identical to one computed in process.
package dist

import "encoding/json"

// WorkerArg is the magic first argument that switches a worker-capable
// binary into worker mode. It is deliberately un-flag-like so it can never
// collide with a real input file or flag.
const WorkerArg = "__dist-worker"

// FaultsEnv names the environment variable the CLIs consult for a scripted
// chaos plan (see ParseFaultPlan). It exists so shell-level gates like
// scripts/check.sh can inject worker kills without new flags.
const FaultsEnv = "JEPO_DIST_FAULTS"

// Handler runs one task for a worker: the task of the given kind at index,
// with its seed and the map's params, returning the result as JSON or the
// task's error. It must recover its own panics — a panicking task is a task
// error, never a dead worker.
type Handler func(kind string, index int, seed uint64, params json.RawMessage) (json.RawMessage, error)
