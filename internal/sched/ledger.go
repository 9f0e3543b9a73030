// The checkpoint ledger: a JSON record of every task a kind map finished
// without error, written atomically and throttled, so an interrupted map
// resumes from what it finished instead of re-measuring. The ledger is keyed by (kind, seed, task count,
// params hash); a stale or corrupt file is ignored with a note, never
// trusted. Failed tasks are never recorded, so a rerun re-attempts exactly
// the failures.
package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// ledgerDoc is the on-disk shape.
type ledgerDoc struct {
	Kind      string                     `json:"kind"`
	Seed      uint64                     `json:"seed"`
	Tasks     int                        `json:"tasks"`
	ParamsSum string                     `json:"params_sha256"`
	Done      map[string]json.RawMessage `json:"done"`
}

// ledger manages one map's checkpoint file. record runs on worker
// goroutines, so the document is guarded by mu.
type ledger struct {
	cfg      Config
	path     string
	mu       sync.Mutex
	doc      ledgerDoc
	dirty    bool
	lastSave time.Time
	failed   sync.Once // a failed write is reported once; later ones stay quiet
}

// openLedger loads (or initializes) the ledger for kind in cfg.Checkpoint.
// A file that exists but does not match this map's identity is discarded
// with a note — resuming from another map's ledger would splice wrong
// results into the merge. An unusable checkpoint directory is an error.
func openLedger(cfg Config, kind string, tasks int, params any) (*ledger, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, fmt.Errorf("sched: %s params: %w", kind, err)
	}
	if err := os.MkdirAll(cfg.Checkpoint, 0o755); err != nil {
		return nil, fmt.Errorf("sched: checkpoint dir: %w", err)
	}
	sum := sha256.Sum256(raw)
	l := &ledger{
		cfg:  cfg,
		path: filepath.Join(cfg.Checkpoint, kind+".json"),
		doc: ledgerDoc{
			Kind:      kind,
			Seed:      cfg.Seed,
			Tasks:     tasks,
			ParamsSum: hex.EncodeToString(sum[:]),
			Done:      make(map[string]json.RawMessage),
		},
	}
	blob, err := os.ReadFile(l.path)
	if err != nil {
		return l, nil
	}
	var prev ledgerDoc
	if err := json.Unmarshal(blob, &prev); err != nil || prev.Kind != kind || prev.Seed != cfg.Seed ||
		prev.Tasks != tasks || prev.ParamsSum != l.doc.ParamsSum {
		cfg.say("sched: checkpoint %s does not match this map; starting fresh", l.path)
		return l, nil
	}
	for key, result := range prev.Done {
		if i, err := strconv.Atoi(key); err == nil && i >= 0 && i < tasks && json.Valid(result) {
			l.doc.Done[key] = result
		}
	}
	return l, nil
}

// replay hands every recorded result to decode and reports which tasks it
// restored; an entry that does not decode is dropped and re-run.
func (l *ledger) replay(decode func(i int, result json.RawMessage) error) []bool {
	skip := make([]bool, l.doc.Tasks)
	restored := 0
	for key, result := range l.doc.Done {
		i, _ := strconv.Atoi(key)
		if decode(i, result) != nil {
			delete(l.doc.Done, key)
			continue
		}
		skip[i] = true
		restored++
	}
	if restored > 0 {
		l.cfg.say("sched: checkpoint %s: resumed %d of %d tasks", l.path, restored, l.doc.Tasks)
	}
	return skip
}

// record adds one finished task and saves if the last save is old enough;
// the throttle keeps checkpointing off the map's critical path.
func (l *ledger) record(i int, result any) {
	blob, err := json.Marshal(result)
	if err == nil {
		l.mu.Lock()
		l.doc.Done[strconv.Itoa(i)] = blob
		l.dirty = true
		if time.Since(l.lastSave) >= 500*time.Millisecond {
			err = l.saveLocked()
		}
		l.mu.Unlock()
	}
	l.report(err)
}

// save persists whatever is unsaved.
func (l *ledger) save() {
	l.mu.Lock()
	err := l.saveLocked()
	l.mu.Unlock()
	l.report(err)
}

// saveLocked writes the ledger atomically.
func (l *ledger) saveLocked() error {
	if !l.dirty {
		return nil
	}
	blob, err := json.MarshalIndent(l.doc, "", "  ")
	if err == nil {
		err = atomicWriteFile(l.path, append(blob, '\n'), 0o644)
	}
	if err == nil {
		l.dirty = false
		l.lastSave = time.Now()
	}
	return err
}

// report narrates the first failed write: an unwritten checkpoint degrades
// resume, not the map, which carries on.
func (l *ledger) report(err error) {
	if err != nil {
		l.failed.Do(func() { l.cfg.say("sched: checkpoint %s not written: %v", l.path, err) })
	}
}

// atomicWriteFile writes data to path via a temp file in the same directory
// plus rename, so readers never observe a torn write: they see the old bytes
// or the new bytes, never a truncated file.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Chmod(perm)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
	}
	return err
}
