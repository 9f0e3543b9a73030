package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// store is the bounded, concurrency-safe artifact cache: a map plus an LRU
// list capped at capacity entries. Artifacts are deterministic values keyed
// by content hash, so eviction is purely a cost decision — re-deriving an
// evicted artifact reproduces it bit for bit.
type store struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*list.Element
	order    *list.List      // front = most recently used
	flights  map[Key]*flight // builds in progress under do

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type entry struct {
	key Key
	val any
}

// flight is one build in progress. done is closed when it ends; by then val
// is set, and ok is true unless the build failed or panicked.
type flight struct {
	done chan struct{}
	val  any
	ok   bool
}

func newStore(capacity int) *store {
	return &store{
		capacity: capacity,
		entries:  make(map[Key]*list.Element),
		order:    list.New(),
		flights:  make(map[Key]*flight),
	}
}

// do returns the artifact under k, building and storing it on a miss.
// Concurrent misses on one key build once: the first caller builds, outside
// the lock, and the others wait for its value and count as hits, as they
// would had they come a moment later. So, when builds succeed, the hit, miss
// and build counts do not depend on how callers are scheduled.
//
// build reports whether its value may be stored. A value it may not store,
// such as an error under the builder's own context, goes back to that caller
// alone: each caller waiting on it, counted as a hit, looks up the key again
// and so builds under its own context. One caller's cancellation never fails
// another's; a build that panics releases its waiters the same way.
func (s *store) do(k Key, build func() (any, bool)) any {
	for {
		s.mu.Lock()
		if el, ok := s.entries[k]; ok {
			s.order.MoveToFront(el)
			s.hits.Add(1)
			s.mu.Unlock()
			return el.Value.(*entry).val
		}
		if fl, ok := s.flights[k]; ok {
			s.hits.Add(1)
			s.mu.Unlock()
			<-fl.done
			if fl.ok {
				return fl.val
			}
			continue
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[k] = fl
		s.misses.Add(1)
		s.mu.Unlock()
		return s.fly(k, fl, build)
	}
}

// fly runs one build for do. The executor turns a task's panic into its
// error, so a build that panics must still release its waiters.
func (s *store) fly(k Key, fl *flight, build func() (any, bool)) any {
	defer func() {
		s.mu.Lock()
		delete(s.flights, k)
		if fl.ok {
			s.insert(k, fl.val)
		}
		s.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.ok = build()
	return fl.val
}

// insert stores a new artifact, with s.mu held, evicting the least recently
// used entries beyond capacity. Only a flight inserts, and only under a key
// that has no entry.
func (s *store) insert(k Key, v any) {
	s.entries[k] = s.order.PushFront(&entry{key: k, val: v})
	for s.order.Len() > s.capacity {
		el := s.order.Back()
		s.order.Remove(el)
		delete(s.entries, el.Value.(*entry).key)
		s.evictions.Add(1)
	}
}

func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}
