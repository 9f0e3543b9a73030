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
// is set and ok is true, unless the build panicked.
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

// get returns the cached artifact and marks it recently used.
func (s *store) get(k Key) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.order.MoveToFront(el)
	s.hits.Add(1)
	return el.Value.(*entry).val, true
}

// do returns the artifact under k, building and storing it on a miss.
// Concurrent misses on one key build once: the first caller builds, outside
// the lock, and the others wait for its value and count as hits, as they
// would had they come a moment later. So the hit, miss and build counts do
// not depend on how callers are scheduled.
func (s *store) do(k Key, build func() any) any {
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
		if !fl.ok {
			return build() // the first build panicked; fail or succeed on our own
		}
		return fl.val
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[k] = fl
	s.misses.Add(1)
	s.mu.Unlock()
	// The executor turns a task's panic into its error, so a build that
	// panics must still release its waiters.
	defer func() {
		s.mu.Lock()
		delete(s.flights, k)
		if fl.ok {
			s.insert(k, fl.val)
		}
		s.mu.Unlock()
		close(fl.done)
	}()
	fl.val = build()
	fl.ok = true
	return fl.val
}

// put inserts an artifact, evicting the least recently used entries beyond
// capacity. Racing puts of the same key keep the first value; with
// deterministic artifacts both candidates are identical, so which one
// survives is unobservable.
func (s *store) put(k Key, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(k, v)
}

// insert is put with s.mu held.
func (s *store) insert(k Key, v any) {
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		return
	}
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
