package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(parts ...string) Key {
	h := NewKey("test")
	for _, p := range parts {
		h.Str(p)
	}
	return h.Key()
}

func TestKeyPartBoundaries(t *testing.T) {
	if key("ab", "c") == key("a", "bc") {
		t.Fatal("length prefixing failed: part boundaries do not affect the key")
	}
	if NewKey("stage1").Str("x").Key() == NewKey("stage2").Str("x").Key() {
		t.Fatal("stage name does not partition the key space")
	}
	// An int part and a string part with the same raw bytes must not collide.
	a := NewKey("s").Int(0).Key()
	b := NewKey("s").Str("").Key()
	if a == b {
		t.Fatal("int and string parts collide")
	}
}

// lookup reads k through do and reports whether it was stored: a build
// means it was not (and stores nothing).
func lookup(s *store, k Key) (any, bool) {
	built := false
	v := s.do(k, func() (any, bool) { built = true; return nil, false })
	return v, !built
}

// store1 stores v under k through do.
func store1(s *store, k Key, v any) {
	s.do(k, func() (any, bool) { return v, true })
}

func TestStoreEvictionLRU(t *testing.T) {
	s := newStore(2)
	store1(s, key("a"), 1)
	store1(s, key("b"), 2)
	if _, ok := lookup(s, key("a")); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	store1(s, key("c"), 3)
	if s.len() != 2 {
		t.Fatalf("len = %d, want 2", s.len())
	}
	if _, ok := lookup(s, key("b")); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := lookup(s, key("a")); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := lookup(s, key("c")); !ok {
		t.Fatal("c should be present")
	}
	if got := s.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestStoreCounters(t *testing.T) {
	s := newStore(8)
	store1(s, key("x"), 1) // miss
	lookup(s, key("x"))    // hit
	lookup(s, key("x"))    // hit
	if h, m := s.hits.Load(), s.misses.Load(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", h, m)
	}
}

// TestStoreDoKeepsFirst: once a key is stored, do returns its value without
// building again.
func TestStoreDoKeepsFirst(t *testing.T) {
	s := newStore(8)
	store1(s, key("x"), "first")
	store1(s, key("x"), "second")
	v, _ := lookup(s, key("x"))
	if v != "first" {
		t.Fatalf("second do replaced value: got %v", v)
	}
	if s.len() != 1 {
		t.Fatalf("len = %d, want 1", s.len())
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	e := New(Config{Capacity: 8})
	calls := 0
	build := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}
	if _, err := e.Memo(key("m"), build); err == nil {
		t.Fatal("first build error swallowed")
	}
	v, err := e.Memo(key("m"), build)
	if err != nil || v != "ok" {
		t.Fatalf("second build: v=%v err=%v", v, err)
	}
	// Third call must hit the cache, not the builder.
	if _, err := e.Memo(key("m"), build); err != nil || calls != 2 {
		t.Fatalf("calls = %d, want 2 (success cached)", calls)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := newStore(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				store1(s, key(fmt.Sprintf("k%d", i%100)), i)
			}
		}(g)
	}
	wg.Wait()
	if s.len() > 64 {
		t.Fatalf("capacity breached: %d entries", s.len())
	}
}

// waitHits polls until e has counted n hits. It may run on any goroutine,
// so a timeout is reported with Errorf.
func waitHits(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); e.Stats().Hits < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("hits = %d, want %d", e.Stats().Hits, n)
			return
		}
	}
}

// TestMemoSingleFlight: concurrent Memo misses on one key run the build
// once, count one miss and a hit for each waiter, and all get its value.
func TestMemoSingleFlight(t *testing.T) {
	e := New(Config{Capacity: 8})
	const n = 8
	var builds atomic.Int32
	vals := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = e.Memo(key("m"), func() (any, error) {
				builds.Add(1)
				waitHits(t, e, n-1) // every other caller waits on this build
				return "report", nil
			})
		}()
	}
	wg.Wait()
	if st := e.Stats(); builds.Load() != 1 || st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("builds = %d, misses = %d, hits = %d; want 1, 1, %d", builds.Load(), st.Misses, st.Hits, n-1)
	}
	for i := range n {
		if vals[i] != "report" || errs[i] != nil {
			t.Errorf("caller %d: %v, %v", i, vals[i], errs[i])
		}
	}
}

// TestMemoCancelledBuildLeavesWaiter: a first build that fails with its own
// context's cancellation fails only its own caller; a caller waiting on it
// builds under its own context, succeeds and stores.
func TestMemoCancelledBuildLeavesWaiter(t *testing.T) {
	e := New(Config{Capacity: 8})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var err1 error
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		_, err1 = e.Memo(key("m"), func() (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	}()
	<-started
	var v2 any
	var err2 error
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		v2, err2 = e.Memo(key("m"), func() (any, error) { return "report", nil })
	}()
	waitHits(t, e, 1) // the second caller waits on the first build
	cancel()
	<-done1
	<-done2
	if !errors.Is(err1, context.Canceled) {
		t.Errorf("first caller: err = %v, want context.Canceled", err1)
	}
	if v2 != "report" || err2 != nil {
		t.Errorf("waiter: %v, %v; want its own build's value", v2, err2)
	}
	v, err := e.Memo(key("m"), func() (any, error) { return nil, errors.New("built again") })
	if v != "report" || err != nil {
		t.Errorf("after the waiter's build: %v, %v; want the stored value", v, err)
	}
}
