package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
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

func TestStoreEvictionLRU(t *testing.T) {
	s := newStore(2)
	s.put(key("a"), 1)
	s.put(key("b"), 2)
	if _, ok := s.get(key("a")); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	s.put(key("c"), 3)
	if s.len() != 2 {
		t.Fatalf("len = %d, want 2", s.len())
	}
	if _, ok := s.get(key("b")); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := s.get(key("a")); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := s.get(key("c")); !ok {
		t.Fatal("c should be present")
	}
	if got := s.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestStoreCounters(t *testing.T) {
	s := newStore(8)
	s.get(key("x")) // miss
	s.put(key("x"), 1)
	s.get(key("x")) // hit
	s.get(key("x")) // hit
	if h, m := s.hits.Load(), s.misses.Load(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", h, m)
	}
}

func TestStoreDuplicatePutKeepsFirst(t *testing.T) {
	s := newStore(8)
	s.put(key("x"), "first")
	s.put(key("x"), "second")
	v, _ := s.get(key("x"))
	if v != "first" {
		t.Fatalf("duplicate put replaced value: got %v", v)
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
				k := key(fmt.Sprintf("k%d", i%100))
				if _, ok := s.get(k); !ok {
					s.put(k, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.len() > 64 {
		t.Fatalf("capacity breached: %d entries", s.len())
	}
}
