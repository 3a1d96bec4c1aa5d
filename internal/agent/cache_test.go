package agent

import (
	"fmt"
	"testing"
	"testing/quick"

	"lonviz/internal/lru"
)

// The client agent keeps its frames and exNodes in lru.Caches; these tests
// pin what it relies on: the byte budget, eviction order, pins, removal and
// the accounting behind its cache.* metrics.

func TestLRUValidation(t *testing.T) {
	if _, err := lru.New(0); err == nil {
		t.Error("zero capacity accepted")
	}
	c, err := lru.New(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("big", make([]byte, 11)); err == nil {
		t.Error("oversize value accepted")
	}
}

func TestLRUBasics(t *testing.T) {
	c, _ := lru.New(100)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache hit")
	}
	c.Put("a", []byte("hello"))
	v, ok := c.Get("a")
	if !ok || string(v) != "hello" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	// Replace updates size accounting.
	c.Put("a", []byte("a much longer value than before"))
	st := c.Stats()
	if st.Used != 31 || st.Entries != 1 {
		t.Errorf("stats after replace = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, _ := lru.New(30)
	c.Put("a", make([]byte, 10))
	c.Put("b", make([]byte, 10))
	c.Put("c", make([]byte, 10))
	c.Get("a") // a is now most recent; b is LRU
	c.Put("d", make([]byte, 10))
	if c.Contains("b") {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Contains(k) {
			t.Errorf("%s missing", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestLRUPinning(t *testing.T) {
	c, _ := lru.New(20)
	c.Put("keep", make([]byte, 10))
	if !c.Pin("keep") {
		t.Fatal("pin failed")
	}
	if c.Pin("absent") {
		t.Error("pinning absent key reported success")
	}
	c.Put("b", make([]byte, 10))
	c.Put("c", make([]byte, 10)) // would evict "keep" if unpinned
	if !c.Contains("keep") {
		t.Error("pinned entry evicted")
	}
	if c.Contains("b") {
		t.Error("unpinned LRU entry survived over pinned")
	}
	c.Unpin("keep")
	c.Put("d", make([]byte, 10))
	// After unpinning, "keep" becomes evictable again (it is LRU now).
	if c.Contains("keep") && c.Stats().Used > 20 {
		t.Error("budget exceeded after unpin")
	}
}

func TestLRURemove(t *testing.T) {
	c, _ := lru.New(100)
	c.Put("a", make([]byte, 40))
	c.Remove("a")
	if c.Contains("a") || c.Stats().Used != 0 {
		t.Error("remove failed")
	}
	c.Remove("a") // idempotent
}

func TestLRUHitMissCounters(t *testing.T) {
	c, _ := lru.New(100)
	c.Put("a", []byte("x"))
	c.Get("a")
	c.Get("a")
	c.Get("nope")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("counters = %+v", st)
	}
}

// Property (DESIGN.md): size accounting always matches contents and never
// exceeds capacity, across random operation sequences with pinning.
func TestLRUAccountingQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := lru.New(256)
		if err != nil {
			return false
		}
		pinned := 0
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%16)
			switch op % 5 {
			case 0, 1:
				c.Put(key, make([]byte, int(op%64)+1))
			case 2:
				c.Get(key)
			case 3:
				// Bound pins so the budget stays satisfiable.
				if pinned < 3 && c.Pin(key) {
					pinned++
				}
			case 4:
				c.Remove(key)
			}
			st := c.Stats()
			if st.Used < 0 {
				return false
			}
		}
		// Unpin everything: budget must then hold.
		for i := 0; i < 16; i++ {
			c.Unpin(fmt.Sprintf("k%d", i))
		}
		st := c.Stats()
		return st.Used <= st.Capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c, _ := lru.New(1 << 16)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d-%d", g, i%20)
				c.Put(key, make([]byte, 64))
				c.Get(key)
			}
			done <- true
		}(g)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	st := c.Stats()
	if st.Used > st.Capacity {
		t.Errorf("budget exceeded: %+v", st)
	}
}
