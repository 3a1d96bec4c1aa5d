// Package lru is the byte-budget LRU cache the client agent keeps its
// compressed frames and exNodes in and each edge cache shard keeps its
// extents in.
package lru

import (
	"container/list"
	"fmt"
	"sync"
)

// Cache is a byte-budget LRU cache from string keys to byte slices. It is
// safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element
	// onEvict, when set, is called with each key the cache drops (budget
	// evictions and explicit Removes), outside the cache lock.
	onEvict func(key string)

	hits, misses, evictions int64
}

type lruEntry struct {
	key string
	val []byte
}

// New creates a cache holding at most capacity bytes of values.
func New(capacity int64) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("lru: non-positive cache capacity %d", capacity)
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}, nil
}

// Get returns the cached value and whether it was present, refreshing
// recency. The returned slice must not be modified by callers.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Contains reports presence without affecting recency or stats.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// SetOnEvict registers fn to be called with each key the cache drops,
// whether by budget eviction or explicit Remove. The callback runs after
// the cache lock is released, so it may take other locks (the client
// agent uses it to clear prefetch-provenance marks for frames that left
// the cache unconsumed).
func (c *Cache) SetOnEvict(fn func(key string)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// notifyEvicted runs the eviction callback outside the lock.
func (c *Cache) notifyEvicted(keys []string) {
	if len(keys) == 0 {
		return
	}
	c.mu.Lock()
	fn := c.onEvict
	c.mu.Unlock()
	if fn == nil {
		return
	}
	for _, k := range keys {
		fn(k)
	}
}

// Put inserts or replaces a value, evicting least-recently-used entries as
// needed. Values larger than the whole capacity are rejected.
func (c *Cache) Put(key string, val []byte) error {
	if int64(len(val)) > c.capacity {
		return fmt.Errorf("lru: value of %d bytes exceeds cache capacity %d", len(val), c.capacity)
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.used += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&lruEntry{key: key, val: val})
		c.items[key] = el
		c.used += int64(len(val))
	}
	evicted := c.evictLocked()
	c.mu.Unlock()
	c.notifyEvicted(evicted)
	return nil
}

// evictLocked removes LRU entries until within budget, returning the
// evicted keys for the post-unlock callback.
func (c *Cache) evictLocked() []string {
	var evicted []string
	for c.used > c.capacity {
		el := c.ll.Back()
		e := el.Value.(*lruEntry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.used -= int64(len(e.val))
		c.evictions++
		evicted = append(evicted, e.key)
	}
	return evicted
}

// Remove deletes a key if present.
func (c *Cache) Remove(key string) {
	c.mu.Lock()
	removed := false
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.ll.Remove(el)
		delete(c.items, key)
		c.used -= int64(len(e.val))
		removed = true
	}
	c.mu.Unlock()
	if removed {
		c.notifyEvicted([]string{key})
	}
}

// Stats is a point-in-time view of cache accounting.
type Stats struct {
	Capacity, Used          int64
	Entries                 int
	Hits, Misses, Evictions int64
}

// Stats returns current accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Capacity:  c.capacity,
		Used:      c.used,
		Entries:   len(c.items),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
