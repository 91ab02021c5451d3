// Package lru is a bounded least-recently-used map from string keys,
// safe for concurrent use. The Step-1 ring cache of internal/core and
// the service's result cache are both instances.
package lru

import (
	"container/list"
	"sync"
)

// Cache is the LRU map. The front of the list is the most recently
// used entry. A cache built with capacity <= 0 is disabled: Put stores
// nothing and Get always misses.
type Cache[V any] struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element // value: *entry[V]
	ll  *list.List
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, m: map[string]*list.Element{}, ll: list.New()}
}

// Get returns key's value, touching the entry to the front on a hit.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores v under key at the front, evicting from the back at the
// cap. If key is already present, its entry moves to the front and
// keeps its value unless replace is set. Put returns the value now
// stored, the number of entries evicted and the resulting length; a
// disabled cache returns v, 0, 0.
func (c *Cache[V]) Put(key string, v V, replace bool) (stored V, evicted, size int) {
	if c.cap <= 0 {
		return v, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[V])
		if replace {
			e.val = v
		}
		return e.val, 0, c.ll.Len()
	}
	for c.ll.Len() >= c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*entry[V]).key)
		evicted++
	}
	c.m[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	return v, evicted, c.ll.Len()
}

// Len returns the number of entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Reset empties the cache.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	c.m = map[string]*list.Element{}
	c.ll = list.New()
	c.mu.Unlock()
}
