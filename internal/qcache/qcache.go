// Package qcache is a small sharded LRU cache for query results, keyed by
// opaque byte strings. Callers embed the serving snapshot's generation in the
// key, so a refresh invalidates every cached answer implicitly: the new
// generation's keys never collide with the old one's, and stale entries age
// out of the LRU instead of being swept. Safe for concurrent use; a nil
// *Cache is a valid always-miss cache, so "caching disabled" needs no branch
// at the call sites beyond skipping key construction.
package qcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// shardCount spreads lock contention across independent LRUs. Power of two
// so the shard pick is a mask.
const shardCount = 16

// Cache is a bounded, sharded LRU from byte-string keys to arbitrary values.
type Cache struct {
	shards [shardCount]shard
	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

type shard struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	ll  *list.List // front = most recently used
}

type entry struct {
	key string
	val any
}

// New returns a cache holding up to capacity entries (rounded up to a
// multiple of the shard count); capacity <= 0 returns nil, the always-miss
// cache.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	c := &Cache{}
	per := (capacity + shardCount - 1) / shardCount
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].m = make(map[string]*list.Element, per)
		c.shards[i].ll = list.New()
	}
	return c
}

// hash is FNV-1a over the key; only shard selection depends on it.
func hash(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// Get returns the cached value for key, marking it most recently used. The
// lookup does not retain or allocate from key.
func (c *Cache) Get(key []byte) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := &c.shards[hash(key)&(shardCount-1)]
	s.mu.Lock()
	e, ok := s.m[string(key)] // compiler elides the string conversion
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.ll.MoveToFront(e)
	v := e.Value.(*entry).val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put inserts or refreshes key's value, evicting the shard's least recently
// used entry when over capacity.
func (c *Cache) Put(key []byte, val any) {
	if c == nil {
		return
	}
	s := &c.shards[hash(key)&(shardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[string(key)]; ok {
		e.Value.(*entry).val = val
		s.ll.MoveToFront(e)
		return
	}
	ent := &entry{key: string(key), val: val}
	s.m[ent.key] = s.ll.PushFront(ent)
	if s.ll.Len() > s.cap {
		old := s.ll.Back()
		s.ll.Remove(old)
		delete(s.m, old.Value.(*entry).key)
		c.evicts.Add(1)
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Metrics reports cumulative hit and miss counts.
func (c *Cache) Metrics() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Evictions reports the cumulative number of entries pushed out by capacity
// (not entries aged out by generation turnover, which simply stop being
// requested and leave via this same LRU pressure later).
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.evicts.Load()
}
