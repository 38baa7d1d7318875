package qcache

import (
	"runtime/debug"
	"testing"
)

func key(s string) []byte { return []byte(s) }

func TestGetPut(t *testing.T) {
	c := New(64)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key("a"), 1)
	v, ok := c.Get(key("a"))
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	c.Put(key("a"), 2) // update in place
	if v, _ := c.Get(key("a")); v.(int) != 2 {
		t.Fatalf("Get(a) after update = %v; want 2", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	hits, misses := c.Metrics()
	if hits != 2 || misses != 1 {
		t.Fatalf("metrics = %d hits, %d misses; want 2, 1", hits, misses)
	}
}

func TestEviction(t *testing.T) {
	// Capacity 16 = one entry per shard; a second insert in any shard evicts
	// its LRU entry, so total occupancy never exceeds capacity.
	c := New(16)
	for i := 0; i < 256; i++ {
		c.Put([]byte{byte(i), byte(i >> 8)}, i)
	}
	if c.Len() > 16 {
		t.Fatalf("Len = %d after overfill, cap 16", c.Len())
	}
}

func TestLRUOrder(t *testing.T) {
	// Single-shard-sized keys: all keys hash to one shard by brute force.
	c := New(16) // per-shard cap 1... use 32 for cap 2 per shard
	c = New(32)
	var a, b, d []byte
	// Find three keys in the same shard.
	same := [][]byte{}
	for i := 0; i < 1024 && len(same) < 3; i++ {
		k := []byte{byte(i), byte(i >> 8), 7}
		if hash(k)&(shardCount-1) == 0 {
			same = append(same, k)
		}
	}
	if len(same) < 3 {
		t.Skip("no three single-shard keys found")
	}
	a, b, d = same[0], same[1], same[2]
	c.Put(a, "a")
	c.Put(b, "b")
	c.Get(a)      // a is now most recent; b is LRU
	c.Put(d, "d") // evicts b
	if _, ok := c.Get(b); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(a); !ok {
		t.Fatal("recently used entry was evicted")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	if c := New(0); c != nil {
		t.Fatal("New(0) should return the nil always-miss cache")
	}
	if _, ok := c.Get(key("x")); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(key("x"), 1) // must not panic
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
	if h, m := c.Metrics(); h != 0 || m != 0 {
		t.Fatalf("nil cache metrics = %d, %d", h, m)
	}
}

// TestGetDoesNotAllocate gates the cache-hit path (hash, shard lock, LRU
// bump) at exactly 0; the collector is off, so the count is exact.
func TestGetDoesNotAllocate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := New(64)
	k := key("steady-state")
	c.Put(k, 42)
	n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(k); !ok {
			t.Fatal("lost entry")
		}
	})
	if n != 0 {
		t.Fatalf("Get allocates %v per op; want 0", n)
	}
}
