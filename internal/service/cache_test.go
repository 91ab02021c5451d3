package service

import (
	"fmt"
	"testing"

	"xring/internal/lru"
)

func entry(key string) *cached {
	return &cached{key: key, jobID: "j-" + key, design: []byte(key)}
}

// cacheServer is a Server with only its memory tier, of the given
// capacity.
func cacheServer(capacity int) *Server {
	return &Server{cache: lru.New[*cached](capacity)}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := cacheServer(3)
	for i := 0; i < 3; i++ {
		c.cachePut(entry(fmt.Sprintf("k%d", i)))
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.cache.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.cachePut(entry("k3"))
	if _, ok := c.cache.Get("k1"); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.cache.Get(k); !ok {
			t.Errorf("%s missing after eviction", k)
		}
	}
	if n := c.cache.Len(); n != 3 {
		t.Errorf("len = %d, want 3", n)
	}
}

func TestResultCacheUpdateInPlace(t *testing.T) {
	c := cacheServer(2)
	c.cachePut(entry("k"))
	updated := &cached{key: "k", jobID: "j2", design: []byte("v2")}
	c.cachePut(updated)
	if n := c.cache.Len(); n != 1 {
		t.Fatalf("len = %d after re-put, want 1", n)
	}
	got, ok := c.cache.Get("k")
	if !ok || string(got.design) != "v2" {
		t.Errorf("get after re-put = %+v, want updated entry", got)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	// A negative CacheEntries disables the memory tier.
	c := cacheServer(Config{CacheEntries: -1}.withDefaults().CacheEntries)
	c.cachePut(entry("k"))
	if _, ok := c.cache.Get("k"); ok {
		t.Error("disabled cache stored an entry")
	}
	if n := c.cache.Len(); n != 0 {
		t.Errorf("len = %d, want 0", n)
	}
}
