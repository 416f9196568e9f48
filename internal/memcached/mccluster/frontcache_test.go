package mccluster

import (
	"fmt"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
)

func fcItem(key, val string) *mcclient.Item {
	return &mcclient.Item{Key: key, Value: []byte(val)}
}

func TestFrontCacheHitAndTTLExpiry(t *testing.T) {
	f := newFrontCache(4, 100*time.Millisecond)
	now := int64(1_000_000)
	f.put("k", fcItem("k", "v"), now)
	if it, ok := f.get("k", now+1); !ok || string(it.Value) != "v" {
		t.Fatalf("fresh get: %v %v", it, ok)
	}
	// One ns before the deadline is a hit; at the deadline it expires.
	if _, ok := f.get("k", now+int64(100*time.Millisecond)-1); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := f.get("k", now+int64(100*time.Millisecond)); ok {
		t.Fatal("entry survived its TTL")
	}
	if f.len() != 0 {
		t.Fatalf("expired entry retained: len=%d", f.len())
	}
}

// TestFrontCacheAdmitsSmallValuesOnly: capacity is counted in entries, so
// an entry is bounded too.
func TestFrontCacheAdmitsSmallValuesOnly(t *testing.T) {
	f := newFrontCache(4, time.Hour)
	f.put("small", &mcclient.Item{Key: "small", Value: make([]byte, memcached.InlineValue)}, 1)
	f.put("large", &mcclient.Item{Key: "large", Value: make([]byte, memcached.InlineValue+1)}, 1)
	if _, ok := f.get("small", 2); !ok {
		t.Error("a value of InlineValue bytes was not admitted")
	}
	if _, ok := f.get("large", 2); ok || f.len() != 1 {
		t.Errorf("a value above InlineValue was admitted (%d entries)", f.len())
	}
}

func TestFrontCacheInvalidateOnSet(t *testing.T) {
	f := newFrontCache(4, time.Hour)
	now := time.Now().UnixNano()
	f.put("k", fcItem("k", "old"), now)
	f.invalidate("k")
	if _, ok := f.get("k", now); ok {
		t.Fatal("invalidated entry still served")
	}
	hits, lookups, _, invals := f.snapshot()
	if hits != 0 || lookups != 1 || invals != 1 {
		t.Fatalf("counters: hits=%d lookups=%d invals=%d", hits, lookups, invals)
	}
}

func TestFrontCacheLRUEviction(t *testing.T) {
	f := newFrontCache(3, time.Hour)
	now := time.Now().UnixNano()
	for i := 0; i < 3; i++ {
		f.put(fmt.Sprintf("k%d", i), fcItem("k", "v"), now)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := f.get("k0", now); !ok {
		t.Fatal("k0 missing")
	}
	f.put("k3", fcItem("k3", "v"), now)
	if _, ok := f.get("k1", now); ok {
		t.Fatal("LRU victim k1 survived")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := f.get(k, now); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	_, _, evictions, _ := f.snapshot()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

func TestFrontCacheRefreshMovesToFront(t *testing.T) {
	f := newFrontCache(2, time.Hour)
	now := time.Now().UnixNano()
	f.put("a", fcItem("a", "1"), now)
	f.put("b", fcItem("b", "1"), now)
	f.put("a", fcItem("a", "2"), now) // refresh: a is now MRU
	f.put("c", fcItem("c", "1"), now) // evicts b
	if it, ok := f.get("a", now); !ok || string(it.Value) != "2" {
		t.Fatalf("refreshed entry wrong: %v %v", it, ok)
	}
	if _, ok := f.get("b", now); ok {
		t.Fatal("b should have been the LRU victim")
	}
}
