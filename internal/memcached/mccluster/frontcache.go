package mccluster

import (
	"sync"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
)

// frontCache is the tiny per-client hot-key cache: a bounded map with
// intrusive LRU eviction and two invalidation paths — a short TTL (bounds
// staleness against writers this client never sees) and explicit
// invalidate-on-set/delete (writes through this client take effect
// immediately). Only keys the hot tracker flags are admitted, so the cache
// stays small and its entries earn their slots: at zipf skew the top few
// thousand keys carry most of the request stream, and every hit here is a
// socket round-trip that never happens.
//
// Values are returned by reference; callers must treat cached items as
// read-only (the cluster client's documented Get contract).
type frontCache struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	entries map[string]*fcEntry
	// Intrusive LRU list: head is most recent, tail is eviction victim.
	head, tail *fcEntry

	hits, lookups, evictions, invalidations int64
}

type fcEntry struct {
	key        string
	item       *mcclient.Item
	expire     int64 // wall ns deadline
	prev, next *fcEntry
}

func newFrontCache(capacity int, ttl time.Duration) *frontCache {
	return &frontCache{
		cap:     capacity,
		ttl:     ttl,
		entries: make(map[string]*fcEntry, capacity),
	}
}

func (f *frontCache) unlink(e *fcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		f.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		f.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (f *frontCache) pushFront(e *fcEntry) {
	e.next = f.head
	if f.head != nil {
		f.head.prev = e
	}
	f.head = e
	if f.tail == nil {
		f.tail = e
	}
}

// get returns the cached item for key if present and fresh.
func (f *frontCache) get(key string, now int64) (*mcclient.Item, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lookups++
	e, ok := f.entries[key]
	if !ok {
		return nil, false
	}
	if now >= e.expire {
		f.unlink(e)
		delete(f.entries, key)
		return nil, false
	}
	if f.head != e {
		f.unlink(e)
		f.pushFront(e)
	}
	f.hits++
	return e.item, true
}

// put admits (or refreshes) key, evicting the LRU entry at capacity. A
// value above memcached.InlineValue is not admitted: the cache is sized in
// entries, for small hot values, and a hot block chunk belongs to the
// servers.
func (f *frontCache) put(key string, it *mcclient.Item, now int64) {
	if len(it.Value) > memcached.InlineValue {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.entries[key]; ok {
		e.item = it
		e.expire = now + int64(f.ttl)
		if f.head != e {
			f.unlink(e)
			f.pushFront(e)
		}
		return
	}
	if len(f.entries) >= f.cap && f.tail != nil {
		victim := f.tail
		f.unlink(victim)
		delete(f.entries, victim.key)
		f.evictions++
	}
	e := &fcEntry{key: key, item: it, expire: now + int64(f.ttl)}
	f.entries[key] = e
	f.pushFront(e)
}

// invalidate drops key; called on every set/delete through the client.
func (f *frontCache) invalidate(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.entries[key]; ok {
		f.unlink(e)
		delete(f.entries, key)
		f.invalidations++
	}
}

func (f *frontCache) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

func (f *frontCache) snapshot() (hits, lookups, evictions, invalidations int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits, f.lookups, f.evictions, f.invalidations
}
