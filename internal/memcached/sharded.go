package memcached

import (
	"runtime"
	"sync"
)

// DefaultShards picks the shard count for a ShardedEngine when Config.Shards
// is zero: the next power of two at or above GOMAXPROCS, clamped to
// [1, MaxShards]. A power-of-two count lets the shard index be a mask of the
// key hash.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return nextPow2(n)
}

// MaxShards bounds the shard count; beyond this the per-shard memory slices
// become too small to hold even one slab page at the default limits.
const MaxShards = 256

func nextPow2(n int) int {
	p := 1
	for p < n && p < MaxShards {
		p <<= 1
	}
	return p
}

// shard is one lock domain: a private Engine (hash table, slab arena,
// per-class LRU lists, counters) behind its own mutex. Padding keeps
// neighbouring shard mutexes off one cache line under contention.
type shard struct {
	mu  sync.Mutex
	eng *Engine
	_   [40]byte
}

// ShardedEngine partitions the key space over N independent Engines, each
// with its own lock, so concurrent connections proceed in parallel instead
// of serializing behind one engine mutex (the RDMA-Memcached design point:
// the store must be lock-light on the hot path). Keys are routed by a
// 64-bit FNV-1a hash with a splitmix finalizer; the shard count is a power
// of two so routing is a mask. Memory is split evenly: each shard gets
// MemLimit/N, so aggregate capacity matches a single engine while eviction
// decisions are shard-local (standard sharded-cache behaviour).
//
// ShardedEngine is safe for concurrent use. Its two-phase calls are what let
// a value be moved with no lock held: Reserve and Commit (or Abort) bracket
// the filling of a value's storage, Acquire and Release the reading of it
// in place.
type ShardedEngine struct {
	shards []shard
	mask   uint64
	cfg    Config // the caller's effective (pre-split) configuration
}

// NewSharded returns a sharded engine. cfg.Shards selects the shard count
// (rounded up to a power of two, clamped to MaxShards); zero picks
// DefaultShards. cfg.MemLimit is the aggregate budget across all shards.
func NewSharded(cfg Config) *ShardedEngine {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards()
	}
	n = nextPow2(n)
	full := cfg.withDefaults()
	per := full
	per.MemLimit = full.MemLimit / int64(n)
	if per.MemLimit < 1 {
		per.MemLimit = 1
	}
	se := &ShardedEngine{
		shards: make([]shard, n),
		mask:   uint64(n - 1),
		cfg:    full,
	}
	for i := range se.shards {
		se.shards[i].eng = NewEngine(per)
	}
	return se
}

// hashKey is FNV-1a over the key bytes with a splitmix64 finalizer (same
// mixing as internal/hashring) so short or similar keys spread evenly over
// the shard mask. It allocates nothing.
func hashKey(s string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// shardFor routes a key to its shard.
func (se *ShardedEngine) shardFor(key string) *shard {
	return &se.shards[hashKey(key)&se.mask]
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Config returns the aggregate (pre-split) effective configuration.
func (se *ShardedEngine) Config() Config { return se.cfg }

// Get returns the item stored under key.
func (se *ShardedEngine) Get(key string) (Item, error) {
	sh := se.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Get(key)
}

// Set stores the item unconditionally.
func (se *ShardedEngine) Set(it Item) (uint64, error) {
	sh := se.shardFor(it.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Set(it)
}

// Add stores the item only if the key is absent.
func (se *ShardedEngine) Add(it Item) (uint64, error) {
	sh := se.shardFor(it.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Add(it)
}

// Replace stores the item only if the key is present.
func (se *ShardedEngine) Replace(it Item) (uint64, error) {
	sh := se.shardFor(it.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Replace(it)
}

// CompareAndSwap stores the item only if the current CAS matches expect.
func (se *ShardedEngine) CompareAndSwap(it Item, expect uint64) (uint64, error) {
	sh := se.shardFor(it.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.CompareAndSwap(it, expect)
}

// Reserve finds room for a value and returns the storage to fill, which is
// done with no lock held; see Engine.Reserve.
func (se *ShardedEngine) Reserve(it Item) (Reservation, error) {
	sh := se.shardFor(it.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Reserve(it)
}

// Commit stores a filled reservation; see Engine.Commit.
func (se *ShardedEngine) Commit(r Reservation, mode StoreMode, expect uint64) (uint64, error) {
	sh := se.shardFor(r.en.it.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Commit(r, mode, expect)
}

// Abort gives a reservation's storage back unused.
func (se *ShardedEngine) Abort(r Reservation) {
	sh := se.shardFor(r.en.it.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.eng.Abort(r)
}

// Acquire pins the item stored under key so that its value can be read in
// place with no lock held; see Engine.Acquire.
func (se *ShardedEngine) Acquire(key string) (Pin, error) {
	sh := se.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Acquire(key)
}

// Release ends a pin taken by Acquire.
func (se *ShardedEngine) Release(p Pin) {
	if p.en == nil {
		return
	}
	sh := se.shardFor(p.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.eng.Release(p)
}

// Delete removes the item stored under key.
func (se *ShardedEngine) Delete(key string) error {
	sh := se.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Delete(key)
}

// Touch updates an item's expiry without fetching it.
func (se *ShardedEngine) Touch(key string, expireAt int64) error {
	sh := se.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Touch(key, expireAt)
}

// IncrDecr adjusts a numeric item by delta; see Engine.IncrDecr.
func (se *ShardedEngine) IncrDecr(key string, delta int64, init *uint64, expireAt int64) (uint64, error) {
	sh := se.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.IncrDecr(key, delta, init, expireAt)
}

// Flush invalidates every item on every shard. Shards are flushed one at a
// time; operations racing with a Flush land before or after it per shard,
// which matches memcached's lazy flush semantics.
func (se *ShardedEngine) Flush() {
	for i := range se.shards {
		sh := &se.shards[i]
		sh.mu.Lock()
		sh.eng.Flush()
		sh.mu.Unlock()
	}
}

// Stats aggregates the counters across shards. The snapshot is per-shard
// consistent but not a global atomic cut (counters keep moving while later
// shards are read), which is how real memcached stats behave under load.
func (se *ShardedEngine) Stats() Stats {
	var out Stats
	for i := range se.shards {
		sh := &se.shards[i]
		sh.mu.Lock()
		st := sh.eng.Stats()
		sh.mu.Unlock()
		out.CmdGet += st.CmdGet
		out.CmdSet += st.CmdSet
		out.GetHits += st.GetHits
		out.GetMisses += st.GetMisses
		out.DeleteHits += st.DeleteHits
		out.DeleteMisses += st.DeleteMisses
		out.CasHits += st.CasHits
		out.CasMisses += st.CasMisses
		out.CasBadval += st.CasBadval
		out.CurrItems += st.CurrItems
		out.TotalItems += st.TotalItems
		out.Bytes += st.Bytes
		out.Evictions += st.Evictions
		out.Expired += st.Expired
	}
	out.LimitMaxMB = se.cfg.MemLimit >> 20
	return out
}

// ShardStats returns shard i's private counter snapshot (tests use this to
// check that per-shard stats sum to the aggregate).
func (se *ShardedEngine) ShardStats(i int) Stats {
	sh := &se.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Stats()
}

// Len returns the number of live items across shards.
func (se *ShardedEngine) Len() int {
	n := 0
	for i := range se.shards {
		sh := &se.shards[i]
		sh.mu.Lock()
		n += sh.eng.Len()
		sh.mu.Unlock()
	}
	return n
}

// Keys returns the keys of all live items across shards; order is
// unspecified.
func (se *ShardedEngine) Keys() []string {
	var out []string
	for i := range se.shards {
		sh := &se.shards[i]
		sh.mu.Lock()
		out = append(out, sh.eng.Keys()...)
		sh.mu.Unlock()
	}
	return out
}

// Slabs returns every slab class's ledger summed over the shards, which all
// have the same classes.
func (se *ShardedEngine) Slabs() []SlabStats {
	var out []SlabStats
	for i := range se.shards {
		sh := &se.shards[i]
		sh.mu.Lock()
		st := sh.eng.Slabs()
		sh.mu.Unlock()
		if out == nil {
			out = st
			continue
		}
		for j, c := range st {
			out[j].Pages += c.Pages
			out[j].Free += c.Free
			out[j].Items += c.Items
			out[j].Held += c.Held
			out[j].FreeMem += c.FreeMem
		}
	}
	return out
}

// Mapped returns the bytes of the shards' mapped regions.
func (se *ShardedEngine) Mapped() int64 {
	var n int64
	for i := range se.shards {
		sh := &se.shards[i]
		sh.mu.Lock()
		n += sh.eng.Mapped()
		sh.mu.Unlock()
	}
	return n
}

// Close empties every shard and unmaps its region; see Engine.Close.
func (se *ShardedEngine) Close() {
	for i := range se.shards {
		sh := &se.shards[i]
		sh.mu.Lock()
		sh.eng.Close()
		sh.mu.Unlock()
	}
}

// MemUsed returns bytes of chunk memory in use across shards.
func (se *ShardedEngine) MemUsed() int64 {
	var n int64
	for i := range se.shards {
		sh := &se.shards[i]
		sh.mu.Lock()
		n += sh.eng.MemUsed()
		sh.mu.Unlock()
	}
	return n
}
