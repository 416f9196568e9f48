// Package memcached implements a Memcached-compatible in-memory key-value
// engine: slab-class allocation, per-class LRU eviction, CAS, lazy TTL
// expiry, and the usual counter statistics. The engine is the substrate for
// both the real TCP server (internal/memcached/mcserver, speaking the
// memcached binary protocol) and the simulated RDMA-Memcached burst-buffer
// servers (internal/core), which store "virtual" values — size-only items
// whose payload bytes are never materialized — so that multi-gigabyte
// simulated datasets use real allocator/LRU/statistics code paths without
// real memory.
//
// The engine owns the memory of its large values. A slab class whose chunks
// exceed InlineValue cuts them from a region the engine maps outside the
// collected heap, and a value stored there is copied in once and never
// moves: Set copies the caller's slice, Reserve hands out the chunk itself
// to be filled in place and committed, Acquire pins an item so that its
// bytes can be sent from the chunk, and Get returns a copy. No slice into
// the region is reachable without a Reservation or a Pin. Values of the
// smaller classes are exact-size heap slices: the engine keeps the slice
// Set was given and Get returns it, as before.
//
// The engine is not goroutine-safe. For concurrent use wrap it in a mutex,
// or use ShardedEngine, which partitions the key space over N independent
// engines each behind its own lock (mcserver does the latter).
package memcached

import (
	"errors"
	"fmt"
)

// Errors returned by engine operations. They map 1:1 onto memcached binary
// protocol status codes.
var (
	ErrNotFound   = errors.New("memcached: key not found")
	ErrExists     = errors.New("memcached: key exists (CAS mismatch)")
	ErrTooLarge   = errors.New("memcached: object too large for cache")
	ErrNotStored  = errors.New("memcached: not stored")
	ErrBadDelta   = errors.New("memcached: non-numeric value for incr/decr")
	ErrInvalidArg = errors.New("memcached: invalid arguments")
)

// Item is a cache entry. For a real item, Value holds the payload and Size
// equals len(Value). For a virtual item, Value is nil and Size declares the
// payload length; the allocator and statistics treat both identically.
type Item struct {
	Key      string
	Value    []byte
	Size     int
	Flags    uint32
	CAS      uint64
	ExpireAt int64 // absolute ns timestamp; 0 means never
}

// Virtual reports whether the item carries no materialized payload.
func (it *Item) Virtual() bool { return it.Value == nil && it.Size > 0 }

// Config parametrizes an engine.
type Config struct {
	// MemLimit bounds total item memory (chunk memory, as in memcached's
	// -m). Zero defaults to 64 MiB.
	MemLimit int64
	// MaxItemSize bounds a single item (key+value+overhead). Zero defaults
	// to 1 MiB (memcached's classic -I default).
	MaxItemSize int
	// GrowthFactor is the slab-class chunk growth factor (memcached -f).
	// Zero defaults to 1.25.
	GrowthFactor float64
	// MinChunk is the smallest chunk size. Zero defaults to 96.
	MinChunk int
	// Clock returns the current time in nanoseconds; expiry is evaluated
	// against it. Nil defaults to a clock frozen at 1 (items never expire
	// unless ExpireAt is set in the past).
	Clock func() int64
	// Shards selects the shard count for NewSharded (rounded up to a power
	// of two, clamped to MaxShards); zero picks DefaultShards. A plain
	// Engine ignores it.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.MemLimit == 0 {
		c.MemLimit = 64 << 20
	}
	if c.MaxItemSize == 0 {
		c.MaxItemSize = 1 << 20
	}
	if c.GrowthFactor == 0 {
		c.GrowthFactor = 1.25
	}
	if c.MinChunk == 0 {
		c.MinChunk = 96
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return 1 }
	}
	return c
}

// itemOverhead approximates memcached's per-item metadata cost.
const itemOverhead = 48

// Stats is the engine's counter set (names follow memcached's `stats`).
type Stats struct {
	CmdGet       int64
	CmdSet       int64
	GetHits      int64
	GetMisses    int64
	DeleteHits   int64
	DeleteMisses int64
	CasHits      int64
	CasMisses    int64
	CasBadval    int64
	CurrItems    int64
	TotalItems   int64
	Bytes        int64 // bytes used by item data (key+value+overhead)
	Evictions    int64
	Expired      int64
	LimitMaxMB   int64
}

// entry is 96 bytes, and a cache of small values is mostly entries: class,
// dead and pins share the word class had to itself.
type entry struct {
	it    Item
	class uint16
	// dead marks an item removed from the table while pinned: the last
	// Release gives its chunk back.
	dead bool
	// pins counts the readers holding the value in place, or is reserved
	// while the entry is a Reservation being filled.
	pins int32
	// intrusive per-class LRU list
	prev, next *entry
}

// reserved is entry.pins of a Reservation not yet committed or aborted.
const reserved = -1

// Engine is the key-value store.
type Engine struct {
	cfg     Config
	table   map[string]*entry
	slabs   *slabArena
	casSeq  uint64
	stats   Stats
	flushAt int64 // items stored before this instant are invalid
}

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		table: make(map[string]*entry),
		slabs: newSlabArena(cfg),
	}
	e.stats.LimitMaxMB = cfg.MemLimit >> 20
	return e
}

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// itemFootprint is the slab footprint of an item.
func itemFootprint(key string, size int) int {
	return len(key) + size + itemOverhead
}

func (e *Engine) expired(en *entry) bool {
	if en.it.CAS < e.flushCAS() {
		return true
	}
	return en.it.ExpireAt != 0 && en.it.ExpireAt <= e.cfg.Clock()
}

// flushCAS returns the CAS floor set by the last Flush.
func (e *Engine) flushCAS() uint64 { return uint64(e.flushAt) }

// lookup finds a live entry, lazily reaping it if expired.
func (e *Engine) lookup(key string) *entry {
	en, ok := e.table[key]
	if !ok {
		return nil
	}
	if e.expired(en) {
		e.stats.Expired++
		e.remove(en)
		return nil
	}
	return en
}

// remove takes en out of the table and off its LRU list. Its chunk returns
// to the class at once, unless a reader pins it.
func (e *Engine) remove(en *entry) {
	delete(e.table, en.it.Key)
	e.slabs.unlink(en)
	e.stats.CurrItems--
	e.stats.Bytes -= int64(itemFootprint(en.it.Key, en.it.Size))
	if en.pins > 0 {
		en.dead = true
		e.slabs.class(en).held++
		return
	}
	e.slabs.giveBack(en)
}

// hit is the lookup of a read: it counts the command and marks a found item
// most-recently used.
func (e *Engine) hit(key string) *entry {
	e.stats.CmdGet++
	en := e.lookup(key)
	if en == nil {
		e.stats.GetMisses++
		return nil
	}
	e.stats.GetHits++
	e.slabs.touch(en)
	return en
}

// inRegion reports whether en's value lives in the mapped region.
func (e *Engine) inRegion(en *entry) bool {
	return en.it.Value != nil && e.slabs.class(en).slabbed()
}

// Get returns the item stored under key. A value that lives in the mapped
// region is returned as a copy; Acquire reads it in place.
func (e *Engine) Get(key string) (Item, error) {
	en := e.hit(key)
	if en == nil {
		return Item{}, ErrNotFound
	}
	it := en.it
	if e.inRegion(en) {
		it.Value = append([]byte(nil), it.Value...)
	}
	return it, nil
}

// Pin is an item whose value stays where it is until Release: Value may
// alias the engine's mapped region, so it must not be written, nor read
// after Release or after the engine is closed or dropped.
type Pin struct {
	Item
	en *entry // nil when the value is a heap slice, which needs no pin
}

// Acquire is Get without the copy: the item under key is pinned, and
// removing it meanwhile — by Delete, overwrite, expiry or eviction — leaves
// its bytes intact until the pin is released.
func (e *Engine) Acquire(key string) (Pin, error) {
	en := e.hit(key)
	if en == nil {
		return Pin{}, ErrNotFound
	}
	p := Pin{Item: en.it}
	if e.inRegion(en) {
		en.pins++
		p.en = en
	}
	return p, nil
}

// Release ends a pin taken by Acquire, once.
func (e *Engine) Release(p Pin) {
	en := p.en
	if en == nil {
		return
	}
	if en.pins <= 0 {
		panic("memcached: Release of an item that is not pinned")
	}
	en.pins--
	if en.pins == 0 && en.dead {
		e.slabs.class(en).held--
		e.slabs.giveBack(en)
	}
}

// Touch updates an item's expiry without fetching it.
func (e *Engine) Touch(key string, expireAt int64) error {
	en := e.lookup(key)
	if en == nil {
		return ErrNotFound
	}
	en.it.ExpireAt = expireAt
	e.slabs.touch(en)
	return nil
}

// StoreMode is the condition under which a store takes effect.
type StoreMode uint8

const (
	StoreSet     StoreMode = iota // unconditionally
	StoreAdd                      // only if the key is absent
	StoreReplace                  // only if the key is present
	StoreCAS                      // only if the key's current CAS is the expected one
)

// Set stores the item unconditionally (unless it cannot fit at all).
func (e *Engine) Set(it Item) (cas uint64, err error) {
	return e.store(it, StoreSet, 0)
}

// Add stores the item only if the key is absent.
func (e *Engine) Add(it Item) (cas uint64, err error) {
	return e.store(it, StoreAdd, 0)
}

// Replace stores the item only if the key is present.
func (e *Engine) Replace(it Item) (cas uint64, err error) {
	return e.store(it, StoreReplace, 0)
}

// CompareAndSwap stores the item only if the current CAS matches expect.
func (e *Engine) CompareAndSwap(it Item, expect uint64) (cas uint64, err error) {
	return e.store(it, StoreCAS, expect)
}

// footprint checks a key and value size against MaxItemSize.
func (e *Engine) footprint(key string, size int) (int, error) {
	foot := itemFootprint(key, size)
	if foot > e.cfg.MaxItemSize {
		return 0, fmt.Errorf("%w: %d > max %d", ErrTooLarge, foot, e.cfg.MaxItemSize)
	}
	return foot, nil
}

// admit checks mode's condition and, when it holds, removes the item
// currently under key to make way for the new one.
func (e *Engine) admit(key string, mode StoreMode, expect uint64) error {
	old := e.lookup(key)
	switch mode {
	case StoreAdd:
		if old != nil {
			return ErrNotStored
		}
	case StoreReplace:
		if old == nil {
			return ErrNotStored
		}
	case StoreCAS:
		if old == nil {
			e.stats.CasMisses++
			return ErrNotFound
		}
		if old.it.CAS != expect {
			e.stats.CasBadval++
			return ErrExists
		}
		e.stats.CasHits++
	}
	if old != nil {
		e.remove(old)
	}
	return nil
}

// publish gives en, whose chunk is taken, the next CAS and makes it the
// item under its key.
func (e *Engine) publish(en *entry) uint64 {
	e.casSeq++
	en.it.CAS = e.casSeq
	e.slabs.link(en)
	e.table[en.it.Key] = en
	e.stats.CurrItems++
	e.stats.TotalItems++
	e.stats.Bytes += int64(itemFootprint(en.it.Key, en.it.Size))
	return en.it.CAS
}

func (e *Engine) store(it Item, mode StoreMode, expect uint64) (uint64, error) {
	e.stats.CmdSet++
	if it.Size < 0 || (it.Value != nil && it.Size != 0 && it.Size != len(it.Value)) {
		return 0, fmt.Errorf("%w: inconsistent size", ErrInvalidArg)
	}
	if it.Value != nil {
		it.Size = len(it.Value)
	}
	foot, err := e.footprint(it.Key, it.Size)
	if err != nil {
		return 0, err
	}
	if err := e.admit(it.Key, mode, expect); err != nil {
		return 0, err
	}
	ci, mem, err := e.slabs.take(foot, it.Value != nil, e.evictOne)
	if err != nil {
		return 0, err
	}
	if mem != nil {
		// The one copy of a large value: out of the caller's slice, which
		// stays the caller's, into the chunk.
		it.Value = mem[:copy(mem, it.Value)]
	}
	return e.publish(&entry{it: it, class: uint16(ci)}), nil
}

// Reservation is storage for one value that is not stored yet: fill Value,
// then Commit or Abort, once. While it is open it holds a chunk of its
// class that nothing can evict.
type Reservation struct {
	// Value is where the value goes, at its full length. It is the chunk
	// itself for a class above InlineValue and a fresh heap slice below.
	Value []byte
	en    *entry
}

// Reserve is the first half of a store that puts the value in place
// without an intermediate copy: it finds room for it (Key, Size, Flags and
// ExpireAt; Value is ignored), evicting as Set does, and returns the
// storage to fill. It fails, with nothing to undo, when the item cannot be
// stored at all.
func (e *Engine) Reserve(it Item) (Reservation, error) {
	e.stats.CmdSet++
	if it.Size < 0 {
		return Reservation{}, fmt.Errorf("%w: negative size", ErrInvalidArg)
	}
	foot, err := e.footprint(it.Key, it.Size)
	if err != nil {
		return Reservation{}, err
	}
	ci, mem, err := e.slabs.take(foot, true, e.evictOne)
	if err != nil {
		return Reservation{}, err
	}
	if mem != nil {
		it.Value = mem[:it.Size]
	} else {
		it.Value = make([]byte, it.Size)
	}
	en := &entry{it: it, class: uint16(ci), pins: reserved}
	e.slabs.class(en).held++
	return Reservation{Value: it.Value, en: en}, nil
}

// settle ends a reservation's hold on its chunk.
func (e *Engine) settle(r Reservation) {
	if r.en == nil || r.en.pins != reserved {
		panic("memcached: Commit or Abort of a reservation that is not open")
	}
	r.en.pins = 0
	e.slabs.class(r.en).held--
}

// Commit stores a filled reservation under mode's condition (expect is the
// CAS for StoreCAS). When the condition fails the reservation is aborted.
func (e *Engine) Commit(r Reservation, mode StoreMode, expect uint64) (uint64, error) {
	e.settle(r)
	if err := e.admit(r.en.it.Key, mode, expect); err != nil {
		e.slabs.giveBack(r.en)
		return 0, err
	}
	return e.publish(r.en), nil
}

// Abort gives a reservation's storage back unused.
func (e *Engine) Abort(r Reservation) {
	e.settle(r)
	e.slabs.giveBack(r.en)
}

// evictOne evicts the least-recently-used live item of the given class,
// preferring expired items. It reports whether anything was freed.
func (e *Engine) evictOne(class int) bool {
	en := e.slabs.tail(class)
	if en == nil {
		return false
	}
	if !e.expired(en) {
		e.stats.Evictions++
	} else {
		e.stats.Expired++
	}
	e.remove(en)
	return true
}

// Delete removes the item stored under key.
func (e *Engine) Delete(key string) error {
	en := e.lookup(key)
	if en == nil {
		e.stats.DeleteMisses++
		return ErrNotFound
	}
	e.stats.DeleteHits++
	e.remove(en)
	return nil
}

// IncrDecr adjusts a numeric item by delta (negative for decrement,
// saturating at zero, per protocol). If the key is absent and init is
// non-nil, the item is created with *init. The new value is returned.
func (e *Engine) IncrDecr(key string, delta int64, init *uint64, expireAt int64) (uint64, error) {
	en := e.lookup(key)
	if en == nil {
		if init == nil {
			return 0, ErrNotFound
		}
		v := *init
		_, err := e.store(Item{Key: key, Value: []byte(fmt.Sprintf("%d", v)), ExpireAt: expireAt}, StoreSet, 0)
		return v, err
	}
	if en.it.Virtual() {
		return 0, ErrBadDelta
	}
	var cur uint64
	if _, err := fmt.Sscanf(string(en.it.Value), "%d", &cur); err != nil || !allDigits(en.it.Value) {
		return 0, ErrBadDelta
	}
	var next uint64
	if delta >= 0 {
		next = cur + uint64(delta)
	} else {
		d := uint64(-delta)
		if d > cur {
			next = 0
		} else {
			next = cur - d
		}
	}
	it := en.it
	it.Value = []byte(fmt.Sprintf("%d", next))
	it.Size = 0
	if _, err := e.store(it, StoreSet, 0); err != nil {
		return 0, err
	}
	return next, nil
}

func allDigits(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// Flush invalidates every item currently stored (lazily, as memcached
// does): items with a CAS at or below the current sequence become misses.
func (e *Engine) Flush() {
	e.flushAt = int64(e.casSeq) + 1
}

// Len returns the number of live (possibly expired-but-unreaped) items.
func (e *Engine) Len() int { return len(e.table) }

// Keys returns the keys of all live items, reaping expired ones. Order is
// unspecified. Intended for tests and the simulation's recovery paths, not
// part of the memcached protocol surface.
func (e *Engine) Keys() []string {
	keys := make([]string, 0, len(e.table))
	for k, en := range e.table {
		if e.expired(en) {
			continue
		}
		keys = append(keys, k)
	}
	return keys
}

// MemUsed returns bytes of chunk memory in use (allocated pages).
func (e *Engine) MemUsed() int64 { return e.slabs.memUsed() }

// Slabs returns every slab class's ledger, smallest chunk first.
func (e *Engine) Slabs() []SlabStats { return e.slabs.stats() }

// Mapped returns the bytes of the engine's mapped region: zero until a
// class above InlineValue stores its first real value, at most MemLimit
// after (one page when MemLimit is smaller than that).
func (e *Engine) Mapped() int64 { return int64(len(e.slabs.region)) }

// Close empties the engine and unmaps its region. Every Pin and
// Reservation must have been settled. The engine stays usable, empty, and
// maps again when it needs to; an engine dropped without Close is unmapped
// by a finalizer.
func (e *Engine) Close() {
	e.slabs.unmap()
	e.slabs = newSlabArena(e.cfg)
	e.table = make(map[string]*entry)
	e.stats.CurrItems, e.stats.Bytes = 0, 0
}
