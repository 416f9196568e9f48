// Package memcached implements a Memcached-compatible in-memory key-value
// engine: slab-class allocation, per-class LRU eviction, CAS, lazy TTL
// expiry, and the usual counter statistics. The engine is the substrate for
// the socket tier — the real TCP server (internal/memcached/mcserver,
// speaking the memcached binary protocol) and the clusters built on it —
// and for the simulated Memcached micro-benchmarks (fig1 and fig2), which
// store "virtual" values — size-only items whose payload bytes are never
// materialized — so that their servers use real allocator/LRU/statistics
// code paths without real memory.
//
// Items live outside the collected heap, laid out as memcached lays them
// out: a header of plain integers (CAS, expiry, flags, sizes, LRU and
// hash-chain links, class, pins), then the key, then the value. A real
// item of any size is one chunk of its slab class, cut from a region the
// engine maps itself; a virtual item is a header and a key in an arena of
// bytes. The index is memcached's: a power-of-two array of chain heads, a
// key's bucket the low bits of its hash, the items chained through their
// headers. It doubles, relinking every chain at once, when the items
// outnumber its buckets 3 to 2, and never shrinks. Neither it nor the items
// hold a pointer for the collector to trace. A value is copied in once and
// never moves: Set copies the caller's slice, Reserve hands out the chunk
// itself to be filled in place and committed, Acquire pins an item so that
// its bytes can be sent from the chunk, and Get returns a copy. No slice
// into the region is reachable without a Reservation or a Pin.
//
// Every store, Set and IncrDecr as well as Reserve, takes its chunk first
// and replaces the key's old item only when it commits, so a store that
// gets no chunk leaves the old item in place. In a full class an overwrite
// takes the chunk of the key's own item, and eviction takes the
// least-recently-used item no reader pins; with every item of the class
// pinned, the store fails with ErrNoMemory and evicts nothing.
//
// The engine is safe for concurrent use: every exported method but Config
// takes its one mutex. The two-phase calls are what let a value be moved with no lock
// held: Reserve and Commit (or Abort) bracket the filling of a value's
// storage, Acquire and Release the reading of it in place.
package memcached

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unsafe"
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
	// to 1 MiB (memcached's classic -I default); it is rounded down to a
	// multiple of 8, so that every chunk starts 8-aligned.
	MaxItemSize int
	// Clock returns the current time in nanoseconds; expiry is evaluated
	// against it. Nil defaults to a clock frozen at 1 (items never expire
	// unless ExpireAt is set in the past).
	Clock func() int64

	// growthFactor and minChunk shape the slab classes; zero means the
	// constants below. Only this package's tests set them.
	growthFactor float64
	minChunk     int
}

const (
	// growthFactor is the slab-class chunk growth factor (memcached -f).
	growthFactor = 1.25
	// minChunk is the smallest chunk size.
	minChunk = 96
)

func (c Config) withDefaults() Config {
	if c.MemLimit == 0 {
		c.MemLimit = 64 << 20
	}
	if c.MaxItemSize == 0 {
		c.MaxItemSize = 1 << 20
	}
	c.MaxItemSize = max(c.MaxItemSize&^7, 8)
	if c.growthFactor == 0 {
		c.growthFactor = growthFactor
	}
	if c.minChunk == 0 {
		c.minChunk = minChunk
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return 1 }
	}
	return c
}

// itemOverhead is memcached's per-item metadata cost, and the room in front
// of every item's key that its header takes.
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
	// LimitMaxBytes is MemLimit.
	LimitMaxBytes int64
	// HashPowerLevel is the index's size as a power of two; HashBytes is
	// its memory.
	HashPowerLevel int64
	HashBytes      int64
}

// Engine is the key-value store. Exported methods lock mu; the unexported
// helpers they call assume it is held and call no exported method.
type Engine struct {
	mu      sync.Mutex
	cfg     Config
	seed    maphash.Seed
	table   []ref // chain heads; a key's bucket is the low bits of its hash
	slabs   slabArena
	casSeq  uint64
	stats   Stats
	flushAt uint64 // items with a lower CAS were stored before the last Flush
}

// hashPowerStart is the index's size, as a power of two, in a new or
// closed engine. Only this package's tests change it.
var hashPowerStart = 8

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		seed:  maphash.MakeSeed(),
		table: make([]ref, 1<<hashPowerStart),
		slabs: newSlabArena(cfg),
	}
	e.stats.LimitMaxBytes = cfg.MemLimit
	return e
}

// NewSharded returns NewEngine(cfg). It stays only because it is on the
// benchmark harness's coupling list: benchmark/layers.go calls it.
func NewSharded(cfg Config) *Engine { return NewEngine(cfg) }

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.HashPowerLevel = int64(bits.TrailingZeros(uint(len(e.table))))
	st.HashBytes = int64(len(e.table)) * int64(unsafe.Sizeof(ref(0)))
	return st
}

// itemFootprint is the slab footprint of an item.
func itemFootprint(key string, size int) int {
	return len(key) + size + itemOverhead
}

// footprintOf is the slab footprint of a stored item.
func footprintOf(h *header) int64 {
	return int64(h.keyLen) + int64(h.size) + itemOverhead
}

func (e *Engine) expired(h *header) bool {
	if h.cas < e.flushAt {
		return true
	}
	return h.expireAt != 0 && h.expireAt <= e.cfg.Clock()
}

func (e *Engine) hash(key string) uint64 { return maphash.String(e.seed, key) }

// bucket is the index slot of the chain of the keys whose hash is hv.
func (e *Engine) bucket(hv uint64) *ref { return &e.table[hv&uint64(len(e.table)-1)] }

// lookup finds the live item under key, whose hash is hv, lazily reaping it
// if expired.
func (e *Engine) lookup(key string, hv uint64) ref {
	for r := *e.bucket(hv); r != 0; {
		m := e.slabs.mem(r)
		h := hdrOf(m)
		if string(m[hdrSize:hdrSize+int(h.keyLen)]) != key {
			r = h.hnext
			continue
		}
		if e.expired(h) {
			e.stats.Expired++
			e.remove(r)
			return 0
		}
		return r
	}
	return 0
}

// unindex takes r off its hash chain.
func (e *Engine) unindex(r ref) {
	link := e.bucket(maphash.Bytes(e.seed, e.slabs.key(r)))
	for *link != r {
		link = &e.slabs.hdr(*link).hnext
	}
	*link = e.slabs.hdr(r).hnext
}

// grow doubles the index and relinks every chain into it, as memcached's
// assoc_expand does, but in one step.
func (e *Engine) grow() {
	old := e.table
	e.table = make([]ref, 2*len(old))
	for _, r := range old {
		for r != 0 {
			h := e.slabs.hdr(r)
			next := h.hnext
			head := e.bucket(maphash.Bytes(e.seed, e.slabs.key(r)))
			h.hnext, *head = *head, r
			r = next
		}
	}
}

// remove takes r out of the index and off its LRU list. Its chunk returns
// to the class at once, unless a reader pins it.
func (e *Engine) remove(r ref) {
	e.unindex(r)
	e.slabs.unlink(r)
	h := e.slabs.hdr(r)
	e.stats.CurrItems--
	e.stats.Bytes -= footprintOf(h)
	if h.pins > 0 {
		h.dead = true
		e.slabs.classes[h.class].held++
		return
	}
	e.slabs.giveBack(r)
}

// hit is the lookup of a read: it counts the command and marks a found item
// most-recently used.
func (e *Engine) hit(key string) ref {
	e.stats.CmdGet++
	r := e.lookup(key, e.hash(key))
	if r == 0 {
		e.stats.GetMisses++
		return 0
	}
	e.stats.GetHits++
	e.slabs.touch(r)
	return r
}

// item returns the stored item r, whose key is key, with its value in
// place.
func (e *Engine) item(key string, r ref) Item {
	h := e.slabs.hdr(r)
	return Item{
		Key: key, Value: e.slabs.value(r), Size: int(h.size),
		Flags: h.flags, CAS: h.cas, ExpireAt: h.expireAt,
	}
}

// Get returns the item stored under key, its value copied out of the
// region; Acquire reads it in place.
func (e *Engine) Get(key string) (Item, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.hit(key)
	if r == 0 {
		return Item{}, ErrNotFound
	}
	it := e.item(key, r)
	it.Value = bytes.Clone(it.Value)
	return it, nil
}

// Pin is an item whose value stays where it is until Release: Value
// aliases the engine's mapped region, so it must not be written, nor read
// after Release or after the engine is closed or dropped.
type Pin struct {
	Item
	r ref
}

// Acquire is Get without the copy: the item under key is pinned, so
// eviction passes it over, and removing it meanwhile — by Delete,
// overwrite, expiry or Flush — leaves its bytes intact until the pin is
// released.
func (e *Engine) Acquire(key string) (Pin, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.hit(key)
	if r == 0 {
		return Pin{}, ErrNotFound
	}
	e.slabs.hdr(r).pins++
	return Pin{Item: e.item(key, r), r: r}, nil
}

// Release ends a pin taken by Acquire, once.
func (e *Engine) Release(p Pin) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var h *header
	if p.r != 0 {
		h = e.slabs.hdr(p.r)
	}
	if h == nil || h.pins <= 0 {
		panic("memcached: Release of an item that is not pinned")
	}
	h.pins--
	if h.pins == 0 && h.dead {
		h.dead = false
		e.slabs.classes[h.class].held--
		e.slabs.giveBack(p.r)
	}
}

// Touch updates an item's expiry without fetching it.
func (e *Engine) Touch(key string, expireAt int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.lookup(key, e.hash(key))
	if r == 0 {
		return ErrNotFound
	}
	e.slabs.hdr(r).expireAt = expireAt
	e.slabs.touch(r)
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
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.set(&it)
}

// set is Set with the lock held: reserve, copy and commit in one hold.
func (e *Engine) set(it *Item) (uint64, error) {
	var r Reservation
	old, err := e.reserve(&r, it, StoreSet, 0, it.Value != nil)
	if err != nil {
		return 0, err
	}
	// The one copy of a value: out of the caller's slice, which stays the
	// caller's, into the chunk.
	copy(r.Value, it.Value)
	return e.commit(&r, old)
}

// casOf returns the CAS of the item r, or 0 for no item.
func (e *Engine) casOf(r ref) uint64 {
	if r == 0 {
		return 0
	}
	return e.slabs.hdr(r).cas
}

// admits returns nil if mode's condition holds for a key whose item has
// the CAS cur (0: no item), or the error it fails with; a failed CAS is
// counted.
func (e *Engine) admits(cur uint64, mode StoreMode, expect uint64) error {
	switch {
	case mode == StoreAdd && cur != 0, mode == StoreReplace && cur == 0:
		return ErrNotStored
	case mode == StoreCAS && cur == 0:
		e.stats.CasMisses++
		return ErrNotFound
	case mode == StoreCAS && cur != expect:
		e.stats.CasBadval++
		return ErrExists
	}
	return nil
}

// Reservation is storage for one value that is not stored yet: fill Value,
// then Commit or Abort, once. While it is open it holds a chunk of its
// class that nothing can evict.
type Reservation struct {
	// Value is where the value goes, at its full length: the chunk itself.
	Value  []byte
	r      ref
	key    string
	hv     uint64
	mode   StoreMode
	expect uint64
	// displaced is the CAS of the key's item whose chunk this reservation
	// took, or 0.
	displaced uint64
}

// Reserve is the first half of a store that puts the value in place
// without an intermediate copy: it checks mode's condition (expect is the
// CAS for StoreCAS), takes a chunk for the item (Key, Size, Flags and
// ExpireAt; a Value only sets the size) as Set does, and returns the
// storage to fill. It fails, with nothing to undo and nothing evicted, when
// the item cannot be stored at all or the condition fails; Commit checks
// the condition again, since the key may change in between.
func (e *Engine) Reserve(it Item, mode StoreMode, expect uint64) (r Reservation, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err = e.reserve(&r, &it, mode, expect, true)
	return r, err
}

// reserve checks mode's condition, takes a chunk of the item's class (a
// region chunk if real, else a virtual slot), writes the item into it but
// for its value, and holds it in r. The key's current item stays where it
// is, unless room gives its chunk to the new one; old is that item, or 0
// if there is none now.
func (e *Engine) reserve(r *Reservation, it *Item, mode StoreMode, expect uint64, real bool) (old ref, err error) {
	e.stats.CmdSet++
	if it.Size < 0 || (it.Value != nil && it.Size != 0 && it.Size != len(it.Value)) {
		return 0, fmt.Errorf("%w: inconsistent size", ErrInvalidArg)
	}
	if it.Value != nil {
		it.Size = len(it.Value)
	}
	foot := itemFootprint(it.Key, it.Size)
	if foot > e.cfg.MaxItemSize || uint64(it.Size) > math.MaxUint32 {
		return 0, fmt.Errorf("%w: %d > max %d", ErrTooLarge, foot, e.cfg.MaxItemSize)
	}
	hv := e.hash(it.Key)
	old = e.lookup(it.Key, hv)
	if err := e.admits(e.casOf(old), mode, expect); err != nil {
		return 0, err
	}
	ci := e.slabs.classFor(foot)
	displaced, err := e.room(ci, old)
	if err != nil {
		return 0, err
	}
	if displaced != 0 {
		old = 0
	}
	c, err := e.slabs.take(ci, real, len(it.Key))
	if err != nil {
		return 0, err
	}
	m := e.slabs.mem(c)
	h := hdrOf(m)
	h.flags, h.size, h.expireAt = it.Flags, uint32(it.Size), it.ExpireAt
	copy(m[hdrSize:], it.Key)
	h.pins = reserved
	e.slabs.classes[ci].held++
	*r = Reservation{Value: e.slabs.value(c), r: c, key: it.Key, hv: hv, mode: mode, expect: expect, displaced: displaced}
	return old, nil
}

// room makes sure class ci has a chunk free for a store to the key whose
// item is old (0: none). It takes a new page if the class has no free
// chunk; with no page left it removes old, if old is in the class and
// unpinned, and returns old's CAS; otherwise it evicts the class's
// least-recently-used unpinned item. With every item pinned it fails and
// evicts nothing.
func (e *Engine) room(ci int, old ref) (displaced uint64, err error) {
	if e.slabs.hasRoom(ci) {
		return 0, nil
	}
	if old != 0 {
		if h := e.slabs.hdr(old); int(h.class) == ci && h.pins == 0 {
			displaced = h.cas
			e.remove(old)
			return displaced, nil
		}
	}
	r := e.slabs.victim(ci)
	if r == 0 {
		return 0, ErrNoMemory
	}
	if e.expired(e.slabs.hdr(r)) {
		e.stats.Expired++
	} else {
		e.stats.Evictions++
	}
	e.remove(r)
	return 0, nil
}

// settle ends a reservation's hold on its chunk and returns its header.
func (e *Engine) settle(r *Reservation) *header {
	if r.r != 0 {
		if h := e.slabs.hdr(r.r); h.pins == reserved {
			h.pins = 0
			e.slabs.classes[h.class].held--
			return h
		}
	}
	panic("memcached: Commit or Abort of a reservation that is not open")
}

// Commit stores a filled reservation under the condition Reserve was given,
// replacing the key's current item. When the condition no longer holds the
// reservation is aborted.
func (e *Engine) Commit(r Reservation) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commit(&r, e.lookup(r.key, r.hv))
}

// commit rechecks r's condition against old, the key's live item, or, when
// there is none and r displaced the key's item since the last Flush,
// against that item's CAS; then it replaces old with r and publishes it.
func (e *Engine) commit(r *Reservation, old ref) (uint64, error) {
	h := e.settle(r)
	cur := e.casOf(old)
	if old == 0 && r.displaced >= e.flushAt {
		cur = r.displaced
	}
	if err := e.admits(cur, r.mode, r.expect); err != nil {
		e.slabs.giveBack(r.r)
		return 0, err
	}
	if r.mode == StoreCAS {
		e.stats.CasHits++
	}
	if old != 0 {
		e.remove(old)
	}
	e.casSeq++
	h.cas = e.casSeq
	e.slabs.link(r.r)
	head := e.bucket(r.hv)
	h.hnext, *head = *head, r.r
	e.stats.CurrItems++
	e.stats.TotalItems++
	e.stats.Bytes += footprintOf(h)
	if 2*e.stats.CurrItems > 3*int64(len(e.table)) {
		e.grow()
	}
	return h.cas, nil
}

// Abort gives a reservation's storage back unused. A reservation that
// displaced its key's item leaves the key absent.
func (e *Engine) Abort(r Reservation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.settle(&r)
	e.slabs.giveBack(r.r)
}

// Delete removes the item stored under key.
func (e *Engine) Delete(key string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.lookup(key, e.hash(key))
	if r == 0 {
		e.stats.DeleteMisses++
		return ErrNotFound
	}
	e.stats.DeleteHits++
	e.remove(r)
	return nil
}

// IncrDecr adjusts a numeric item by delta (negative for decrement,
// saturating at zero, per protocol). If the key is absent and init is
// non-nil, the item is created with *init. The new value is returned.
func (e *Engine) IncrDecr(key string, delta int64, init *uint64, expireAt int64) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.lookup(key, e.hash(key))
	if r == 0 {
		if init == nil {
			return 0, ErrNotFound
		}
		_, err := e.set(&Item{Key: key, Value: strconv.AppendUint(nil, *init, 10), ExpireAt: expireAt})
		return *init, err
	}
	if r.virtual() {
		return 0, ErrBadDelta
	}
	cur, err := strconv.ParseUint(string(e.slabs.value(r)), 10, 64)
	if err != nil {
		return 0, ErrBadDelta
	}
	next := cur + uint64(delta)
	if delta < 0 {
		next = cur - min(cur, uint64(-delta))
	}
	h := e.slabs.hdr(r)
	it := Item{Key: key, Value: strconv.AppendUint(nil, next, 10), Flags: h.flags, ExpireAt: h.expireAt}
	if _, err := e.set(&it); err != nil {
		return 0, err
	}
	return next, nil
}

// Flush invalidates every item currently stored (lazily, as memcached
// does): items with a CAS at or below the current sequence become misses.
func (e *Engine) Flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushAt = e.casSeq + 1
}

// Slabs returns every slab class's ledger, smallest chunk first.
func (e *Engine) Slabs() []SlabStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.slabs.stats()
}

// Mapped returns the bytes of the engine's mapped region: zero until the
// first real item is stored, at most MemLimit after (one page when
// MemLimit is smaller than that).
func (e *Engine) Mapped() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int64(len(e.slabs.region))
}

// Close empties the engine and unmaps its region. Every Pin and
// Reservation must have been settled. The engine stays usable, empty, and
// maps again when it needs to; an engine dropped without Close is unmapped
// by a finalizer.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slabs.unmap()
	e.slabs = newSlabArena(e.cfg)
	e.table = make([]ref, 1<<hashPowerStart)
	e.stats.CurrItems, e.stats.Bytes = 0, 0
}
