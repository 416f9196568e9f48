package memcached

import (
	"errors"
	"runtime"
	"sync/atomic"
)

// ErrNoMemory reports that the arena is full and the needed slab class has
// nothing to evict.
var ErrNoMemory = errors.New("memcached: out of memory storing object")

// pageSize is the minimum slab page size; arenas whose MaxItemSize exceeds
// it use MaxItemSize as the page size, mirroring memcached's -I behaviour.
const pageSize = 1 << 20

// InlineValue is the size up to which a value is small everywhere in the
// socket tier: binproto and mcclient copy it into the frame's buffer
// instead of sending it as its own writev segment, mccluster's front cache
// admits it, and a slab class whose chunks are no larger keeps its values
// as exact-size heap slices. Classes with larger chunks carve them from the
// engine's own mapped region (see slabArena).
const InlineValue = 4 << 10

// slabClass tracks one chunk size: its chunk budget, the intrusive LRU list
// of entries living in it and, for a class above InlineValue, the memory
// its chunks are cut from. freeChunks + items + held is always pages *
// perPage.
type slabClass struct {
	chunkSize  int
	perPage    int
	freeChunks int
	pages      int64
	head, tail *entry // LRU: head = most recent
	items      int64  // entries on the LRU list
	// held counts chunks that are neither free nor on the list: reservations
	// being filled, and removed items a reader still pins.
	held int64

	// Classes above InlineValue only. Memory follows the values that need
	// it: a virtual item takes a chunk of the budget and none of these.
	mem    [][]byte // pages handed to the class from the arena's region
	carved int      // chunks cut from mem so far
	free   [][]byte // cut chunks holding no value; the last freed is reused first
}

// slabbed reports whether the class's values live in the mapped region.
func (c *slabClass) slabbed() bool { return c.chunkSize > InlineValue }

// slabArena is the page allocator behind the slab classes. Up to maxPages
// pages are handed to the classes on demand and never move between them.
// For classes above InlineValue a page is also memory: the arena maps one
// region of maxPages*page bytes the first time such a class stores a real
// value and cuts the classes' pages from it in order. The kernel backs a
// region page when it is first written, so the resident cost is the pages
// the classes have filled, and an engine that stores only small or virtual
// values maps nothing.
type slabArena struct {
	classes        []*slabClass
	page           int64
	maxPages       int64
	pagesAllocated int64

	region      []byte // nil until first needed
	regionPages int64  // pages of region handed to classes
}

// mappedBytes is the total length of the regions live in the process.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of slab memory the process's engines have
// mapped and not yet given back.
func MappedBytes() int64 { return mappedBytes.Load() }

func newSlabArena(cfg Config) *slabArena {
	a := &slabArena{}
	a.page = pageSize
	if int64(cfg.MaxItemSize) > a.page {
		a.page = int64(cfg.MaxItemSize)
	}
	a.maxPages = cfg.MemLimit / a.page
	if a.maxPages < 1 {
		a.maxPages = 1
	}
	size := cfg.MinChunk
	for {
		if size > cfg.MaxItemSize {
			size = cfg.MaxItemSize
		}
		a.classes = append(a.classes, &slabClass{
			chunkSize: size,
			perPage:   int(a.page) / size,
		})
		if size == cfg.MaxItemSize {
			break
		}
		next := int(float64(size) * cfg.GrowthFactor)
		if next <= size {
			next = size + 1
		}
		// Align to 8 bytes like memcached.
		next = (next + 7) &^ 7
		size = next
	}
	return a
}

// classFor returns the index of the smallest class whose chunks fit foot,
// or -1 if none does.
func (a *slabArena) classFor(foot int) int {
	lo, hi := 0, len(a.classes)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.classes[mid].chunkSize < foot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(a.classes) {
		return -1
	}
	return lo
}

// take removes one chunk from the budget of the class that fits foot and
// returns the class's index, growing the class by a page if the arena has
// room, otherwise evicting via the callback until a chunk frees up. For a
// real value in a class above InlineValue it also returns the chunk's
// memory. The caller links an entry into the class or holds the chunk.
func (a *slabArena) take(foot int, real bool, evict func(class int) bool) (ci int, mem []byte, err error) {
	ci = a.classFor(foot)
	if ci < 0 {
		return 0, nil, ErrTooLarge
	}
	c := a.classes[ci]
	for c.freeChunks == 0 {
		if a.pagesAllocated < a.maxPages {
			a.pagesAllocated++
			c.pages++
			c.freeChunks += c.perPage
			break
		}
		// An evicted item that a reader pins keeps its chunk until the
		// reader lets go, so one eviction may not be enough.
		if !evict(ci) {
			return 0, nil, ErrNoMemory
		}
	}
	if real && c.slabbed() {
		if mem, err = a.chunk(c); err != nil {
			return 0, nil, err
		}
	}
	c.freeChunks--
	return ci, mem, nil
}

// chunk returns memory for one value of slabbed class c: the chunk freed
// last, or the next one cut from the class's pages.
func (a *slabArena) chunk(c *slabClass) ([]byte, error) {
	if n := len(c.free); n > 0 {
		m := c.free[n-1]
		c.free = c.free[:n-1]
		return m, nil
	}
	if c.carved == len(c.mem)*c.perPage {
		if a.region == nil {
			n := int(a.maxPages * a.page)
			region, err := mapRegion(n)
			if err != nil {
				return nil, ErrNoMemory
			}
			a.region = region
			mappedBytes.Add(int64(n))
			// The backstop for an engine dropped without Close.
			runtime.SetFinalizer(a, (*slabArena).unmap)
		}
		// The class holds more pages of the budget than of the region, or
		// it would have had a free chunk.
		off := a.regionPages * a.page
		a.regionPages++
		c.mem = append(c.mem, a.region[off:off+a.page])
	}
	off := c.carved % c.perPage * c.chunkSize
	m := c.mem[c.carved/c.perPage][off : off+c.chunkSize : off+c.chunkSize]
	c.carved++
	return m, nil
}

// unmap gives the region back. Every slice into it is dead from here on.
func (a *slabArena) unmap() {
	if a.region == nil {
		return
	}
	runtime.SetFinalizer(a, nil)
	mappedBytes.Add(-int64(len(a.region)))
	unmapRegion(a.region)
	a.region = nil
}

// class returns the class en's chunk belongs to.
func (a *slabArena) class(en *entry) *slabClass { return a.classes[en.class] }

// link puts en, whose chunk the caller took or held, on its class's LRU
// list.
func (a *slabArena) link(en *entry) {
	c := a.class(en)
	c.items++
	a.pushHead(c, en)
}

// unlink takes en off its class's LRU list; its chunk stays taken.
func (a *slabArena) unlink(en *entry) {
	c := a.class(en)
	c.items--
	a.cut(c, en)
}

// giveBack returns en's chunk to its class's budget and, when a value
// lives in it, its memory to the class.
func (a *slabArena) giveBack(en *entry) {
	c := a.class(en)
	c.freeChunks++
	if c.slabbed() && en.it.Value != nil {
		c.free = append(c.free, en.it.Value[:cap(en.it.Value)])
		en.it.Value = nil
	}
}

// touch marks en most-recently used.
func (a *slabArena) touch(en *entry) {
	c := a.class(en)
	a.cut(c, en)
	a.pushHead(c, en)
}

// tail returns the least-recently-used entry of a class, or nil.
func (a *slabArena) tail(class int) *entry { return a.classes[class].tail }

func (a *slabArena) pushHead(c *slabClass, en *entry) {
	en.prev = nil
	en.next = c.head
	if c.head != nil {
		c.head.prev = en
	}
	c.head = en
	if c.tail == nil {
		c.tail = en
	}
}

func (a *slabArena) cut(c *slabClass, en *entry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		c.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		c.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

// SlabStats is one slab class's ledger (memcached's `stats slabs`). Free +
// Items + Held is always Pages times the chunks a page holds.
type SlabStats struct {
	ChunkSize int
	Pages     int64
	Free      int64 // chunks of the budget nobody holds
	Items     int64 // stored items
	Held      int64 // reservations being filled, and removed items still pinned
	// FreeMem counts the chunks of mapped memory that hold no value; it is
	// zero for a class at or below InlineValue, whose values are heap slices.
	FreeMem int64
}

func (a *slabArena) stats() []SlabStats {
	out := make([]SlabStats, len(a.classes))
	for i, c := range a.classes {
		out[i] = SlabStats{
			ChunkSize: c.chunkSize, Pages: c.pages,
			Free: int64(c.freeChunks), Items: c.items, Held: c.held,
			FreeMem: int64(len(c.free)),
		}
	}
	return out
}

// memUsed returns bytes of page memory allocated.
func (a *slabArena) memUsed() int64 { return a.pagesAllocated * a.page }
