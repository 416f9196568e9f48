package memcached

import (
	"errors"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"unsafe"
)

// ErrNoMemory reports that the arena is full and the needed slab class has
// nothing to evict: no item, or only pinned ones.
var ErrNoMemory = errors.New("memcached: out of memory storing object")

// pageSize is the minimum slab page size; arenas whose MaxItemSize exceeds
// it use MaxItemSize as the page size, mirroring memcached's -I behaviour.
const pageSize = 1 << 20

// InlineValue is the size up to which a value is small on the wire:
// binproto and mcclient copy it into the frame's buffer instead of sending
// it as its own writev segment, and mccluster's front cache admits it. The
// engine stores values of every size the same way (see slabArena).
const InlineValue = 4 << 10

// ref names a stored item: 0 is no item, a ref with virtualRef set is a
// slot of the virtual arena (its page shifted left by vpageBits, or'd with
// its offset in the page over 8), and any other is a chunk of the mapped
// region (one more than its page shifted left by the arena's shift, or'd
// with its index in the page).
type ref uint32

const (
	virtualRef ref = 1 << 31
	// vpageSize is the size of a virtual arena page, whose offsets over 8
	// take vpageBits bits of a ref.
	vpageSize = 64 << 10
	vpageBits = 13
)

func (r ref) virtual() bool { return r&virtualRef != 0 }

// header is the front of every stored item, followed by its key and, for a
// real item, its value. It holds no pointer, so no item costs the
// collector anything, and the links are refs.
type header struct {
	cas      uint64
	expireAt int64
	flags    uint32
	size     uint32
	keyLen   uint32
	// prev and next link the class's LRU list (head = most recent).
	prev, next ref
	// hnext is the next item whose key has the same hash, or, for a chunk
	// or slot holding no item, the next free one.
	hnext ref
	// pins counts the readers holding the item in place, or is reserved
	// while the item is a Reservation being filled.
	pins  int32
	class uint16
	// dead marks an item removed while pinned: the last Release frees it.
	dead bool
}

// hdrSize is the bytes of header in front of an item's key.
const hdrSize = int(unsafe.Sizeof(header{}))

// reserved is header.pins of a Reservation not yet committed or aborted.
const reserved = -1

// slabClass is one chunk size's state, created on its first take: its
// chunk budget, the LRU list of items living in it, and the region chunks
// its real items are cut from. freeChunks + items + held is always pages *
// perPage.
type slabClass struct {
	freeChunks int
	pages      int64
	head, tail ref
	items      int64 // items on the LRU list
	// held counts chunks that are neither free nor on the list: reservations
	// being filled, and removed items a reader still pins.
	held int64

	// Region memory follows the real items: a virtual item takes a chunk
	// of the budget and none of these.
	memPages int64 // region pages handed to the class
	lastPage int64 // the one chunks are still cut from
	carved   int64 // chunks cut from the class's region pages so far
	free     ref   // cut chunks holding no item; the last freed is reused first
	nfree    int64
}

// slabArena is the page allocator behind the slab classes. Up to maxPages
// pages are handed to the classes on demand and never move between them.
// A page is also memory for the real items: the arena maps one region of
// maxPages*page bytes the first time a real item is stored and cuts the
// classes' pages from it in order. The kernel backs a region page when it
// is first written, so the resident cost is the pages the classes have
// filled. Virtual items (size only) live in vpages, heap pages with no
// pointers in them, as a header and a key; an engine that stores only
// virtual items maps nothing.
type slabArena struct {
	sizes          []int        // chunk size of each class, smallest first
	classes        []*slabClass // nil until the class's first take
	page           int64
	maxPages       int64
	pagesAllocated int64
	shift          uint // a region ref's page is (ref-1) >> shift

	region      []byte   // nil until first needed
	mapped      *mapping // the region's owner, which unmaps it if dropped
	regionPages int64    // pages of region handed to classes
	pageClass   []uint16 // the class each region page was handed to

	vpages [][]byte // virtual items' slots, 8-aligned; only the last page fills
	vfree  []ref    // free slots by size in 8-byte units
}

// mappedBytes is the total length of the regions live in the process.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of slab memory the process's engines have
// mapped and not yet given back.
func MappedBytes() int64 { return mappedBytes.Load() }

// mapping owns a mapped region. It is its own small object so that a
// finalizer can unmap the region of an engine dropped without Close.
type mapping struct{ b []byte }

func (m *mapping) unmap() {
	mappedBytes.Add(-int64(len(m.b)))
	unmapRegion(m.b)
}

func newSlabArena(cfg Config) slabArena {
	a := slabArena{page: pageSize}
	if int64(cfg.MaxItemSize) > a.page {
		a.page = int64(cfg.MaxItemSize)
	}
	a.maxPages = cfg.MemLimit / a.page
	if a.maxPages < 1 {
		a.maxPages = 1
	}
	first := min(cfg.minChunk, cfg.MaxItemSize)
	n := 0
	for size := first; size != 0; size = nextClass(cfg, size) {
		n++
	}
	a.sizes = make([]int, 0, n)
	for size := first; size != 0; size = nextClass(cfg, size) {
		a.sizes = append(a.sizes, size)
	}
	a.shift = uint(bits.Len64(uint64(a.page / int64(a.sizes[0]))))
	return a
}

// nextClass returns the chunk size of the class after the one of size,
// or 0 after the last.
func nextClass(cfg Config, size int) int {
	if size == cfg.MaxItemSize {
		return 0
	}
	next := int(float64(size) * cfg.growthFactor)
	if next <= size {
		next = size + 1
	}
	// Align to 8 bytes like memcached.
	next = (next + 7) &^ 7
	return min(next, cfg.MaxItemSize)
}

// perPage is the chunks one page of class ci holds.
func (a *slabArena) perPage(ci int) int { return int(a.page) / a.sizes[ci] }

// class returns class ci's state, creating it on first use.
func (a *slabArena) class(ci int) *slabClass {
	if a.classes == nil {
		a.classes = make([]*slabClass, len(a.sizes))
	}
	c := a.classes[ci]
	if c == nil {
		c = &slabClass{}
		a.classes[ci] = c
	}
	return c
}

// classFor returns the index of the smallest class whose chunks fit foot,
// or -1 if none does.
func (a *slabArena) classFor(foot int) int {
	if ci, _ := slices.BinarySearch(a.sizes, foot); ci < len(a.sizes) {
		return ci
	}
	return -1
}

// mem returns an item's storage, from its header on: the whole chunk of a
// region item, the rest of its page from a virtual item's slot.
func (a *slabArena) mem(r ref) []byte {
	if r.virtual() {
		return a.vpages[(r&^virtualRef)>>vpageBits][int(r&(1<<vpageBits-1))<<3:]
	}
	p := int64(r-1) >> a.shift
	size := int64(a.sizes[a.pageClass[p]])
	off := p*a.page + (int64(r-1)&(1<<a.shift-1))*size
	return a.region[off : off+size : off+size]
}

// hdrOf returns the header at the front of an item's storage.
func hdrOf(m []byte) *header { return (*header)(unsafe.Pointer(&m[0])) }

// hdr returns the header of the item r. Growing the virtual arena moves
// it, so the pointer is good only until the next take.
func (a *slabArena) hdr(r ref) *header { return hdrOf(a.mem(r)) }

// key returns the key of the item r.
func (a *slabArena) key(r ref) []byte {
	m := a.mem(r)
	return m[hdrSize : hdrSize+int(hdrOf(m).keyLen)]
}

// value returns the value of the item r, in place; nil for a virtual item.
func (a *slabArena) value(r ref) []byte {
	if r.virtual() {
		return nil
	}
	m := a.mem(r)
	h := hdrOf(m)
	v := hdrSize + int(h.keyLen)
	return m[v : v+int(h.size) : v+int(h.size)]
}

// hasRoom reports whether class ci has a chunk of its budget free, first
// growing the class by a page if it has none and the arena has one left.
func (a *slabArena) hasRoom(ci int) bool {
	c := a.class(ci)
	if c.freeChunks == 0 && a.pagesAllocated < a.maxPages {
		a.pagesAllocated++
		c.pages++
		c.freeChunks += a.perPage(ci)
	}
	return c.freeChunks > 0
}

// take removes one chunk from the budget of class ci, which hasRoom found
// room in, and returns the storage of an item with a key of keyLen bytes:
// a region chunk for a real item, an arena slot for a virtual one. Its
// header is zero but for class and keyLen. The caller links the item into
// the class or holds the chunk.
func (a *slabArena) take(ci int, real bool, keyLen int) (ref, error) {
	c := a.classes[ci]
	var r ref
	var err error
	if real {
		r, err = a.chunk(ci, c)
	} else {
		r, err = a.slot(keyLen)
	}
	if err != nil {
		return 0, err
	}
	c.freeChunks--
	*a.hdr(r) = header{keyLen: uint32(keyLen), class: uint16(ci)}
	return r, nil
}

// chunk returns a region chunk of class ci: the one freed last, or the
// next one cut from the class's pages.
func (a *slabArena) chunk(ci int, c *slabClass) (ref, error) {
	if r := c.free; r != 0 {
		c.free = a.hdr(r).hnext
		c.nfree--
		return r, nil
	}
	per := int64(a.perPage(ci))
	if c.carved == c.memPages*per {
		if a.region == nil {
			n := int(a.maxPages * a.page)
			region, err := mapRegion(n)
			if err != nil {
				return 0, ErrNoMemory
			}
			a.region, a.mapped = region, &mapping{region}
			a.pageClass = make([]uint16, a.maxPages)
			mappedBytes.Add(int64(n))
			// The backstop for an engine dropped without Close.
			runtime.SetFinalizer(a.mapped, (*mapping).unmap)
		}
		// The class holds more pages of the budget than of the region, or
		// it would have had a free chunk. A region too large for a ref to
		// name every chunk of stores real items in its first pages only.
		if (a.regionPages+1)<<a.shift >= int64(virtualRef) {
			return 0, ErrNoMemory
		}
		c.lastPage = a.regionPages
		a.pageClass[c.lastPage] = uint16(ci)
		a.regionPages++
		c.memPages++
	}
	r := ref(c.lastPage<<a.shift|c.carved%per) + 1
	c.carved++
	return r, nil
}

// slot returns a virtual arena slot for a header and a key of keyLen
// bytes: a free one of that size, or a new one at the end of the last
// page. The arena never copies what it holds: it grows by a page, of 1 KiB
// at first and twice the last one's size after, up to vpageSize, so that
// an engine of few virtual items costs little; a slot larger than that is
// a page of its own. Past the pages a ref can name, it fails.
func (a *slabArena) slot(keyLen int) (ref, error) {
	n := (hdrSize + keyLen + 7) &^ 7
	if u := n >> 3; u < len(a.vfree) && a.vfree[u] != 0 {
		r := a.vfree[u]
		a.vfree[u] = a.hdr(r).hnext
		return r, nil
	}
	last := len(a.vpages) - 1
	if last < 0 || len(a.vpages[last])+n > cap(a.vpages[last]) {
		if ref(len(a.vpages)) >= virtualRef>>vpageBits {
			return 0, ErrNoMemory
		}
		size := 1 << 10
		if last >= 0 {
			size = min(2*cap(a.vpages[last]), vpageSize)
		}
		a.vpages = append(a.vpages, make([]byte, 0, max(n, size)))
		last++
	}
	off := len(a.vpages[last])
	a.vpages[last] = append(a.vpages[last], make([]byte, n)...)
	return virtualRef | ref(last)<<vpageBits | ref(off>>3), nil
}

// unmap gives the region back. Every slice into it is dead from here on.
func (a *slabArena) unmap() {
	if a.mapped == nil {
		return
	}
	runtime.SetFinalizer(a.mapped, nil)
	a.mapped.unmap()
	a.mapped, a.region = nil, nil
}

// link puts r, whose chunk the caller took or held, on its class's LRU
// list.
func (a *slabArena) link(r ref) {
	c := a.classes[a.hdr(r).class]
	c.items++
	a.pushHead(c, r)
}

// unlink takes r off its class's LRU list; its chunk stays taken.
func (a *slabArena) unlink(r ref) {
	c := a.classes[a.hdr(r).class]
	c.items--
	a.cut(c, r)
}

// giveBack returns r's chunk to its class's budget and its storage to the
// class's free chunks or the arena's free slots.
func (a *slabArena) giveBack(r ref) {
	h := a.hdr(r)
	c := a.classes[h.class]
	c.freeChunks++
	if r.virtual() {
		u := (hdrSize + int(h.keyLen) + 7) >> 3
		if u >= len(a.vfree) {
			a.vfree = append(a.vfree, make([]ref, u+1-len(a.vfree))...)
		}
		h.hnext, a.vfree[u] = a.vfree[u], r
		return
	}
	h.hnext, c.free = c.free, r
	c.nfree++
}

// touch marks r most-recently used.
func (a *slabArena) touch(r ref) {
	c := a.classes[a.hdr(r).class]
	if c.head != r {
		a.cut(c, r)
		a.pushHead(c, r)
	}
}

// victim returns the least-recently-used item of class ci that no reader
// pins, or 0.
func (a *slabArena) victim(ci int) ref {
	r := a.classes[ci].tail
	for r != 0 && a.hdr(r).pins != 0 {
		r = a.hdr(r).prev
	}
	return r
}

func (a *slabArena) pushHead(c *slabClass, r ref) {
	h := a.hdr(r)
	h.prev, h.next = 0, c.head
	if c.head != 0 {
		a.hdr(c.head).prev = r
	}
	c.head = r
	if c.tail == 0 {
		c.tail = r
	}
}

func (a *slabArena) cut(c *slabClass, r ref) {
	h := a.hdr(r)
	if h.prev != 0 {
		a.hdr(h.prev).next = h.next
	} else {
		c.head = h.next
	}
	if h.next != 0 {
		a.hdr(h.next).prev = h.prev
	} else {
		c.tail = h.prev
	}
	h.prev, h.next = 0, 0
}

// SlabStats is one slab class's ledger (memcached's `stats slabs`). Free +
// Items + Held is always Pages times the chunks a page holds.
type SlabStats struct {
	ChunkSize int
	Pages     int64
	Free      int64 // chunks of the budget nobody holds
	Items     int64 // stored items
	Held      int64 // reservations being filled, and removed items still pinned
	// FreeMem counts the chunks of mapped memory that hold no item.
	FreeMem int64
}

func (a *slabArena) stats() []SlabStats {
	out := make([]SlabStats, len(a.sizes))
	for i, size := range a.sizes {
		out[i].ChunkSize = size
		if i >= len(a.classes) || a.classes[i] == nil {
			continue
		}
		c := a.classes[i]
		out[i].Pages, out[i].Free, out[i].Items, out[i].Held = c.pages, int64(c.freeChunks), c.items, c.held
		out[i].FreeMem = c.nfree
	}
	return out
}
