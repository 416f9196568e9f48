package memcached

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// big is a value size that lands in a class above InlineValue.
const big = 64 << 10

// noise is what the test values are cut from, at an offset per seed.
var noise = func() []byte {
	b := make([]byte, 1<<20+4096)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}()

// pattern returns n bytes that differ from every other seed's.
func pattern(seed, n int) []byte {
	off := seed % 4096
	return append([]byte(nil), noise[off:off+n]...)
}

// classOf returns the ledger of the class a value of the given size lives in.
func classOf(e *Engine, key string, size int) SlabStats {
	return e.Slabs()[e.slabs.classFor(itemFootprint(key, size))]
}

// pagesOf returns the pages the engine's classes hold, from its ledger.
func pagesOf(e *Engine) (pages int64) {
	for _, c := range e.Slabs() {
		pages += c.Pages
	}
	return pages
}

// TestHeaderFitsItemOverhead: an item's header sits in the itemOverhead
// bytes its footprint already charges, so the chunk a footprint picks
// holds the header, the key and the value.
func TestHeaderFitsItemOverhead(t *testing.T) {
	if got := unsafe.Sizeof(header{}); got > itemOverhead {
		t.Fatalf("unsafe.Sizeof(header{}) = %d, want at most %d", got, itemOverhead)
	}
}

func TestLargeValueIsCopiedInAndOut(t *testing.T) {
	e := NewEngine(Config{MemLimit: 8 << 20})
	defer e.Close()
	src := pattern(1, big)
	if _, err := e.Set(Item{Key: "k", Value: src}); err != nil {
		t.Fatal(err)
	}
	if e.Mapped() != 8<<20 {
		t.Errorf("Mapped = %d, want the whole 8 MiB region", e.Mapped())
	}
	src[0] ^= 0xff // the caller's slice stays the caller's
	a, err := e.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Value, pattern(1, big)) {
		t.Fatal("stored value follows the caller's slice")
	}
	a.Value[1] ^= 0xff // and what Get returns is the caller's too
	b, _ := e.Get("k")
	if !bytes.Equal(b.Value, pattern(1, big)) {
		t.Fatal("Get returned a slice into the slab")
	}
}

func TestSmallAndVirtualValuesBehaveAsBefore(t *testing.T) {
	e := NewEngine(Config{MemLimit: 8 << 20})
	defer e.Close()
	small := []byte("small")
	e.Set(Item{Key: "s", Value: small})
	small[0] = 'S' // the caller's slice stays the caller's
	it, _ := e.Get("s")
	if string(it.Value) != "small" {
		t.Fatalf("stored value follows the caller's slice: %q", it.Value)
	}
	it.Value[0] = 'X' // and what Get returns is a copy
	if again, _ := e.Get("s"); string(again.Value) != "small" {
		t.Errorf("Get returned a slice into the chunk: %q", again.Value)
	}
	if e.Mapped() != 8<<20 {
		t.Errorf("Mapped = %d: a small real value lives in the region too", e.Mapped())
	}
	e.Set(Item{Key: "v", Size: big})
	it, err := e.Get("v")
	if err != nil || !it.Virtual() || it.Size != big {
		t.Errorf("virtual item = %+v, %v", it, err)
	}
	p, err := e.Acquire("v")
	if err != nil || !p.Virtual() {
		t.Errorf("virtual pin = %+v, %v", p, err)
	}
	e.Release(p)
	if c := classOf(e, "v", big); c.Items != 1 || c.Held != 0 || c.FreeMem != 0 {
		t.Errorf("virtual item's class: %+v", c)
	}
}

// TestVirtualOnlyEngineMapsNothing is the simulator's use: gigabytes of
// size-only items through the classes above InlineValue, evictions
// included, and not a byte of region. The process total may fall meanwhile,
// as finalizers unmap engines earlier tests dropped, but must not rise.
func TestVirtualOnlyEngineMapsNothing(t *testing.T) {
	before := MappedBytes()
	e := NewEngine(Config{MemLimit: 64 << 20, MaxItemSize: 2 << 20})
	for i := 0; i < 2000; i++ {
		if _, err := e.Set(Item{Key: fmt.Sprintf("blk-%d", i), Size: 1 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Evictions == 0 {
		t.Error("no eviction: the test does not fill the engine")
	}
	if e.Mapped() != 0 || MappedBytes() > before {
		t.Errorf("Mapped = %d, process %d -> %d", e.Mapped(), before, MappedBytes())
	}
}

func TestReserveCommitModes(t *testing.T) {
	e := NewEngine(Config{MemLimit: 8 << 20})
	defer e.Close()
	putSeed := func(key string, seed, size int, mode StoreMode, expect uint64) (uint64, error) {
		r, err := e.Reserve(Item{Key: key, Size: size, Flags: uint32(seed)}, mode, expect)
		if err != nil {
			return 0, err
		}
		if len(r.Value) != size {
			t.Fatalf("reservation of %d bytes has %d", size, len(r.Value))
		}
		copy(r.Value, pattern(seed, size))
		return e.Commit(r)
	}
	for _, size := range []int{5, big} {
		key := fmt.Sprintf("k%d", size)
		if _, err := putSeed(key, 1, size, StoreReplace, 0); !errors.Is(err, ErrNotStored) {
			t.Errorf("replace of a missing key: %v", err)
		}
		if _, err := putSeed(key, 2, size, StoreCAS, 9); !errors.Is(err, ErrNotFound) {
			t.Errorf("cas of a missing key: %v", err)
		}
		cas, err := putSeed(key, 3, size, StoreAdd, 0)
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		if _, err := putSeed(key, 4, size, StoreAdd, 0); !errors.Is(err, ErrNotStored) {
			t.Errorf("add of a present key: %v", err)
		}
		if _, err := putSeed(key, 5, size, StoreCAS, cas+1); !errors.Is(err, ErrExists) {
			t.Errorf("stale cas: %v", err)
		}
		if it, _ := e.Get(key); !bytes.Equal(it.Value, pattern(3, size)) || it.Flags != 3 || it.CAS != cas {
			t.Errorf("failed commits disturbed the item: flags %d cas %d", it.Flags, it.CAS)
		}
		if _, err := putSeed(key, 6, size, StoreCAS, cas); err != nil {
			t.Errorf("cas: %v", err)
		}
		if _, err := putSeed(key, 7, size, StoreReplace, 0); err != nil {
			t.Errorf("replace: %v", err)
		}
		if _, err := putSeed(key, 8, size, StoreSet, 0); err != nil {
			t.Errorf("set: %v", err)
		}
		if it, _ := e.Get(key); !bytes.Equal(it.Value, pattern(8, size)) || it.Flags != 8 {
			t.Errorf("last commit is not what Get returns")
		}
		// Ten stores, four of them stored, one item: every other chunk
		// is free.
		if c := classOf(e, key, size); c.Items != 1 || c.Held != 0 || c.Free+1 != c.Pages*int64(e.slabs.perPage(e.slabs.classFor(itemFootprint(key, size)))) {
			t.Errorf("class ledger after the commits: %+v", c)
		}
	}
	st := e.Stats()
	if st.CurrItems != 2 || st.CasHits != 2 || st.CasBadval != 2 || st.CasMisses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReserveRefusesWhatCannotBeStored(t *testing.T) {
	e := NewEngine(Config{MemLimit: 2 << 20})
	defer e.Close()
	if _, err := e.Reserve(Item{Key: "k", Size: 2 << 20}, StoreSet, 0); !errors.Is(err, ErrTooLarge) {
		t.Errorf("2 MiB against the 1 MiB MaxItemSize: %v", err)
	}
	if _, err := e.Reserve(Item{Key: "k", Size: -1}, StoreSet, 0); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("negative size: %v", err)
	}
	// Two pages, both held by open reservations of one class: a third has
	// nothing to evict.
	a, err := e.Reserve(Item{Key: "a", Size: 900 << 10}, StoreSet, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Reserve(Item{Key: "b", Size: 900 << 10}, StoreSet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reserve(Item{Key: "c", Size: 900 << 10}, StoreSet, 0); !errors.Is(err, ErrNoMemory) {
		t.Errorf("third reservation: %v", err)
	}
	e.Abort(a)
	if _, err := e.Commit(b); err != nil {
		t.Fatal(err)
	}
	c, err := e.Reserve(Item{Key: "c", Size: 900 << 10}, StoreSet, 0)
	if err != nil {
		t.Fatalf("reservation after an abort: %v", err)
	}
	e.Abort(c)
	if e.Mapped() != 2<<20 || e.Mapped() > e.Config().MemLimit {
		t.Errorf("Mapped = %d", e.Mapped())
	}
}

// fillClass stores values of size under fresh keys until the class they
// land in evicts, so that it is full and the arena has no page left, and
// returns the last key stored.
func fillClass(t *testing.T, e *Engine, size int) (key string) {
	t.Helper()
	for i := 0; e.Stats().Evictions == 0; i++ {
		key = fmt.Sprintf("k%d", i)
		if _, err := e.Set(Item{Key: key, Value: pattern(i, size)}); err != nil {
			t.Fatal(err)
		}
	}
	return key
}

// lruKeys returns the keys of class ci's items, least recently used first.
func lruKeys(e *Engine, ci int) (keys []string) {
	for r := e.slabs.classes[ci].tail; r != 0; r = e.slabs.hdr(r).prev {
		keys = append(keys, string(e.slabs.key(r)))
	}
	return keys
}

// TestDoomedStoresEvictNothing: in a full class, an Add of a present key
// and a CAS with a stale token fail before Reserve takes a chunk, so 10^4
// of each evict nothing, free nothing and count each failed CAS once.
func TestDoomedStoresEvictNothing(t *testing.T) {
	e := NewEngine(Config{MemLimit: 2 << 20})
	defer e.Close()
	key := fillClass(t, e, big)
	it, _ := e.Get(key)
	cas := it.CAS
	before, class := e.Stats(), classOf(e, key, big)
	for i := 0; i < 10000; i++ {
		if _, err := e.Reserve(Item{Key: key, Size: big}, StoreAdd, 0); !errors.Is(err, ErrNotStored) {
			t.Fatalf("add of a present key: %v", err)
		}
		if _, err := e.Reserve(Item{Key: key, Size: big}, StoreCAS, cas+1); !errors.Is(err, ErrExists) {
			t.Fatalf("cas with a stale token: %v", err)
		}
	}
	after := e.Stats()
	if after.Evictions != before.Evictions || after.CurrItems != before.CurrItems {
		t.Errorf("evictions %d -> %d, items %d -> %d", before.Evictions, after.Evictions, before.CurrItems, after.CurrItems)
	}
	if after.CasBadval != before.CasBadval+10000 || after.CasHits != before.CasHits {
		t.Errorf("cas badval %d -> %d, hits %d -> %d", before.CasBadval, after.CasBadval, before.CasHits, after.CasHits)
	}
	if c := classOf(e, key, big); c != class {
		t.Errorf("class ledger %+v -> %+v", class, c)
	}
	checkLedger(t, e)
}

// TestOverwritesAtMemLimitEvictNothing: in a full class with no page left,
// 10^4 overwrites of one key, through Set and through Reserve and Commit,
// each take the key's own chunk, so Evictions and CurrItems stay where they
// were.
func TestOverwritesAtMemLimitEvictNothing(t *testing.T) {
	stores := map[string]func(e *Engine, it Item) error{
		"set": func(e *Engine, it Item) error {
			_, err := e.Set(it)
			return err
		},
		"reserve": func(e *Engine, it Item) error {
			_, err := put(e, it, StoreSet, 0)
			return err
		},
	}
	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(Config{MemLimit: 1 << 20})
			defer e.Close()
			key := fillClass(t, e, 1000)
			before := e.Stats()
			for i := 0; i < 10000; i++ {
				if err := store(e, Item{Key: key, Value: pattern(i, 1000), Size: 1000}); err != nil {
					t.Fatalf("overwrite %d: %v", i, err)
				}
			}
			after := e.Stats()
			if after.Evictions != before.Evictions || after.CurrItems != before.CurrItems {
				t.Errorf("evictions %d -> %d, items %d -> %d", before.Evictions, after.Evictions, before.CurrItems, after.CurrItems)
			}
			if it, err := e.Get(key); err != nil || !bytes.Equal(it.Value, pattern(9999, 1000)) {
				t.Errorf("the last overwrite is not what Get returns: %v", err)
			}
			checkLedger(t, e)
		})
	}
}

// TestOwnChunkReservation: in a full class, a reservation for a present
// key takes that key's chunk, so the key reads as absent until Commit
// stores it, with no eviction. A Flush in between fails a REPLACE, an Abort
// leaves the key absent, and a store that gets no chunk at all leaves the
// key's item as it was.
func TestOwnChunkReservation(t *testing.T) {
	e := NewEngine(Config{MemLimit: 1 << 20})
	defer e.Close()
	key := fillClass(t, e, 1000)
	before := e.Stats()
	r, err := e.Reserve(Item{Key: key, Size: 1000}, StoreReplace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("the key's item is readable while a reservation holds its chunk: %v", err)
	}
	copy(r.Value, pattern(1, 1000))
	if _, err := e.Commit(r); err != nil {
		t.Fatalf("replace over the key's own chunk: %v", err)
	}
	if st := e.Stats(); st.Evictions != before.Evictions || st.CurrItems != before.CurrItems {
		t.Errorf("evictions %d -> %d, items %d -> %d", before.Evictions, st.Evictions, before.CurrItems, st.CurrItems)
	}
	if r, err = e.Reserve(Item{Key: key, Size: 1000}, StoreReplace, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if _, err := e.Commit(r); !errors.Is(err, ErrNotStored) {
		t.Errorf("replace of an item a Flush invalidated: %v", err)
	}
	e.Set(Item{Key: key, Value: pattern(2, 1000)})
	if r, err = e.Reserve(Item{Key: key, Size: 1000}, StoreSet, 0); err != nil {
		t.Fatal(err)
	}
	e.Abort(r)
	if _, err := e.Get(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("an aborted reservation gave the displaced item back: %v", err)
	}
	// A value of another class: that class has no page and no item.
	e.Set(Item{Key: key, Value: pattern(3, 1000)})
	if _, err := e.Set(Item{Key: key, Value: pattern(4, 100)}); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("store into a class with no page: %v", err)
	}
	if it, err := e.Get(key); err != nil || !bytes.Equal(it.Value, pattern(3, 1000)) {
		t.Errorf("a store that got no chunk removed the key's item: %v", err)
	}
	checkLedger(t, e)
}

// TestEvictionSkipsPinnedItems: eviction takes the least-recently-used
// item that no reader pins. With the four least-recently-used items of a
// full class pinned, a store evicts one unpinned item and the pinned ones
// outlive 10^3 more stores, their bytes in place. With every item of the
// class pinned, a store fails with ErrNoMemory, evicting nothing and
// leaving the key's item.
func TestEvictionSkipsPinnedItems(t *testing.T) {
	t.Run("tail", func(t *testing.T) {
		e := NewEngine(Config{MemLimit: 1 << 20})
		defer e.Close()
		key := fillClass(t, e, 1000)
		ci := e.slabs.classFor(itemFootprint(key, 1000))
		lru := lruKeys(e, ci)
		var pins []Pin
		for _, k := range lru[:4] {
			p, err := e.Acquire(k)
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, p)
		}
		for _, k := range lru[4:] {
			e.Get(k) // the pinned four are the tail again
		}
		before := e.Stats()
		if _, err := e.Set(Item{Key: "new", Value: pattern(0, 1000)}); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Evictions != before.Evictions+1 || st.CurrItems != before.CurrItems {
			t.Errorf("one store: evictions %d -> %d, items %d -> %d", before.Evictions, st.Evictions, before.CurrItems, st.CurrItems)
		}
		for i := 0; i < 1000; i++ {
			if _, err := e.Set(Item{Key: fmt.Sprintf("more-%d", i), Value: pattern(i, 1000)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pins {
			if it, err := e.Get(p.Key); err != nil || !bytes.Equal(it.Value, p.Value) {
				t.Errorf("pinned %s was evicted: %v", p.Key, err)
			}
			e.Release(p)
		}
		if c := e.Slabs()[ci]; c.Held != 0 {
			t.Errorf("%d chunks held with no item removed under a pin", c.Held)
		}
		checkLedger(t, e)
	})
	t.Run("all", func(t *testing.T) {
		e := NewEngine(Config{MemLimit: 1 << 20})
		defer e.Close()
		const size = 200 << 10
		key := fillClass(t, e, size)
		ci := e.slabs.classFor(itemFootprint(key, size))
		var pins []Pin
		for _, k := range lruKeys(e, ci) {
			p, err := e.Acquire(k)
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, p)
		}
		before := e.Stats()
		for _, k := range []string{key, "new"} {
			if _, err := e.Set(Item{Key: k, Value: pattern(1, size)}); !errors.Is(err, ErrNoMemory) {
				t.Errorf("store of %s with every item pinned: %v", k, err)
			}
			if _, err := e.Reserve(Item{Key: k, Size: size}, StoreSet, 0); !errors.Is(err, ErrNoMemory) {
				t.Errorf("reservation of %s with every item pinned: %v", k, err)
			}
		}
		if st := e.Stats(); st.Evictions != before.Evictions || st.CurrItems != before.CurrItems {
			t.Errorf("evictions %d -> %d, items %d -> %d", before.Evictions, st.Evictions, before.CurrItems, st.CurrItems)
		}
		for _, p := range pins {
			if it, err := e.Get(p.Key); err != nil || !bytes.Equal(it.Value, p.Value) {
				t.Errorf("pinned %s did not keep its item: %v", p.Key, err)
			}
		}
		e.Release(pins[0])
		if _, err := e.Set(Item{Key: "new", Value: pattern(1, size)}); err != nil {
			t.Errorf("store after one release: %v", err)
		}
		if _, err := e.Get(pins[0].Key); !errors.Is(err, ErrNotFound) {
			t.Errorf("the released item was not the one evicted: %v", err)
		}
		for _, p := range pins[1:] {
			e.Release(p)
		}
		checkLedger(t, e)
	})
}

// TestConcurrentOverwritesEvictNothing: 16 goroutines overwrite their own
// keys of a full class 10^3 times each through Reserve and Commit, up to 16
// reservations open at once. Each takes its key's own chunk, so Evictions
// and CurrItems end where they began.
func TestConcurrentOverwritesEvictNothing(t *testing.T) {
	e := NewEngine(Config{MemLimit: 1 << 20})
	defer e.Close()
	const workers, rounds, size = 16, 1000, 1000
	fillClass(t, e, size)
	for w := 0; w < workers; w++ {
		if _, err := e.Set(Item{Key: fmt.Sprintf("w%d", w), Value: pattern(w, size)}); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r, err := e.Reserve(Item{Key: key, Size: size}, StoreSet, 0)
				if err != nil {
					t.Errorf("reserve %s: %v", key, err)
					return
				}
				copy(r.Value, pattern(i, size))
				if _, err := e.Commit(r); err != nil {
					t.Errorf("commit %s: %v", key, err)
					return
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	wg.Wait()
	after := e.Stats()
	if after.Evictions != before.Evictions || after.CurrItems != before.CurrItems {
		t.Errorf("evictions %d -> %d, items %d -> %d", before.Evictions, after.Evictions, before.CurrItems, after.CurrItems)
	}
	for w := 0; w < workers; w++ {
		if it, err := e.Get(fmt.Sprintf("w%d", w)); err != nil || !bytes.Equal(it.Value, pattern(rounds-1, size)) {
			t.Errorf("w%d does not hold its last overwrite: %v", w, err)
		}
	}
	checkLedger(t, e)
}

func TestPinOutlivesRemoval(t *testing.T) {
	removals := map[string]func(e *Engine){
		"delete":    func(e *Engine) { e.Delete("k") },
		"overwrite": func(e *Engine) { e.Set(Item{Key: "k", Value: pattern(2, big)}) },
		"flush":     func(e *Engine) { e.Flush(); e.Get("k") },
	}
	for name, removeIt := range removals {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(Config{MemLimit: 4 << 20})
			defer e.Close()
			e.Set(Item{Key: "k", Value: pattern(1, big)})
			p, err := e.Acquire("k")
			if err != nil {
				t.Fatal(err)
			}
			q, _ := e.Acquire("k")
			items := e.Stats().CurrItems
			removeIt(e)
			if it, err := e.Get("k"); err == nil && bytes.Equal(it.Value, pattern(1, big)) {
				t.Fatal("the item was not removed")
			}
			if name == "delete" && e.Stats().CurrItems != items-1 {
				t.Errorf("CurrItems = %d: the removed item is still counted", e.Stats().CurrItems)
			}
			if !bytes.Equal(p.Value, pattern(1, big)) {
				t.Fatal("pinned bytes changed under the pin")
			}
			c := classOf(e, "k", big)
			if c.Held != 1 {
				t.Errorf("held = %d while pinned, want 1", c.Held)
			}
			e.Release(p)
			if got := classOf(e, "k", big); got.Held != 1 || got.FreeMem != c.FreeMem {
				t.Errorf("first of two releases gave the chunk back: %+v", got)
			}
			e.Release(q)
			if got := classOf(e, "k", big); got.Held != 0 || got.Free != c.Free+1 || got.FreeMem != c.FreeMem+1 {
				t.Errorf("after the last release: %+v, while pinned: %+v", got, c)
			}
		})
	}
}

// checkLedger asserts the two conservation laws of every class.
func checkLedger(t *testing.T, e *Engine) {
	t.Helper()
	if e.Mapped() > e.cfg.MemLimit {
		t.Fatalf("mapped %d > MemLimit %d", e.Mapped(), e.cfg.MemLimit)
	}
	a := &e.slabs
	var pages, memPages int64
	for i, c := range a.classes {
		if c == nil {
			continue
		}
		if got, want := int64(c.freeChunks)+c.items+c.held, c.pages*int64(a.perPage(i)); got != want {
			t.Fatalf("class %d (%d B): free %d + items %d + held %d = %d, accounted %d",
				i, a.sizes[i], c.freeChunks, c.items, c.held, got, want)
		}
		var n int64
		for r := c.head; r != 0; r = a.hdr(r).next {
			n++
		}
		if n != c.items {
			t.Fatalf("class %d: %d items on the list, items %d", i, n, c.items)
		}
		if c.memPages > c.pages || c.carved > c.pages*int64(a.perPage(i)) {
			t.Fatalf("class %d: %d pages and %d chunks of memory for %d pages of budget", i, c.memPages, c.carved, c.pages)
		}
		pages += c.pages
		memPages += c.memPages
	}
	if pages != a.pagesAllocated || memPages != a.regionPages || pages > a.maxPages {
		t.Fatalf("pages: classes %d arena %d max %d; region: classes %d arena %d",
			pages, a.pagesAllocated, a.maxPages, memPages, a.regionPages)
	}
}

// tableBytes sums the footprints of the items the index holds.
func tableBytes(e *Engine) (items, bytes int64) {
	for _, r := range e.table {
		for ; r != 0; r = e.slabs.hdr(r).hnext {
			items++
			bytes += footprintOf(e.slabs.hdr(r))
		}
	}
	return items, bytes
}

// TestSlabLedgerStress drives one engine through 10^5 random steps of
// every operation that moves a chunk, over real and virtual values in
// three size ranges, checking every open pin's bytes as it goes and the
// class ledgers at intervals and at the end.
func TestSlabLedgerStress(t *testing.T) {
	steps := 100_000
	if testing.Short() {
		steps = 10_000
	}
	rng := rand.New(rand.NewSource(23))
	e := NewEngine(Config{MemLimit: 4 << 20})
	defer e.Close()
	sizes := []int{40, 3000, 5000, 9000, 70_000}
	type openPin struct {
		p    Pin
		want []byte
	}
	var pins []openPin
	var open []Reservation
	seedOf := map[string]int{} // key -> seed of its value at the last successful real store
	key := func() string { return fmt.Sprintf("key-%d", rng.Intn(400)) }
	for i := 0; i < steps; i++ {
		k, size := key(), sizes[rng.Intn(len(sizes))]
		switch rng.Intn(10) {
		case 0, 1, 2:
			if _, err := e.Set(Item{Key: k, Value: pattern(i, size)}); err == nil {
				seedOf[k] = i
			} else if !errors.Is(err, ErrNoMemory) {
				t.Fatal(err)
			} else {
				delete(seedOf, k)
			}
		case 3:
			e.Set(Item{Key: k, Size: size})
			delete(seedOf, k)
		case 4:
			e.Delete(k)
			delete(seedOf, k)
		case 5:
			mode := StoreMode(rng.Intn(3)) // set, add, replace
			if r, err := e.Reserve(Item{Key: k, Size: size}, mode, 0); err == nil {
				open = append(open, r)
			}
		case 6, 7:
			if len(open) == 0 {
				continue
			}
			j := rng.Intn(len(open))
			r := open[j]
			open = append(open[:j], open[j+1:]...)
			if rng.Intn(3) == 0 {
				e.Abort(r)
				continue
			}
			copy(r.Value, pattern(i, len(r.Value)))
			if _, err := e.Commit(r); err == nil {
				seedOf[r.key] = i
			} else if !errors.Is(err, ErrNotStored) {
				t.Fatal(err)
			}
		case 8:
			if len(pins) < 12 {
				if p, err := e.Acquire(k); err == nil {
					if seed, ok := seedOf[k]; ok && !bytes.Equal(p.Value, pattern(seed, len(p.Value))) {
						t.Fatalf("step %d: %s does not hold what was last stored", i, k)
					}
					pins = append(pins, openPin{p, append([]byte(nil), p.Value...)})
				}
			}
		case 9:
			if len(pins) == 0 {
				continue
			}
			j := rng.Intn(len(pins))
			if !bytes.Equal(pins[j].p.Value, pins[j].want) {
				t.Fatalf("step %d: bytes under a pin changed", i)
			}
			e.Release(pins[j].p)
			pins = append(pins[:j], pins[j+1:]...)
		}
		if i%5000 == 0 {
			checkLedger(t, e)
		}
	}
	for _, p := range pins {
		if !bytes.Equal(p.p.Value, p.want) {
			t.Fatal("bytes under a pin changed")
		}
		e.Release(p.p)
	}
	for _, r := range open {
		e.Abort(r)
	}
	checkLedger(t, e)
	for i, c := range e.slabs.classes {
		if c == nil {
			continue
		}
		if c.held != 0 {
			t.Errorf("class %d: %d chunks held with no pin or reservation open", i, c.held)
		}
		var real int64
		for r := c.head; r != 0; r = e.slabs.hdr(r).next {
			if !r.virtual() {
				real++
			}
		}
		if real+c.nfree != c.carved {
			t.Errorf("class %d: %d values + %d free chunks of memory, %d cut", i, real, c.nfree, c.carved)
		}
	}
	if e.Mapped() == 0 {
		t.Error("nothing was mapped: the test does not reach the region")
	}
}

// TestPinnedReaderConcurrentWriters: a reader holds one item of a class
// while writers push ten times MemLimit through that class; eviction passes
// over the pinned item, so its bytes stay and it is still stored after.
func TestPinnedReaderConcurrentWriters(t *testing.T) {
	const memLimit = 8 << 20
	e := NewEngine(Config{MemLimit: memLimit})
	defer e.Close()
	want := pattern(99, big)
	if _, err := e.Set(Item{Key: "pinned", Value: want}); err != nil {
		t.Fatal(err)
	}
	p, err := e.Acquire("pinned")
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	perWriter := 10 * memLimit / big / writers
	if testing.Short() {
		perWriter /= 4
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !bytes.Equal(p.Value, want) {
				t.Error("pinned bytes changed while writers ran")
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				r, err := e.Reserve(Item{Key: key, Size: big}, StoreSet, 0)
				if err != nil {
					t.Errorf("reserve %s: %v", key, err)
					return
				}
				copy(r.Value, pattern(i, big))
				if _, err := e.Commit(r); err != nil {
					t.Errorf("commit %s: %v", key, err)
					return
				}
				q, err := e.Acquire(key)
				if err != nil {
					continue // already evicted by another writer
				}
				if !bytes.Equal(q.Value, pattern(i, big)) {
					t.Errorf("%s read back wrong", key)
				}
				e.Release(q)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if e.Stats().Evictions == 0 {
		t.Fatal("no eviction: the writers did not fill the engine")
	}
	if it, err := e.Get("pinned"); err != nil || !bytes.Equal(it.Value, want) {
		t.Errorf("eviction took the pinned item: %v", err)
	}
	held := func() (held, free int64) {
		for _, c := range e.Slabs() {
			held += c.Held
			free += c.FreeMem
		}
		return
	}
	h, f := held()
	if h != 0 {
		t.Errorf("held = %d with the pinned item still stored", h)
	}
	e.Release(p)
	if h2, f2 := held(); h2 != 0 || f2 != f {
		t.Errorf("after release: held %d, free memory chunks %d -> %d", h2, f, f2)
	}
	if e.Mapped() > memLimit {
		t.Errorf("Mapped = %d > MemLimit", e.Mapped())
	}
}

// stamped reports whether a real value is its Flags byte repeated, which is
// how TestEngineConcurrentStress writes every value: a torn value, or a
// chunk reused under a pin, shows as a mismatch.
func stamped(it Item) bool {
	for _, b := range it.Value {
		if b != byte(it.Flags) {
			return false
		}
	}
	return true
}

// TestEngineConcurrentStress runs 16 goroutines against one engine over
// colliding keys and calls every exported method: stores of small, large
// and virtual values, reservations filled with the lock released and then
// committed or aborted, pins held across other goroutines' overwrites,
// evictions and flushes, and the readers. Afterwards the counters must
// balance against the calls made and the slab ledger must hold. Under
// -race it checks the engine's own locking.
func TestEngineConcurrentStress(t *testing.T) {
	e := NewEngine(Config{MemLimit: 6 << 20})
	const workers = 16
	ops := 600
	if testing.Short() {
		ops = 150
	}
	var gets, stores, cases, deletes atomic.Int64
	sizes := []int{40, 3000, 9000, big}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			init := uint64(w)
			var pin *Pin
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("shared-%d", rng.Intn(257))
				stamp := byte(rng.Intn(255) + 1)
				size := sizes[rng.Intn(len(sizes))]
				it := Item{Key: key, Value: bytes.Repeat([]byte{stamp}, size), Flags: uint32(stamp)}
				var err error
				op := rng.Intn(12)
				if op < 4 {
					stores.Add(1)
				}
				switch op {
				case 0:
					_, err = e.Set(it)
				case 1:
					_, err = e.Set(Item{Key: key, Size: size})
				case 2:
					_, err = put(e, it, StoreAdd, 0)
				case 3:
					_, err = put(e, it, StoreReplace, 0)
				case 4:
					gets.Add(1)
					var cur Item
					if cur, err = e.Get(key); err == nil {
						if !stamped(cur) {
							t.Errorf("Get %s: torn value", key)
						}
						cases.Add(1)
						stores.Add(1)
						_, err = put(e, it, StoreCAS, cur.CAS)
					}
				case 5:
					stores.Add(1)
					mode := StoreMode(rng.Intn(4))
					if mode == StoreCAS {
						cases.Add(1)
					}
					var r Reservation
					if r, err = e.Reserve(Item{Key: key, Size: size, Flags: uint32(stamp)}, mode, 0); err != nil {
						break
					}
					if rng.Intn(3) == 0 {
						e.Abort(r)
						break
					}
					copy(r.Value, it.Value)
					_, err = e.Commit(r)
				case 6:
					if pin != nil {
						if !stamped(pin.Item) {
							t.Errorf("pinned %s changed under its pin", pin.Key)
						}
						e.Release(*pin)
						pin = nil
						continue
					}
					gets.Add(1)
					var p Pin
					if p, err = e.Acquire(key); err == nil {
						if !stamped(p.Item) {
							t.Errorf("Acquire %s: torn value", key)
						}
						pin = &p
					}
				case 7:
					deletes.Add(1)
					err = e.Delete(key)
				case 8:
					err = e.Touch(key, 0)
				case 9:
					stores.Add(1)
					_, err = e.IncrDecr("ctr-"+key, 1, &init, 0)
				case 10:
					if st := e.Stats(); st.GetHits+st.GetMisses != st.CmdGet {
						t.Errorf("a Stats snapshot is not one instant: %+v", st)
					}
					if used := pagesOf(e) * pageSize; e.Mapped() > e.Config().MemLimit || used > e.Config().MemLimit {
						t.Errorf("mapped %d, used %d over MemLimit", e.Mapped(), used)
					}
				case 11:
					if rng.Intn(100) == 0 {
						e.Flush()
					}
				}
				if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrExists) &&
					!errors.Is(err, ErrNotStored) && !errors.Is(err, ErrNoMemory) {
					t.Errorf("worker %d op %d: %v", w, i, err)
				}
			}
			if pin != nil {
				e.Release(*pin)
			}
		}(w)
	}
	wg.Wait()
	st := e.Stats()
	if st.CmdGet != gets.Load() || st.GetHits+st.GetMisses != st.CmdGet {
		t.Errorf("gets: %d calls, cmd %d, hits %d + misses %d", gets.Load(), st.CmdGet, st.GetHits, st.GetMisses)
	}
	if st.CmdSet != stores.Load() {
		t.Errorf("sets: %d calls, cmd %d", stores.Load(), st.CmdSet)
	}
	if n := st.CasHits + st.CasMisses + st.CasBadval; n != cases.Load() {
		t.Errorf("cas: %d calls, %d counted", cases.Load(), n)
	}
	if n := st.DeleteHits + st.DeleteMisses; n != deletes.Load() {
		t.Errorf("deletes: %d calls, %d counted", deletes.Load(), n)
	}
	items, bytesHeld := tableBytes(e)
	if st.CurrItems != items || st.Bytes != bytesHeld {
		t.Errorf("items %d, index holds %d; bytes %d, index holds %d", st.CurrItems, items, st.Bytes, bytesHeld)
	}
	if st.Evictions == 0 {
		t.Error("no eviction: the test does not fill the engine")
	}
	checkLedger(t, e)
	for i, c := range e.slabs.classes {
		if c != nil && c.held != 0 {
			t.Errorf("class %d: %d chunks held with every pin and reservation settled", i, c.held)
		}
	}
	e.Close()
	if n := e.Stats().CurrItems; e.Mapped() != 0 || n != 0 {
		t.Errorf("after Close: mapped %d, %d items", e.Mapped(), n)
	}
}

// TestCloseUnmapsAndEngineStaysUsable checks the process total by how far
// it rises and falls: engines earlier tests dropped without Close can be
// unmapped by their finalizers at any moment, so it has no fixed baseline.
func TestCloseUnmapsAndEngineStaysUsable(t *testing.T) {
	e := NewEngine(Config{MemLimit: 4 << 20})
	for cycle := 0; cycle < 3; cycle++ {
		before := MappedBytes()
		for i := 0; i < 100; i++ {
			if _, err := e.Set(Item{Key: fmt.Sprintf("k%d", i), Value: pattern(i, big)}); err != nil {
				t.Fatal(err)
			}
		}
		full := MappedBytes()
		if e.Mapped() != 4<<20 || full > before+4<<20 {
			t.Fatalf("cycle %d: engine mapped %d, process %d -> %d", cycle, e.Mapped(), before, full)
		}
		e.Close()
		if n := e.Stats().CurrItems; MappedBytes() > full-4<<20 || e.Mapped() != 0 || n != 0 || pagesOf(e) != 0 {
			t.Fatalf("cycle %d: after Close mapped %d (process %d -> %d), %d items", cycle, e.Mapped(), full, MappedBytes(), n)
		}
	}
	e.Close() // twice is harmless
}

// TestNewEngineIsCheap: an engine allocates a class's state on the class's
// first take, so constructing one costs a handful of objects however many
// classes it has, and Slabs still reports every class.
func TestNewEngineIsCheap(t *testing.T) {
	cfg := Config{MemLimit: 64 << 20, growthFactor: 1.05}
	if n := testing.AllocsPerRun(100, func() { NewEngine(cfg) }); n > 4 {
		t.Errorf("NewEngine: %v allocations, want at most 4", n)
	}
	e := NewEngine(cfg)
	slabs := e.Slabs()
	if len(slabs) != len(e.slabs.sizes) || len(slabs) < 100 {
		t.Fatalf("Slabs reports %d classes of %d", len(slabs), len(e.slabs.sizes))
	}
	for i, c := range slabs {
		if c.ChunkSize != e.slabs.sizes[i] || c.Pages != 0 || c.Free != 0 || c.Items != 0 {
			t.Fatalf("class %d of an empty engine: %+v", i, c)
		}
	}
	if e.slabs.classes != nil {
		t.Error("an empty engine has class state")
	}
}

// TestItemsLeaveTheHeap: 10^5 stored items, by Set and by Reserve and
// Commit, add almost nothing for the collector to trace: header, key and
// value share a chunk of the mapped region, and the index holds integers.
func TestItemsLeaveTheHeap(t *testing.T) {
	const n = 100_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%07d", i)
	}
	value := pattern(1, 64)
	stores := map[string]func(e *Engine, key string) error{
		"set": func(e *Engine, key string) error {
			_, err := e.Set(Item{Key: key, Value: value})
			return err
		},
		"reserve": func(e *Engine, key string) error {
			r, err := e.Reserve(Item{Key: key, Size: len(value)}, StoreSet, 0)
			if err != nil {
				return err
			}
			copy(r.Value, value)
			_, err = e.Commit(r)
			return err
		},
	}
	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(Config{MemLimit: 64 << 20})
			defer e.Close()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, k := range keys {
				if err := store(e, k); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			if grew := int64(after.HeapObjects) - int64(before.HeapObjects); grew >= n/100 {
				t.Errorf("heap objects grew by %d for %d items, want under %d", grew, n, n/100)
			}
			if st := e.Stats(); st.CurrItems != n || st.Evictions != 0 {
				t.Fatalf("%d items stored, %d evicted", st.CurrItems, st.Evictions)
			}
			if it, err := e.Get(keys[n/2]); err != nil || !bytes.Equal(it.Value, value) {
				t.Fatalf("read back: %v", err)
			}
		})
	}
}

// TestSteadyStateAllocatesNothing: overwriting an item with one of the same
// size, and pinning and releasing one, allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEngine(Config{MemLimit: 8 << 20})
	defer e.Close()
	it := Item{Key: "key:0000001", Value: pattern(2, 64)}
	if _, err := e.Set(it); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { e.Set(it) }); n != 0 {
		t.Errorf("same-size overwrite: %v allocations", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		p, err := e.Acquire(it.Key)
		if err != nil {
			t.Fatal(err)
		}
		e.Release(p)
	}); n != 0 {
		t.Errorf("Acquire and Release: %v allocations", n)
	}
}
