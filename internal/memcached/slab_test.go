package memcached

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
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

// TestEntryStays96Bytes: a cache of 64-byte values is mostly entries, and
// growing one to 128 bytes cost kv_zipf_read 5-30% of its resident set.
func TestEntryStays96Bytes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, want 96", got)
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
	small := []byte("small")
	e.Set(Item{Key: "s", Value: small})
	it, _ := e.Get("s")
	if &it.Value[0] != &small[0] {
		t.Error("a small value is no longer the slice Set was given")
	}
	e.Set(Item{Key: "v", Size: big})
	it, err := e.Get("v")
	if err != nil || !it.Virtual() || it.Size != big {
		t.Errorf("virtual item = %+v, %v", it, err)
	}
	p, err := e.Acquire("v")
	if err != nil || !p.Virtual() || p.en != nil {
		t.Errorf("virtual pin = %+v, %v", p, err)
	}
	e.Release(p)
	if e.Mapped() != 0 {
		t.Errorf("Mapped = %d with nothing large and real stored", e.Mapped())
	}
}

// TestVirtualOnlyEngineMapsNothing is the simulator's use: gigabytes of
// size-only items through the classes above InlineValue, evictions
// included, and not a byte of region.
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
	if e.Mapped() != 0 || MappedBytes() != before {
		t.Errorf("Mapped = %d, process %d -> %d", e.Mapped(), before, MappedBytes())
	}
}

func TestReserveCommitModes(t *testing.T) {
	e := NewEngine(Config{MemLimit: 8 << 20})
	defer e.Close()
	put := func(key string, seed, size int, mode StoreMode, expect uint64) (uint64, error) {
		r, err := e.Reserve(Item{Key: key, Size: size, Flags: uint32(seed)})
		if err != nil {
			return 0, err
		}
		if len(r.Value) != size {
			t.Fatalf("reservation of %d bytes has %d", size, len(r.Value))
		}
		copy(r.Value, pattern(seed, size))
		return e.Commit(r, mode, expect)
	}
	for _, size := range []int{5, big} {
		key := fmt.Sprintf("k%d", size)
		if _, err := put(key, 1, size, StoreReplace, 0); !errors.Is(err, ErrNotStored) {
			t.Errorf("replace of a missing key: %v", err)
		}
		if _, err := put(key, 2, size, StoreCAS, 9); !errors.Is(err, ErrNotFound) {
			t.Errorf("cas of a missing key: %v", err)
		}
		cas, err := put(key, 3, size, StoreAdd, 0)
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		if _, err := put(key, 4, size, StoreAdd, 0); !errors.Is(err, ErrNotStored) {
			t.Errorf("add of a present key: %v", err)
		}
		if _, err := put(key, 5, size, StoreCAS, cas+1); !errors.Is(err, ErrExists) {
			t.Errorf("stale cas: %v", err)
		}
		if it, _ := e.Get(key); !bytes.Equal(it.Value, pattern(3, size)) || it.Flags != 3 || it.CAS != cas {
			t.Errorf("failed commits disturbed the item: flags %d cas %d", it.Flags, it.CAS)
		}
		if _, err := put(key, 6, size, StoreCAS, cas); err != nil {
			t.Errorf("cas: %v", err)
		}
		if _, err := put(key, 7, size, StoreReplace, 0); err != nil {
			t.Errorf("replace: %v", err)
		}
		if _, err := put(key, 8, size, StoreSet, 0); err != nil {
			t.Errorf("set: %v", err)
		}
		if it, _ := e.Get(key); !bytes.Equal(it.Value, pattern(8, size)) || it.Flags != 8 {
			t.Errorf("last commit is not what Get returns")
		}
		// Ten commits, four of them stored, one item: every other chunk
		// went back.
		if c := classOf(e, key, size); c.Items != 1 || c.Held != 0 || c.Free+1 != c.Pages*int64(e.slabs.classes[e.slabs.classFor(itemFootprint(key, size))].perPage) {
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
	if _, err := e.Reserve(Item{Key: "k", Size: 2 << 20}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("2 MiB against the 1 MiB MaxItemSize: %v", err)
	}
	if _, err := e.Reserve(Item{Key: "k", Size: -1}); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("negative size: %v", err)
	}
	// Two pages, both held by open reservations of one class: a third has
	// nothing to evict.
	a, err := e.Reserve(Item{Key: "a", Size: 900 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Reserve(Item{Key: "b", Size: 900 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reserve(Item{Key: "c", Size: 900 << 10}); !errors.Is(err, ErrNoMemory) {
		t.Errorf("third reservation: %v", err)
	}
	e.Abort(a)
	if _, err := e.Commit(b, StoreSet, 0); err != nil {
		t.Fatal(err)
	}
	c, err := e.Reserve(Item{Key: "c", Size: 900 << 10})
	if err != nil {
		t.Fatalf("reservation after an abort: %v", err)
	}
	e.Abort(c)
	if e.Mapped() != 2<<20 || e.Mapped() > e.Config().MemLimit {
		t.Errorf("Mapped = %d", e.Mapped())
	}
}

func TestPinOutlivesRemoval(t *testing.T) {
	removals := map[string]func(e *Engine){
		"delete":    func(e *Engine) { e.Delete("k") },
		"overwrite": func(e *Engine) { e.Set(Item{Key: "k", Value: pattern(2, big)}) },
		"flush":     func(e *Engine) { e.Flush(); e.Get("k") },
		"evict": func(e *Engine) {
			for i := 0; i < 200; i++ {
				e.Set(Item{Key: fmt.Sprintf("other-%d", i), Value: pattern(i, big)})
			}
		},
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
	var pages, memPages int64
	for i, c := range e.slabs.classes {
		if got, want := int64(c.freeChunks)+c.items+c.held, c.pages*int64(c.perPage); got != want {
			t.Fatalf("class %d (%d B): free %d + items %d + held %d = %d, accounted %d",
				i, c.chunkSize, c.freeChunks, c.items, c.held, got, want)
		}
		var n int64
		for en := c.head; en != nil; en = en.next {
			n++
		}
		if n != c.items {
			t.Fatalf("class %d: %d entries on the list, items %d", i, n, c.items)
		}
		if int64(len(c.mem)) > c.pages || int64(c.carved) > c.pages*int64(c.perPage) {
			t.Fatalf("class %d: %d pages and %d chunks of memory for %d pages of budget", i, len(c.mem), c.carved, c.pages)
		}
		pages += c.pages
		memPages += int64(len(c.mem))
	}
	if pages != e.slabs.pagesAllocated || memPages != e.slabs.regionPages || pages > e.slabs.maxPages {
		t.Fatalf("pages: classes %d arena %d max %d; region: classes %d arena %d",
			pages, e.slabs.pagesAllocated, e.slabs.maxPages, memPages, e.slabs.regionPages)
	}
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
			if r, err := e.Reserve(Item{Key: k, Size: size}); err == nil {
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
			mode := StoreMode(rng.Intn(3)) // set, add, replace
			if _, err := e.Commit(r, mode, 0); err == nil {
				seedOf[r.en.it.Key] = i
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
		if c.held != 0 {
			t.Errorf("class %d: %d chunks held with no pin or reservation open", i, c.held)
		}
		if c.slabbed() {
			var real int
			for en := c.head; en != nil; en = en.next {
				if en.it.Value != nil {
					real++
				}
			}
			if real+len(c.free) != c.carved {
				t.Errorf("class %d: %d values + %d free chunks of memory, %d cut", i, real, len(c.free), c.carved)
			}
		}
	}
	if e.Mapped() == 0 {
		t.Error("nothing was mapped: the test does not reach the region")
	}
}

// TestPinnedReaderConcurrentWriters: a reader holds one item of a class
// while writers push ten times MemLimit through that class; the bytes stay,
// and the chunk is free again once the pin is released.
func TestPinnedReaderConcurrentWriters(t *testing.T) {
	const memLimit = 8 << 20
	se := NewSharded(Config{MemLimit: memLimit, Shards: 2})
	defer se.Close()
	want := pattern(99, big)
	if _, err := se.Set(Item{Key: "pinned", Value: want}); err != nil {
		t.Fatal(err)
	}
	p, err := se.Acquire("pinned")
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
				r, err := se.Reserve(Item{Key: key, Size: big})
				if err != nil {
					t.Errorf("reserve %s: %v", key, err)
					return
				}
				copy(r.Value, pattern(i, big))
				if _, err := se.Commit(r, StoreSet, 0); err != nil {
					t.Errorf("commit %s: %v", key, err)
					return
				}
				q, err := se.Acquire(key)
				if err != nil {
					continue // already evicted by another writer
				}
				if !bytes.Equal(q.Value, pattern(i, big)) {
					t.Errorf("%s read back wrong", key)
				}
				se.Release(q)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if se.Stats().Evictions == 0 {
		t.Fatal("no eviction: the writers did not fill the engine")
	}
	if _, err := se.Get("pinned"); !errors.Is(err, ErrNotFound) {
		t.Errorf("the pinned item survived ten times MemLimit of writes: %v", err)
	}
	held := func() (held, free int64) {
		for _, c := range se.Slabs() {
			held += c.Held
			free += c.FreeMem
		}
		return
	}
	h, f := held()
	if h != 1 {
		t.Errorf("held = %d with one pin open", h)
	}
	se.Release(p)
	if h2, f2 := held(); h2 != 0 || f2 != f+1 {
		t.Errorf("after release: held %d, free memory chunks %d -> %d", h2, f, f2)
	}
	if se.Mapped() > memLimit {
		t.Errorf("Mapped = %d > MemLimit", se.Mapped())
	}
}

func TestCloseUnmapsAndEngineStaysUsable(t *testing.T) {
	before := MappedBytes()
	e := NewEngine(Config{MemLimit: 4 << 20})
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 100; i++ {
			if _, err := e.Set(Item{Key: fmt.Sprintf("k%d", i), Value: pattern(i, big)}); err != nil {
				t.Fatal(err)
			}
		}
		if MappedBytes() != before+4<<20 {
			t.Fatalf("cycle %d: process mapped %d, want %d", cycle, MappedBytes(), before+4<<20)
		}
		e.Close()
		if MappedBytes() != before || e.Mapped() != 0 || e.Len() != 0 || e.Stats().CurrItems != 0 || e.MemUsed() != 0 {
			t.Fatalf("cycle %d: after Close mapped %d (process %d -> %d), %d items", cycle, e.Mapped(), before, MappedBytes(), e.Len())
		}
	}
	e.Close() // twice is harmless
}
