package memcached

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newTestEngine() *Engine {
	return NewEngine(Config{MemLimit: 16 << 20})
}

// put stores it under mode as mcserver stores every SET, ADD, REPLACE and
// CAS: Reserve, fill, Commit. It is how the tests reach the modes but Set.
func put(e *Engine, it Item, mode StoreMode, expect uint64) (uint64, error) {
	r, err := e.Reserve(it, mode, expect)
	if err != nil {
		return 0, err
	}
	copy(r.Value, it.Value)
	return e.Commit(r)
}

func TestSetGet(t *testing.T) {
	e := newTestEngine()
	cas, err := e.Set(Item{Key: "k", Value: []byte("v"), Flags: 7})
	if err != nil {
		t.Fatalf("set: %v", err)
	}
	if cas == 0 {
		t.Error("set returned zero CAS")
	}
	it, err := e.Get("k")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(it.Value) != "v" || it.Flags != 7 || it.CAS != cas {
		t.Errorf("got %+v", it)
	}
}

func TestGetMiss(t *testing.T) {
	e := newTestEngine()
	if _, err := e.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	st := e.Stats()
	if st.GetMisses != 1 || st.CmdGet != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSetOverwrites(t *testing.T) {
	e := newTestEngine()
	c1, _ := e.Set(Item{Key: "k", Value: []byte("a")})
	c2, _ := e.Set(Item{Key: "k", Value: []byte("bb")})
	if c2 <= c1 {
		t.Errorf("CAS not monotonic: %d then %d", c1, c2)
	}
	it, _ := e.Get("k")
	if string(it.Value) != "bb" {
		t.Errorf("value = %q", it.Value)
	}
	if n := e.Stats().CurrItems; n != 1 {
		t.Errorf("items = %d", n)
	}
}

func TestAddReplaceSemantics(t *testing.T) {
	e := newTestEngine()
	if _, err := put(e, Item{Key: "k", Value: []byte("x")}, StoreReplace, 0); !errors.Is(err, ErrNotStored) {
		t.Errorf("replace missing: %v", err)
	}
	if _, err := put(e, Item{Key: "k", Value: []byte("x")}, StoreAdd, 0); err != nil {
		t.Errorf("add new: %v", err)
	}
	if _, err := put(e, Item{Key: "k", Value: []byte("y")}, StoreAdd, 0); !errors.Is(err, ErrNotStored) {
		t.Errorf("add existing: %v", err)
	}
	if _, err := put(e, Item{Key: "k", Value: []byte("z")}, StoreReplace, 0); err != nil {
		t.Errorf("replace existing: %v", err)
	}
	it, _ := e.Get("k")
	if string(it.Value) != "z" {
		t.Errorf("value = %q", it.Value)
	}
}

func TestCompareAndSwap(t *testing.T) {
	e := newTestEngine()
	cas, _ := e.Set(Item{Key: "k", Value: []byte("a")})
	if _, err := put(e, Item{Key: "k", Value: []byte("b")}, StoreCAS, cas+99); !errors.Is(err, ErrExists) {
		t.Errorf("stale CAS: %v", err)
	}
	nc, err := put(e, Item{Key: "k", Value: []byte("b")}, StoreCAS, cas)
	if err != nil {
		t.Fatalf("matching CAS: %v", err)
	}
	if nc == cas {
		t.Error("CAS did not change after swap")
	}
	if _, err := put(e, Item{Key: "missing", Value: []byte("b")}, StoreCAS, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("CAS on missing key: %v", err)
	}
}

func TestDelete(t *testing.T) {
	e := newTestEngine()
	e.Set(Item{Key: "k", Value: []byte("v")})
	if err := e.Delete("k"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := e.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Error("key survived delete")
	}
	if err := e.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	st := e.Stats()
	if st.DeleteHits != 1 || st.DeleteMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestExpiry(t *testing.T) {
	now := int64(100)
	e := NewEngine(Config{Clock: func() int64 { return now }})
	e.Set(Item{Key: "k", Value: []byte("v"), ExpireAt: 200})
	if _, err := e.Get("k"); err != nil {
		t.Fatalf("get before expiry: %v", err)
	}
	now = 200
	if _, err := e.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Error("item readable at its expiry instant")
	}
	if e.Stats().Expired != 1 {
		t.Errorf("expired count = %d", e.Stats().Expired)
	}
}

func TestTouch(t *testing.T) {
	now := int64(100)
	e := NewEngine(Config{Clock: func() int64 { return now }})
	e.Set(Item{Key: "k", Value: []byte("v"), ExpireAt: 150})
	if err := e.Touch("k", 500); err != nil {
		t.Fatalf("touch: %v", err)
	}
	now = 300
	if _, err := e.Get("k"); err != nil {
		t.Error("touched item expired early")
	}
	if err := e.Touch("missing", 500); !errors.Is(err, ErrNotFound) {
		t.Errorf("touch missing: %v", err)
	}
}

func TestFlush(t *testing.T) {
	e := newTestEngine()
	e.Set(Item{Key: "a", Value: []byte("1")})
	e.Set(Item{Key: "b", Value: []byte("2")})
	e.Flush()
	if _, err := e.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Error("item survived flush")
	}
	e.Set(Item{Key: "c", Value: []byte("3")})
	if _, err := e.Get("c"); err != nil {
		t.Errorf("item stored after flush is invisible: %v", err)
	}
}

func TestTooLarge(t *testing.T) {
	e := NewEngine(Config{MaxItemSize: 1024})
	if _, err := e.Set(Item{Key: "k", Value: make([]byte, 2048)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized set: %v", err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Arena of exactly one page; values sized so only a few fit per class.
	e := NewEngine(Config{MemLimit: 1 << 20, minChunk: 1 << 18, growthFactor: 1.01, MaxItemSize: 1 << 18})
	// Each item lands in the single 256KiB class; 4 chunks per 1MiB page.
	val := make([]byte, 200<<10)
	for i := 0; i < 4; i++ {
		if _, err := e.Set(Item{Key: fmt.Sprintf("k%d", i), Value: val}); err != nil {
			t.Fatalf("set k%d: %v", i, err)
		}
	}
	// Touch k0 so k1 becomes LRU.
	e.Get("k0")
	if _, err := e.Set(Item{Key: "k4", Value: val}); err != nil {
		t.Fatalf("set k4 (should evict): %v", err)
	}
	if e.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", e.Stats().Evictions)
	}
	if _, err := e.Get("k1"); !errors.Is(err, ErrNotFound) {
		t.Error("k1 (LRU) should have been evicted")
	}
	if _, err := e.Get("k0"); err != nil {
		t.Error("k0 (recently used) was evicted")
	}
}

func TestVirtualItems(t *testing.T) {
	e := NewEngine(Config{MemLimit: 8 << 20, MaxItemSize: 4 << 20})
	cas, err := e.Set(Item{Key: "blk", Size: 3 << 20})
	if err != nil {
		t.Fatalf("virtual set: %v", err)
	}
	it, err := e.Get("blk")
	if err != nil {
		t.Fatalf("virtual get: %v", err)
	}
	if !it.Virtual() || it.Size != 3<<20 || it.CAS != cas {
		t.Errorf("got %+v", it)
	}
	// Virtual items use allocator accounting: two 3MiB items exceed an
	// 8MiB arena (4MiB pages), so the first should be evicted.
	if _, err := e.Set(Item{Key: "blk2", Size: 3 << 20}); err != nil {
		t.Fatalf("second virtual set: %v", err)
	}
	if _, err := e.Set(Item{Key: "blk3", Size: 3 << 20}); err != nil {
		t.Fatalf("third virtual set: %v", err)
	}
	if e.Stats().Evictions == 0 {
		t.Error("virtual items did not trigger eviction accounting")
	}
}

func TestIncrDecr(t *testing.T) {
	e := newTestEngine()
	e.Set(Item{Key: "n", Value: []byte("10")})
	v, err := e.IncrDecr("n", 5, nil, 0)
	if err != nil || v != 15 {
		t.Fatalf("incr: %d, %v", v, err)
	}
	v, err = e.IncrDecr("n", -20, nil, 0)
	if err != nil || v != 0 {
		t.Fatalf("decr should saturate at 0: %d, %v", v, err)
	}
	if _, err := e.IncrDecr("missing", 1, nil, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("incr missing without init: %v", err)
	}
	init := uint64(42)
	v, err = e.IncrDecr("fresh", 1, &init, 0)
	if err != nil || v != 42 {
		t.Fatalf("incr with init: %d, %v", v, err)
	}
	e.Set(Item{Key: "s", Value: []byte("abc")})
	if _, err := e.IncrDecr("s", 1, nil, 0); !errors.Is(err, ErrBadDelta) {
		t.Errorf("incr non-numeric: %v", err)
	}
	// Only plain decimal digits that fit in 64 bits are a counter.
	for _, c := range []struct {
		value string
		want  uint64
		err   error
	}{
		{"", 0, ErrBadDelta},
		{" 5", 0, ErrBadDelta},
		{"+5", 0, ErrBadDelta},
		{"-1", 0, ErrBadDelta},
		{"007", 8, nil},
		{"18446744073709551615", 0, nil},
		{"18446744073709551616", 0, ErrBadDelta},
	} {
		e.Set(Item{Key: "c", Value: []byte(c.value)})
		v, err := e.IncrDecr("c", 1, nil, 0)
		if v != c.want || !errors.Is(err, c.err) {
			t.Errorf("incr of %q: %d, %v; want %d, %v", c.value, v, err, c.want, c.err)
		}
		if it, _ := e.Get("c"); err == nil && string(it.Value) != fmt.Sprint(c.want) {
			t.Errorf("incr of %q stored %q", c.value, it.Value)
		}
	}
}

func TestBytesAccountingBalances(t *testing.T) {
	e := newTestEngine()
	for i := 0; i < 100; i++ {
		e.Set(Item{Key: fmt.Sprintf("k%d", i), Value: make([]byte, i*10)})
	}
	for i := 0; i < 100; i += 2 {
		e.Delete(fmt.Sprintf("k%d", i))
	}
	var want int64
	for i := 1; i < 100; i += 2 {
		want += int64(itemFootprint(fmt.Sprintf("k%d", i), i*10))
	}
	if got := e.Stats().Bytes; got != want {
		t.Errorf("bytes = %d, want %d", got, want)
	}
	if e.Stats().CurrItems != 50 {
		t.Errorf("curr items = %d", e.Stats().CurrItems)
	}
}

func TestSlabClassFor(t *testing.T) {
	a := newSlabArena(Config{}.withDefaults())
	for _, size := range a.sizes {
		if size%8 != 0 {
			t.Errorf("chunk size %d not 8-aligned", size)
		}
	}
	// classFor must return the smallest class that fits.
	for foot := 1; foot <= 1<<20; foot = foot*3/2 + 1 {
		ci := a.classFor(foot)
		if ci < 0 {
			t.Fatalf("no class for %d", foot)
		}
		if a.sizes[ci] < foot {
			t.Errorf("class %d (%d) too small for %d", ci, a.sizes[ci], foot)
		}
		if ci > 0 && a.sizes[ci-1] >= foot {
			t.Errorf("class %d not minimal for %d", ci, foot)
		}
	}
	if a.classFor(2<<20) != -1 {
		t.Error("classFor should fail beyond MaxItemSize")
	}
}

// TestPropertyEngineMatchesModel plays 30 random programs against the
// engine and its model (FuzzEngineModel's body, see runModel), on an index
// that starts at one bucket.
func TestPropertyEngineMatchesModel(t *testing.T) {
	withHashPower(t, 0)
	for seed := int64(100); seed < 130; seed++ {
		runModel(t, seedProgram(seed, 1500))
	}
}

// TestPropertyFootprintInvariant checks that Stats().Bytes always equals
// the sum of live item footprints under random churn with eviction on.
func TestPropertyFootprintInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(Config{MemLimit: 2 << 20})
		for op := 0; op < 300; op++ {
			k := fmt.Sprintf("key-%d", rng.Intn(40))
			if rng.Intn(4) == 0 {
				e.Delete(k)
			} else {
				e.Set(Item{Key: k, Value: make([]byte, rng.Intn(64<<10))})
			}
		}
		var want int64
		for _, k := range keysOf(e) {
			it, err := e.Get(k)
			if err != nil {
				return false
			}
			want += int64(itemFootprint(k, it.Size))
		}
		return e.Stats().Bytes == want && pagesOf(e)*pageSize <= 2<<20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInconsistentSizeRejected(t *testing.T) {
	e := newTestEngine()
	if _, err := e.Set(Item{Key: "k", Value: []byte("abc"), Size: 99}); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("inconsistent size: %v", err)
	}
	if _, err := e.Set(Item{Key: "k", Size: -1}); !errors.Is(err, ErrInvalidArg) {
		t.Errorf("negative size: %v", err)
	}
}

func TestLongKeys(t *testing.T) {
	e := newTestEngine()
	key := strings.Repeat("k", 250)
	if _, err := e.Set(Item{Key: key, Value: []byte("v")}); err != nil {
		t.Fatalf("250-byte key: %v", err)
	}
	if it, err := e.Get(key); err != nil || string(it.Value) != "v" {
		t.Errorf("get long key: %v", err)
	}
	// A virtual item whose key outgrows a page of the virtual arena gets a
	// page of its own, between items that share pages.
	huge := strings.Repeat("h", vpageSize+1)
	for _, k := range []string{"before", huge, "after"} {
		if _, err := e.Set(Item{Key: k, Size: 10}); err != nil {
			t.Fatalf("virtual item with a %d-byte key: %v", len(k), err)
		}
	}
	for _, k := range []string{"before", huge, "after"} {
		if it, err := e.Get(k); err != nil || it.Size != 10 {
			t.Errorf("get of a %d-byte key: %+v, %v", len(k), it, err)
		}
	}
	if err := e.Delete(huge); err != nil || e.Stats().CurrItems != 3 {
		t.Errorf("delete of the huge key: %v, %d items left", err, e.Stats().CurrItems)
	}
}

func TestLargePageArena(t *testing.T) {
	// MaxItemSize above 1 MiB grows the page size with it.
	e := NewEngine(Config{MemLimit: 64 << 20, MaxItemSize: 8 << 20})
	if _, err := e.Set(Item{Key: "big", Size: 7 << 20}); err != nil {
		t.Fatalf("7MiB virtual item rejected: %v", err)
	}
	if e.slabs.page < 8<<20 || pagesOf(e) != 1 {
		t.Errorf("%d pages of %d B; a page should be at least MaxItemSize", pagesOf(e), e.slabs.page)
	}
}

func TestGrowthFactorShapesClasses(t *testing.T) {
	coarse := newSlabArena(Config{growthFactor: 2.0}.withDefaults())
	fine := newSlabArena(Config{growthFactor: 1.05, minChunk: 96, MaxItemSize: 1 << 20, MemLimit: 64 << 20, Clock: func() int64 { return 1 }})
	if len(fine.sizes) <= len(coarse.sizes) {
		t.Errorf("finer growth factor produced %d classes vs %d", len(fine.sizes), len(coarse.sizes))
	}
	// Chunk sizes strictly increase and end exactly at MaxItemSize.
	for _, a := range []slabArena{coarse, fine} {
		for i := 1; i < len(a.sizes); i++ {
			if a.sizes[i] <= a.sizes[i-1] {
				t.Fatalf("chunk sizes not increasing at %d", i)
			}
		}
		if last := a.sizes[len(a.sizes)-1]; last != 1<<20 {
			t.Errorf("last class = %d, want MaxItemSize", last)
		}
	}
}

func TestOutOfMemoryWhenNothingEvictable(t *testing.T) {
	// One page, chunks sized so two items need two pages worth of chunks
	// in DIFFERENT classes: the second class has no page and nothing of
	// its own to evict.
	e := NewEngine(Config{MemLimit: 1 << 20, minChunk: 200 << 10, growthFactor: 3.0, MaxItemSize: 900 << 10})
	// Five 200KiB chunks fill the arena's only page with small items.
	for i := 0; i < 5; i++ {
		if _, err := e.Set(Item{Key: fmt.Sprintf("s%d", i), Size: 100 << 10}); err != nil {
			t.Fatalf("small item %d: %v", i, err)
		}
	}
	// A large item needs the big class: no free page, and the big class
	// has nothing of its own to evict -> ErrNoMemory.
	if _, err := e.Set(Item{Key: "big", Size: 800 << 10}); !errors.Is(err, ErrNoMemory) {
		t.Errorf("err = %v, want ErrNoMemory", err)
	}
}
