//go:build unix

// The region is mapped outside the collected heap only where there is mmap;
// elsewhere it is a heap slice, and the heap per item counts the items.

package memcached

import (
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// TestIndexHeapPerItem: 2^18 stored items cost the collected heap at most
// 8 bytes each, the index's chain heads included. A map from hash to chain
// head cost about 36.
func TestIndexHeapPerItem(t *testing.T) {
	const n = 1 << 18
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine(Config{MemLimit: 64 << 20})
	defer e.Close()
	value := pattern(3, 8)
	buf := []byte("key:")
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(buf[:4], int64(i), 10)
		if _, err := e.Set(Item{Key: string(buf), Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := e.Stats()
	if st.CurrItems != n || st.Evictions != 0 {
		t.Fatalf("%d items stored, %d evicted", st.CurrItems, st.Evictions)
	}
	perItem := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B of heap per item; index 2^%d buckets, %d B", perItem, st.HashPowerLevel, st.HashBytes)
	if perItem > 8 {
		t.Errorf("%.1f B of heap per item, want at most 8", perItem)
	}
	if _, err := e.Get("key:" + strconv.Itoa(n/2)); err != nil {
		t.Fatalf("read back: %v", err)
	}
}

// TestIndexGrowsAndFindsEveryKey stores keys in rounds into an index that
// starts at one bucket, with overwrites, deletes and expiry between the
// rounds. After every round each live key reads back its latest value, no
// removed key is found, the index holds exactly the live keys, and it has
// doubled whenever it held more than 1.5 items a bucket. After Close the
// index is back at one bucket, holds nothing, and takes keys again.
func TestIndexGrowsAndFindsEveryKey(t *testing.T) {
	withHashPower(t, 0)
	now := int64(1)
	e := NewEngine(Config{MemLimit: 64 << 20, Clock: func() int64 { return now }})
	defer e.Close()
	want := map[string]string{} // live key -> value
	gone := map[string]bool{}   // deleted or expired keys
	check := func(round int) {
		t.Helper()
		for k, v := range want {
			it, err := e.Get(k)
			if err != nil || string(it.Value) != v {
				t.Fatalf("round %d: %s reads %q, %v; want %q", round, k, it.Value, err, v)
			}
		}
		for k := range gone {
			if _, err := e.Get(k); err != ErrNotFound {
				t.Fatalf("round %d: removed key %s: %v", round, k, err)
			}
		}
		keys := keysOf(e)
		slices.Sort(keys)
		live := make([]string, 0, len(want))
		for k := range want {
			live = append(live, k)
		}
		slices.Sort(live)
		if !slices.Equal(keys, live) {
			t.Fatalf("round %d: the index holds %d keys, want the %d live ones", round, len(keys), len(live))
		}
		st := e.Stats()
		if 2*st.CurrItems > 3<<st.HashPowerLevel || st.HashBytes != 4<<st.HashPowerLevel {
			t.Fatalf("round %d: %d items in 2^%d buckets (%d B)", round, st.CurrItems, st.HashPowerLevel, st.HashBytes)
		}
	}
	next := 0
	for round := 0; round < 14; round++ {
		for i := 0; i < 1<<round; i++ {
			k := "k" + strconv.Itoa(next)
			next++
			want[k] = k + "-v0"
			if _, err := e.Set(Item{Key: k, Value: []byte(want[k])}); err != nil {
				t.Fatal(err)
			}
		}
		check(round)
		var expiring []string
		i := 0
		for k := range want {
			switch i++; i % 7 {
			case 0, 1:
				want[k] = k + "-v" + strconv.Itoa(round+1)
				if _, err := e.Set(Item{Key: k, Value: []byte(want[k])}); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := e.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(want, k)
				gone[k] = true
			case 3:
				if err := e.Touch(k, now+1); err != nil {
					t.Fatal(err)
				}
				expiring = append(expiring, k)
			}
		}
		now += 2
		for _, k := range expiring {
			delete(want, k)
			gone[k] = true
		}
		check(round)
	}
	if p := e.Stats().HashPowerLevel; p < 10 {
		t.Fatalf("the index reached 2^%d buckets, want at least 10 doublings", p)
	}
	e.Close()
	if st := e.Stats(); st.HashPowerLevel != 0 || st.CurrItems != 0 || len(keysOf(e)) != 0 {
		t.Fatalf("after Close: 2^%d buckets, %d items, %d keys indexed", st.HashPowerLevel, st.CurrItems, len(keysOf(e)))
	}
	for k := range want {
		gone[k] = true
	}
	clear(want)
	for i := 0; i < 100; i++ {
		k := "k" + strconv.Itoa(i)
		want[k] = "again"
		delete(gone, k)
		if _, err := e.Set(Item{Key: k, Value: []byte("again")}); err != nil {
			t.Fatal(err)
		}
	}
	check(-1)
}
