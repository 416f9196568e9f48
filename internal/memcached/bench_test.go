package memcached

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// benchKeys pre-formats a key set so benchmarks measure engine cost, not
// fmt.Sprintf.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%06d", i)
	}
	return keys
}

// BenchmarkEngineParallel is the mcserver hot path: every connection's
// goroutine calls into one engine, which serializes them on its mutex. The
// mix is 90% Get / 10% Set over a preloaded key set, the classic memcached
// read-mostly profile.
func BenchmarkEngineParallel(b *testing.B) {
	e := NewEngine(Config{MemLimit: 64 << 20})
	keys := benchKeys(4096)
	val := make([]byte, 256)
	for _, k := range keys {
		if _, err := e.Set(Item{Key: k, Value: val}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		i := ctr.Add(1) * 0x9e3779b9 // decorrelate goroutine key streams
		for pb.Next() {
			k := keys[i%uint64(len(keys))]
			if i%10 == 0 {
				e.Set(Item{Key: k, Value: val})
			} else {
				e.Get(k)
			}
			i++
		}
	})
}

// BenchmarkEngineSerial is one goroutine's Get: the chain walk, the LRU
// touch and one uncontended lock.
func BenchmarkEngineSerial(b *testing.B) {
	e := NewEngine(Config{MemLimit: 64 << 20})
	keys := benchKeys(1024)
	for _, k := range keys {
		e.Set(Item{Key: k, Size: 256})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Get(keys[i%len(keys)])
	}
}

// BenchmarkIndexDoubling stores 2^18 items into a new engine and reports
// the longest Set that doubled the index, the pause every caller of the
// engine waits out while the chains are relinked, and the time all the
// doubling Sets of a fill took.
func BenchmarkIndexDoubling(b *testing.B) {
	keys := benchKeys(1 << 18)
	val := make([]byte, 8)
	var longest, total time.Duration
	for i := 0; i < b.N; i++ {
		e := NewEngine(Config{})
		power := e.Stats().HashPowerLevel
		for _, k := range keys {
			start := time.Now()
			if _, err := e.Set(Item{Key: k, Value: val}); err != nil {
				b.Fatal(err)
			}
			d := time.Since(start)
			if p := e.Stats().HashPowerLevel; p != power {
				power, longest, total = p, max(longest, d), total+d
			}
		}
		e.Close()
	}
	b.ReportMetric(float64(longest.Microseconds())/1e3, "max-doubling-ms")
	b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "doubling-ms/op")
}
