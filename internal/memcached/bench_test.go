package memcached

import (
	"fmt"
	"sync/atomic"
	"testing"
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

// BenchmarkEngineSerial is one goroutine's Get: the map lookup, the LRU
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
