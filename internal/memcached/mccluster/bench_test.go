package mccluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
)

// BenchmarkClusterZipf is the PR's A/B headline: a zipf(1.1) read stream
// over 2^20 keys against 3 servers, comparing hot-key-blind single-primary
// placement (every get is a socket round trip to the one server the ring
// names) against the full cluster client (space-saver hot-key detection
// feeding a front cache, replica read spreading, admission control). The
// acceptance bar is FrontCacheSpread >= 2x SinglePrimary req/s; the gap
// comes from the top-4096 keys carrying ~78% of the zipf mass, so most
// gets never reach a socket.

const (
	benchServers = 3
	benchKeys    = 1 << 20 // 1,048,576 distinct keys (>= 1M per ISSUE)
	benchZipfS   = 1.1
	benchValueSz = 32
)

var benchEnv struct {
	once  sync.Once
	local *Local
	err   error
}

func benchKey(i int) string { return fmt.Sprintf("bench:%07d", i) }

// benchLocal launches the shared server trio and preloads every key once
// per process, R=2, so all placement variants read warm data.
func benchLocal(b *testing.B) *Local {
	benchEnv.once.Do(func() {
		start := time.Now()
		l, err := LaunchLocal(benchServers, memcached.Config{MemLimit: 512 << 20})
		if err != nil {
			benchEnv.err = err
			return
		}
		c, err := New(l.Addrs(), Options{Replicas: 2})
		if err != nil {
			benchEnv.err = err
			return
		}
		defer c.Close()
		value := make([]byte, benchValueSz)
		for i := range value {
			value[i] = byte('a' + i%26)
		}
		const batch = 8192
		items := make([]*mcclient.Item, 0, batch)
		for i := 0; i < benchKeys; i += batch {
			items = items[:0]
			for j := i; j < i+batch && j < benchKeys; j++ {
				items = append(items, &mcclient.Item{Key: benchKey(j), Value: value})
			}
			failed, err := c.SetMulti(items)
			if err != nil || len(failed) > 0 {
				benchEnv.err = fmt.Errorf("preload batch %d: %d failed, err %v", i, len(failed), err)
				return
			}
		}
		benchEnv.local = l
		fmt.Printf("# mccluster bench: preloaded %d keys x2 replicas in %.1fs\n",
			benchKeys, time.Since(start).Seconds())
	})
	if benchEnv.err != nil {
		b.Fatal(benchEnv.err)
	}
	return benchEnv.local
}

// runZipfReads drives b.N zipf-distributed gets through the cluster from
// a few goroutines (pipelining on the shared connections) and reports
// req/s plus the served hit rate and shed fraction.
func runZipfReads(b *testing.B, opts Options) {
	l := benchLocal(b)
	c, err := New(l.Addrs(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// Warm the hot tracker and front cache outside the timed region so
	// the steady state is measured, not the detector ramp.
	warm := rand.NewZipf(rand.New(rand.NewSource(99)), benchZipfS, 1, benchKeys-1)
	for i := 0; i < 4*4096; i++ {
		if _, err := c.Get(benchKey(int(warm.Uint64()))); err != nil {
			b.Fatal(err)
		}
	}
	base := c.Stats()
	var seed atomic.Int64
	b.ResetTimer()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		zipf := rand.NewZipf(rand.New(rand.NewSource(1000+seed.Add(1))), benchZipfS, 1, benchKeys-1)
		for pb.Next() {
			key := benchKey(int(zipf.Uint64()))
			if _, err := c.Get(key); err != nil && !IsOverload(err) {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := c.Stats()
	gets := st.Gets - base.Gets
	if gets > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		b.ReportMetric(100*float64(st.FrontCacheHits-base.FrontCacheHits)/float64(gets), "hit%")
		b.ReportMetric(100*float64(st.ShedGets-base.ShedGets)/float64(gets+st.ShedGets-base.ShedGets), "shed%")
		b.ReportMetric(float64(st.SpreadReads-base.SpreadReads), "spread-reads")
	}
}

func BenchmarkClusterZipf(b *testing.B) {
	b.Run("SinglePrimary", func(b *testing.B) {
		// Hot-key-blind baseline: one copy consulted, no cache, no spread.
		runZipfReads(b, Options{Replicas: 1, noFrontCache: true, noReadSpread: true})
	})
	b.Run("ReplicaSpread", func(b *testing.B) {
		// Spreading alone: replica fan-out without the front cache.
		runZipfReads(b, Options{Replicas: 2, noFrontCache: true})
	})
	b.Run("FrontCacheSpread", func(b *testing.B) {
		// The full hot-key path; must sustain >= 2x SinglePrimary.
		runZipfReads(b, Options{Replicas: 2, MaxInflight: 4096})
	})
}

// BenchmarkFrontCacheGet prices the short-circuit path a cached hot get
// takes: one mutex, one map lookup, one LRU splice.
func BenchmarkFrontCacheGet(b *testing.B) {
	f := newFrontCache(4096, time.Hour)
	now := time.Now().UnixNano()
	for i := 0; i < 4096; i++ {
		f.put(benchKey(i), &mcclient.Item{Key: benchKey(i), Value: make([]byte, benchValueSz)}, now)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = benchKey(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.get(keys[i%len(keys)], now); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSpaceSaverOffer prices hot-key detection per get: a map hit
// plus a heap fix in the common tracked-key case.
func BenchmarkSpaceSaverOffer(b *testing.B) {
	s := NewSpaceSaver(8192)
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), benchZipfS, 1, benchKeys-1)
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = benchKey(int(zipf.Uint64()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(keys[i%len(keys)])
	}
}
