package mccluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSpaceSaverExactWhenUnderCapacity: with fewer distinct keys than k,
// every count is exact.
func TestSpaceSaverExactWhenUnderCapacity(t *testing.T) {
	s := NewSpaceSaver(16)
	for i := 0; i < 8; i++ {
		for j := 0; j <= i; j++ {
			s.Offer(fmt.Sprintf("k%d", i))
		}
	}
	for i := 0; i < 8; i++ {
		n, ok := s.Count(fmt.Sprintf("k%d", i))
		if !ok || n != uint64(i+1) {
			t.Fatalf("k%d: count %d tracked=%v, want %d", i, n, ok, i+1)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	if s.Offers() != 1+2+3+4+5+6+7+8 {
		t.Fatalf("Offers = %d", s.Offers())
	}
}

// TestSpaceSaverFindsHeavyHitters: a zipf-skewed stream's dominant keys
// must survive in a sketch far smaller than the key population.
func TestSpaceSaverFindsHeavyHitters(t *testing.T) {
	s := NewSpaceSaver(64)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.3, 1, 1<<16)
	freq := make(map[uint64]int)
	for i := 0; i < 200000; i++ {
		k := zipf.Uint64()
		freq[k]++
		s.Offer(fmt.Sprintf("key-%d", k))
	}
	// The five most frequent keys must be tracked with a count at least
	// their true frequency (space-saving never under-counts).
	type kv struct {
		k uint64
		n int
	}
	var top []kv
	for k, n := range freq {
		top = append(top, kv{k, n})
	}
	for i := 0; i < 5; i++ {
		best := i
		for j := i + 1; j < len(top); j++ {
			if top[j].n > top[best].n {
				best = j
			}
		}
		top[i], top[best] = top[best], top[i]
		key := fmt.Sprintf("key-%d", top[i].k)
		got, ok := s.Count(key)
		if !ok {
			t.Fatalf("heavy hitter %s (true count %d) not tracked", key, top[i].n)
		}
		if got < uint64(top[i].n) {
			t.Fatalf("space-saving under-counted %s: %d < %d", key, got, top[i].n)
		}
	}
	// Top(n) must lead with the single most frequent key.
	if ts := s.Top(3); len(ts) != 3 || ts[0] != fmt.Sprintf("key-%d", top[0].k) {
		t.Fatalf("Top(3) = %v, want leader key-%d", ts, top[0].k)
	}
}

// TestSpaceSaverBoundedMemory: the sketch never tracks more than k keys
// no matter how many distinct keys stream through.
func TestSpaceSaverBoundedMemory(t *testing.T) {
	s := NewSpaceSaver(32)
	for i := 0; i < 10000; i++ {
		s.Offer(fmt.Sprintf("unique-%d", i))
	}
	if s.Len() != 32 {
		t.Fatalf("Len = %d, want 32", s.Len())
	}
	if len(s.counters) != 32 || len(s.heap) != 32 {
		t.Fatalf("internal sizes diverged: map %d heap %d", len(s.counters), len(s.heap))
	}
	// Heap invariant: every parent's count <= its children's.
	for i := 1; i < len(s.heap); i++ {
		p := (i - 1) / 2
		if s.heap[p].count > s.heap[i].count {
			t.Fatalf("heap violated at %d: parent %d > child %d", i, s.heap[p].count, s.heap[i].count)
		}
		if s.heap[i].pos != i {
			t.Fatalf("pos back-pointer broken at %d", i)
		}
	}
}

// TestHotTrackerThreshold pins the hotness rule.
func TestHotTrackerThreshold(t *testing.T) {
	h := newHotTracker(8, 3)
	if h.offer("a") || h.offer("a") {
		t.Fatal("hot before minHits")
	}
	if !h.offer("a") {
		t.Fatal("not hot at minHits")
	}
	if !h.hot("a") {
		t.Fatal("hot() disagrees with offer()")
	}
	if h.hot("b") {
		t.Fatal("untracked key reported hot")
	}
}

// TestHotTrackerIgnoresInheritedCounts: with the default sketch (8192
// counters, 8 hits), a stream of distinct keys longer than 8192*7 used to
// hand every newcomer an inherited count of 8 and flag it hot. The
// guaranteed count flags none of them.
func TestHotTrackerIgnoresInheritedCounts(t *testing.T) {
	h := newHotTracker(8192, 8)
	for i := 0; i < 100_000; i++ {
		key := fmt.Sprintf("distinct-%d", i)
		if h.offer(key) || h.hot(key) {
			t.Fatalf("key %d of a stream of distinct keys flagged hot", i)
		}
	}
}

// TestHotTrackerUniformVsZipf: uniform traffic over 32 times more keys
// than counters has no hot keys; zipf 1.1 over the same keys has a head,
// and the tracker still finds it.
func TestHotTrackerUniformVsZipf(t *testing.T) {
	const keys, offers = 1 << 18, 600_000
	name := func(k uint64) string { return fmt.Sprintf("key-%d", k) }
	rng := rand.New(rand.NewSource(7))

	uniform := newHotTracker(8192, 8)
	flagged := 0
	for i := 0; i < offers; i++ {
		if uniform.offer(name(uint64(rng.Intn(keys)))) {
			flagged++
		}
	}
	if frac := float64(flagged) / offers; frac >= 0.01 {
		t.Errorf("uniform stream: %.1f%% of offers flagged hot, want under 1%%", 100*frac)
	}

	skewed := newHotTracker(8192, 8)
	zipf := rand.NewZipf(rng, 1.1, 1, keys-1)
	flagged = 0
	for i := 0; i < offers; i++ {
		if skewed.offer(name(zipf.Uint64())) {
			flagged++
		}
	}
	if frac := float64(flagged) / offers; frac < 0.5 {
		t.Errorf("zipf 1.1 stream: %.1f%% of offers flagged hot, want most of them", 100*frac)
	}
	for k := uint64(0); k < 100; k++ {
		if !skewed.hot(name(k)) {
			t.Errorf("zipf 1.1: key of rank %d is not hot after %d offers", k, offers)
		}
	}
}
