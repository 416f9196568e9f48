// Package mccluster turns the single-process memcached substrate into a
// replicated serving cluster: N mcserver processes over real TCP with
// consistent-hash placement and R-way replication, fronted by a
// cluster-aware client whose hot path is built around three ideas — detect
// the keys that dominate a zipf-skewed stream (space-saver top-k), serve
// them from a tiny TTL'd front cache so the hottest traffic never touches a
// socket, and spread the residual hot-key reads across all R replicas so
// skew fans over R NICs instead of pinning the primary's. Under overload a
// cluster-level admission gate sheds GETs before SETs, mirroring the
// open-loop swarm's MaxInflight semantics at the socket layer.
package mccluster

import "sync"

// SpaceSaver is the space-saving top-k heavy-hitter sketch (Metwally et
// al.): it tracks at most k keys with per-key count and over-estimation
// error. When an untracked key arrives and the sketch is full, the minimum
// counter is evicted and the newcomer inherits its count (recorded as the
// newcomer's error bound). For a zipf-skewed stream the hottest keys are
// tracked with tight error after a short warm-up, which is exactly what the
// front cache needs: a cheap, bounded-memory answer to "is this key worth
// caching?". Callers provide their own locking; the cluster client guards
// one sketch with a mutex (see hotTracker).
type SpaceSaver struct {
	k        int
	counters map[string]*ssCounter
	heap     []*ssCounter // min-heap on count; ties broken arbitrarily
	offers   uint64       // stream length seen
}

type ssCounter struct {
	key   string
	count uint64
	err   uint64 // over-estimation bound inherited at takeover
	pos   int    // heap index
}

// NewSpaceSaver returns a sketch tracking at most k keys (minimum 1).
func NewSpaceSaver(k int) *SpaceSaver {
	if k < 1 {
		k = 1
	}
	return &SpaceSaver{k: k, counters: make(map[string]*ssCounter, k)}
}

// Offer records one occurrence of key and returns its (possibly
// over-estimated) count.
func (s *SpaceSaver) Offer(key string) uint64 { return s.offer(key).count }

// guaranteed is the part of a count that was observed, not inherited: a
// lower bound on the key's occurrences.
func (c *ssCounter) guaranteed() uint64 { return c.count - c.err }

func (s *SpaceSaver) offer(key string) *ssCounter {
	s.offers++
	if c, ok := s.counters[key]; ok {
		c.count++
		s.siftDown(c.pos)
		return c
	}
	if len(s.heap) < s.k {
		c := &ssCounter{key: key, count: 1, pos: len(s.heap)}
		s.counters[key] = c
		s.heap = append(s.heap, c)
		s.siftUp(c.pos)
		return c
	}
	// Take over the minimum counter: the newcomer inherits its count as
	// the classic space-saving over-estimate.
	min := s.heap[0]
	delete(s.counters, min.key)
	min.err = min.count
	min.count++
	min.key = key
	s.counters[key] = min
	s.siftDown(0)
	return min
}

// Count returns the tracked count for key and whether it is tracked.
func (s *SpaceSaver) Count(key string) (uint64, bool) {
	c, ok := s.counters[key]
	if !ok {
		return 0, false
	}
	return c.count, true
}

// Offers returns the stream length seen so far.
func (s *SpaceSaver) Offers() uint64 { return s.offers }

// Len returns the number of tracked keys.
func (s *SpaceSaver) Len() int { return len(s.heap) }

// Top returns up to n tracked keys ordered by descending count (guaranteed
// counts are count-err; this accessor is for reporting, not the hot path).
func (s *SpaceSaver) Top(n int) []string {
	type kv struct {
		key   string
		count uint64
	}
	all := make([]kv, 0, len(s.heap))
	for _, c := range s.heap {
		all = append(all, kv{c.key, c.count})
	}
	for i := 1; i < len(all); i++ { // insertion sort: n and k are small
		for j := i; j > 0 && all[j].count > all[j-1].count; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].key
	}
	return out
}

func (s *SpaceSaver) siftUp(i int) {
	c := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].count <= c.count {
			break
		}
		s.heap[i] = s.heap[p]
		s.heap[i].pos = i
		i = p
	}
	s.heap[i] = c
	c.pos = i
}

func (s *SpaceSaver) siftDown(i int) {
	c := s.heap[i]
	n := len(s.heap)
	for {
		min, minCount := i, c.count
		if l := 2*i + 1; l < n && s.heap[l].count < minCount {
			min, minCount = l, s.heap[l].count
		}
		if r := 2*i + 2; r < n && s.heap[r].count < minCount {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i] = s.heap[min]
		s.heap[i].pos = i
		i = min
	}
	s.heap[i] = c
	c.pos = i
}

// hotTracker is the concurrency wrapper the cluster client uses: one
// mutex-guarded sketch plus the hotness rule: tracked, and seen at least
// minHits times for certain. The over-estimate would not do: once a stream
// of distinct keys is k*minHits long, every newcomer inherits minHits.
type hotTracker struct {
	mu      sync.Mutex
	sketch  *SpaceSaver
	minHits uint64
}

func newHotTracker(k int, minHits uint64) *hotTracker {
	return &hotTracker{sketch: NewSpaceSaver(k), minHits: minHits}
}

// offer records key and reports whether it is currently hot.
func (h *hotTracker) offer(key string) bool {
	h.mu.Lock()
	n := h.sketch.offer(key).guaranteed()
	h.mu.Unlock()
	return n >= h.minHits
}

// hot reports whether key is hot without recording an occurrence.
func (h *hotTracker) hot(key string) bool {
	h.mu.Lock()
	c, ok := h.sketch.counters[key]
	hot := ok && c.guaranteed() >= h.minHits
	h.mu.Unlock()
	return hot
}

// top returns the n highest-count tracked keys, for reporting.
func (h *hotTracker) top(n int) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sketch.Top(n)
}
