package metrics

import "runtime"

// HeapSnapshot captures live-heap occupancy at one instant, after a
// forced GC so transient garbage does not inflate the reading. It is the
// building block for the MB-of-heap/node figure the scaling experiments
// and benchmarks report.
type HeapSnapshot struct {
	// HeapAlloc is the live heap in bytes (runtime.MemStats.HeapAlloc
	// post-GC).
	HeapAlloc uint64
}

// SnapHeap runs a GC and returns the live-heap snapshot. The forced
// collection makes back-to-back snapshots comparable: the delta between
// two of them is retained allocation, not allocator noise.
func SnapHeap() HeapSnapshot {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HeapSnapshot{HeapAlloc: ms.HeapAlloc}
}

// DeltaBytes returns the heap growth since an earlier snapshot in bytes,
// clamped at zero (a GC between snapshots can shrink the heap below the
// baseline; negative footprints are meaningless for reporting).
func (s HeapSnapshot) DeltaBytes(since HeapSnapshot) uint64 {
	if s.HeapAlloc <= since.HeapAlloc {
		return 0
	}
	return s.HeapAlloc - since.HeapAlloc
}

// DeltaMB is DeltaBytes in MiB.
func (s HeapSnapshot) DeltaMB(since HeapSnapshot) float64 {
	return float64(s.DeltaBytes(since)) / (1 << 20)
}

// DeltaMBPerNode is DeltaMB divided across n nodes — the per-node memory
// footprint of a topology built between the two snapshots.
func (s HeapSnapshot) DeltaMBPerNode(since HeapSnapshot, n int) float64 {
	if n <= 0 {
		return 0
	}
	return s.DeltaMB(since) / float64(n)
}
