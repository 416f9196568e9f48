//go:build !unix

package memcached

// mapRegion falls back to the collected heap where there is no mmap: the
// region, which holds every real item, costs its full size at once and is
// freed by the collector. It holds no pointers, so the collector never
// scans it.
func mapRegion(n int) ([]byte, error) { return make([]byte, n), nil }

func unmapRegion([]byte) {}
