//go:build unix

package memcached

import "syscall"

// mapRegion returns n bytes of zeroed, page-aligned anonymous memory
// outside the collected heap; no page of it is resident until written.
func mapRegion(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapRegion gives a mapRegion result back to the kernel.
func unmapRegion(b []byte) {
	// Munmap fails only for an argument that is not a mapping, which a
	// region from mapRegion cannot be.
	_ = syscall.Munmap(b)
}
