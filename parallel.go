package hbb

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor runs f(i) for every i in [0, n) across min(GOMAXPROCS, n)
// goroutines, with GOMAXPROCS read at each call, and returns when all calls
// finish. GOMAXPROCS=1 runs the cells one at a time.
//
// Cells are handed out largest index first: f(n-1), f(n-2), ..., f(0).
// Every sweep lists its cells with cost growing by index (more clients,
// more data), so the longest cell starts at once instead of running alone
// at the end.
//
// Each f(i) must be self-contained (own Testbed / sim.Env) and publish its
// result to index i of a pre-sized slice; the caller then assembles output
// in index order, so tables come out byte-identical at any worker count.
func parallelFor(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), n); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(n - 1 - i)
			}
		}()
	}
	wg.Wait()
}
