package hbb

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs f with runtime.GOMAXPROCS set to procs, the one control
// of sweep's worker count, and restores the previous value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestParallelForCoversAllIndices drives sweep, the experiments' one
// parallel loop: every cell runs once, and its result lands at its index.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		withProcs(procs, func() {
			const n = 100
			var hits [n]atomic.Int64
			cells := make([]int, n)
			for i := range cells {
				cells[i] = i
			}
			out := sweep(cells, func(i int) int { hits[i].Add(1); return 2 * i })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS=%d: cell %d ran %d times", procs, i, got)
				}
				if out[i] != 2*i {
					t.Fatalf("GOMAXPROCS=%d: result %d = %d, want %d", procs, i, out[i], 2*i)
				}
			}
			none := sweep(nil, func(int) int {
				t.Errorf("GOMAXPROCS=%d: run called for no cells", procs)
				return 0
			})
			if len(none) != 0 {
				t.Errorf("GOMAXPROCS=%d: no cells gave %d results", procs, len(none))
			}
		})
	}
	// One worker hands out the largest index first.
	withProcs(1, func() {
		var order []int
		sweep([]int{0, 1, 2, 3, 4}, func(i int) struct{} { order = append(order, i); return struct{}{} })
		if got := fmt.Sprint(order); got != "[4 3 2 1 0]" {
			t.Errorf("GOMAXPROCS=1 ran cells in order %s, want [4 3 2 1 0]", got)
		}
	})
}

// TestParallelRunsAreDeterministic reruns experiments with a worker pool
// and requires byte-identical tables: every cell owns an independent,
// seeded, single-threaded simulation, so worker count must never leak into
// results. fig1 (pure sim sweep) and fig9 (testbed + fault injection) cover
// both experiment styles cheaply.
func TestParallelRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiment cells")
	}
	for _, id := range []string{"fig1", "fig9"} {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var serial, parallel string
		withProcs(1, func() { serial = e.Run(ScaleSmall).String() })
		withProcs(4, func() { parallel = e.Run(ScaleSmall).String() })
		if serial != parallel {
			t.Errorf("%s: parallel output differs from serial\nserial:\n%s\nparallel:\n%s", id, serial, parallel)
		}
	}
}

// TestSuiteTablesPin pins the FNV-64a of the paper suite's eight rendered
// tables (the benchmark's model.tables_fnv64) at one and at four workers:
// neither the worker count nor the order cells run in may move a table.
func TestSuiteTablesPin(t *testing.T) {
	const want = "993df88a6dfcdc97"
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			h := fnv.New64a()
			for _, id := range []string{"fig2", "fig3", "fig4", "fig5", "fig8", "fig9", "tab6", "tab7"} {
				e, ok := ExperimentByID(id)
				if !ok {
					t.Fatalf("experiment %s missing", id)
				}
				h.Write([]byte(e.Run(ScaleSmall).String()))
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
				t.Errorf("GOMAXPROCS=%d: suite tables FNV-64a = %s, want %s", procs, got, want)
			}
		})
	}
}

// TestDFSIOWriteOnlySweep proves fig3 loses nothing by skipping the read
// phase: every cell's write throughput equals the write+read sweep's.
func TestDFSIOWriteOnlySweep(t *testing.T) {
	cells := grid(sizingFor(ScaleSmall).dataSizes, comparedBackends)
	writeOnly, full := dfsioSweep(ScaleSmall, false), dfsioSweep(ScaleSmall, true)
	if len(writeOnly) != len(cells) || len(full) != len(cells) {
		t.Fatalf("%d cells: write-only sweep has %d results, write+read %d", len(cells), len(writeOnly), len(full))
	}
	for i, c := range cells {
		w, r := writeOnly[i], full[i]
		if w.writeMBps != r.writeMBps || w.writeMBps <= 0 {
			t.Errorf("%d bytes, %s: write-only writeMBps %v, write+read %v", c.a, c.b, w.writeMBps, r.writeMBps)
		}
		if w.readMBps != 0 {
			t.Errorf("%d bytes, %s: write-only sweep read %v MB/s", c.a, c.b, w.readMBps)
		}
	}
}
