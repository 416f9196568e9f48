package hdfs

import (
	"fmt"
	"testing"

	"hbb/internal/cluster"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// pipelineWrites writes n 128 MiB files, one after another, through a
// 3-replica pipeline and returns the kernel events the run took. SSD
// capacity is sized so every file's replicas fit without eviction.
// Default config: one 128 MiB block, 1 MiB packets, window of 8 — the
// canonical pipeline-write shape.
func pipelineWrites(tb testing.TB, n int) int64 {
	const fileSize = 128 * testMiB
	c := cluster.New(cluster.Config{
		Nodes:     6,
		RacksOf:   4,
		Transport: netsim.IPoIB,
		Hardware: cluster.HardwareSpec{
			SSDCapacity: int64(n+1) * 3 * fileSize,
			MapSlots:    4,
			ReduceSlots: 2,
			ComputeRate: 400e6,
		},
		Seed: 11,
	})
	h, err := New(c, Config{})
	if err != nil {
		tb.Fatalf("hdfs.New: %v", err)
	}
	h.Start()
	c.Env.Spawn("driver", func(p *sim.Proc) {
		defer h.Shutdown()
		for i := 0; i < n; i++ {
			w, err := h.Create(p, 0, fmt.Sprintf("/bench%d", i))
			if err != nil {
				tb.Errorf("create: %v", err)
				return
			}
			if err := w.Write(p, fileSize); err != nil {
				tb.Errorf("write: %v", err)
				return
			}
			if err := w.Close(p); err != nil {
				tb.Errorf("close: %v", err)
				return
			}
		}
	})
	c.Env.Run()
	return c.Env.Events()
}

// BenchmarkPipelineWrite reports host ns/op and allocs/op of one 128 MiB
// 3-replica pipeline write — the cost of simulating the write, not the
// simulated duration.
func BenchmarkPipelineWrite(b *testing.B) {
	b.ReportAllocs()
	events := pipelineWrites(b, b.N)
	b.SetBytes(128 * testMiB)
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// TestPipelineWriteEventBudget pins the kernel events of one block's
// 3-replica pipeline write: one flow per hop, 16 window-sized segments,
// flat disk reservations. A per-packet event train on any hop (128
// packets per block, ~2.7k events) cannot come back unnoticed.
func TestPipelineWriteEventBudget(t *testing.T) {
	const want = 292
	if got := pipelineWrites(t, 1); got != want {
		t.Errorf("one 128 MiB pipeline write took %d events, want %d", got, want)
	}
}
