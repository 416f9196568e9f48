package netsim

import (
	"testing"
	"time"

	"hbb/internal/sim"
)

// BenchmarkNetsimRPC measures a small request/response RPC over the RDMA
// profile: two latency sleeps, two transfers, and the handler, all inside
// the caller's process.
func BenchmarkNetsimRPC(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	nw.Register(1, "echo", func(p *sim.Proc, m *Msg) Reply { return Reply{Size: m.Size} })
	e.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if rep := nw.Call(p, &Msg{From: 0, To: 1, Service: "echo", Op: "e", Size: 4096}); rep.Err != nil {
				b.Errorf("call: %v", rep.Err)
				return
			}
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkNetsimPacketTransfer moves a 128 MiB payload through the
// chunked packet path: one Reserve+Sleep pair per DefaultChunk on each
// hop. The flow counterpart below must beat it by ≥5x on events/allocs.
func BenchmarkNetsimPacketTransfer(b *testing.B) {
	b.ReportAllocs()
	const n = 128 << 20
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	e.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := nw.SendLegacy(p, 0, 1, n); err != nil {
				b.Errorf("send: %v", err)
				return
			}
		}
	})
	b.ResetTimer()
	e.Run()
	b.SetBytes(n)
	b.ReportMetric(float64(e.Events())/float64(b.N), "events/op")
}

// BenchmarkFlowTransfer moves the same 128 MiB payload as one analytic
// flow: a constant number of solver passes and callback timers per
// transfer, independent of payload size.
func BenchmarkFlowTransfer(b *testing.B) {
	b.ReportAllocs()
	const n = 128 << 20
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	e.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := nw.TransferFlow(p, 0, 1, n); err != nil {
				b.Errorf("flow transfer: %v", err)
				return
			}
		}
	})
	b.ResetTimer()
	e.Run()
	b.SetBytes(n)
	b.ReportMetric(float64(e.Events())/float64(b.N), "events/op")
}

// BenchmarkNetsimCast measures one-way delivery: each cast pays the send
// and spawns a handler process on the destination.
func BenchmarkNetsimCast(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	nw.Register(1, "bg", func(p *sim.Proc, m *Msg) Reply { return Reply{} })
	e.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := nw.Cast(p, &Msg{From: 0, To: 1, Service: "bg", Op: "x", Size: 64}); err != nil {
				b.Errorf("cast: %v", err)
				return
			}
			p.Sleep(time.Microsecond) // let the handler drain so casts stay sequential
		}
	})
	b.ResetTimer()
	e.Run()
}
