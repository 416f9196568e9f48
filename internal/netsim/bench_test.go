package netsim

import (
	"testing"

	"hbb/internal/sim"
)

// BenchmarkNetsimRPC measures a small request/response RPC over the RDMA
// profile: one sleep per envelope and the handler, all inside the
// caller's process.
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

// BenchmarkFlowTransfer moves a 128 MiB payload as one analytic flow: a constant number of solver passes and callback timers per
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
