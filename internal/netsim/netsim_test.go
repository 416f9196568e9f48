package netsim

import (
	"errors"
	"testing"
	"time"

	"hbb/internal/sim"
)

func TestSingleFlowFullBandwidth(t *testing.T) {
	e := sim.New(1)
	nw := New(e, TenGigE, 2) // 1.25 GB/s
	var took time.Duration
	e.Spawn("s", func(p *sim.Proc) {
		start := p.Now()
		if err := nw.Transfer(p, 0, 1, 1.25e9, Native); err != nil {
			t.Errorf("send: %v", err)
		}
		took = p.Now() - start
	})
	e.Run()
	// 1.25 GB at 1.25 GB/s: ~1s, egress and ingress draining together,
	// not ~2s of store-and-forward.
	if took < 990*time.Millisecond || took > 1100*time.Millisecond {
		t.Errorf("1.25GB over 10GbE took %v, want ~1s", took)
	}
}

func TestLatencyDominatesSmallMessages(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	var took time.Duration
	e.Spawn("s", func(p *sim.Proc) {
		start := p.Now()
		_ = nw.Transfer(p, 0, 1, 64, Native)
		took = p.Now() - start
	})
	e.Run()
	if took < RDMA.Latency || took > 10*time.Microsecond {
		t.Errorf("64B RDMA message took %v, want a few µs", took)
	}
}

func TestRDMAFasterThanIPoIBSmallOps(t *testing.T) {
	timeFor := func(prof Profile) time.Duration {
		e := sim.New(1)
		nw := New(e, prof, 2)
		var took time.Duration
		e.Spawn("s", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 100; i++ {
				_ = nw.RDMAReadFlow(p, 0, 1, 4096)
			}
			took = p.Now() - start
		})
		e.Run()
		return took
	}
	r, ip := timeFor(RDMA), timeFor(IPoIB)
	if ip < 3*r {
		t.Errorf("IPoIB 4K reads (%v) should be >3x slower than RDMA (%v)", ip, r)
	}
}

func TestIncastSharesIngress(t *testing.T) {
	e := sim.New(1)
	nw := New(e, TenGigE, 5)
	var wg sim.WaitGroup
	const per = 312.5e6 // 4 senders x 312.5MB = 1.25GB -> ~1s at receiver
	for i := 1; i <= 4; i++ {
		i := i
		wg.Add(1)
		e.Spawn("s", func(p *sim.Proc) {
			_ = nw.Transfer(p, NodeID(i), 0, int64(per), Native)
			wg.Done()
		})
	}
	end := e.Run()
	if end < 990*time.Millisecond || end > 1100*time.Millisecond {
		t.Errorf("4-to-1 incast of 1.25GB finished at %v, want ~1s (ingress-bound)", end)
	}
	_, recv := nw.Traffic(0)
	if recv != int64(per)*4 {
		t.Errorf("receiver counted %d bytes", recv)
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	e := sim.New(1)
	nw := New(e, TenGigE, 4)
	var wg sim.WaitGroup
	for _, pair := range [][2]NodeID{{0, 1}, {2, 3}} {
		pair := pair
		wg.Add(1)
		e.Spawn("s", func(p *sim.Proc) {
			_ = nw.Transfer(p, pair[0], pair[1], 1.25e9, Native)
			wg.Done()
		})
	}
	end := e.Run()
	if end > 1100*time.Millisecond {
		t.Errorf("disjoint flows finished at %v; switch should be non-blocking", end)
	}
}

func TestSendToSelfIsFree(t *testing.T) {
	e := sim.New(1)
	nw := New(e, GigE, 1)
	e.Spawn("s", func(p *sim.Proc) {
		_ = nw.Transfer(p, 0, 0, 1<<30, Native)
		if p.Now() > time.Millisecond {
			t.Errorf("local send cost %v", p.Now())
		}
	})
	e.Run()
}

func TestCallRPC(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	nw.Register(1, "echo", func(p *sim.Proc, m *Msg) Reply {
		p.Sleep(time.Millisecond) // server work
		return Reply{Size: m.Size * 2, Payload: m.Payload}
	})
	var rep Reply
	var took time.Duration
	e.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		rep = nw.Call(p, &Msg{From: 0, To: 1, Service: "echo", Op: "e", Size: 100, Payload: "hi"})
		took = p.Now() - start
	})
	e.Run()
	if rep.Err != nil {
		t.Fatalf("call: %v", rep.Err)
	}
	if rep.Payload != "hi" {
		t.Errorf("payload = %v", rep.Payload)
	}
	if took < time.Millisecond+2*RDMA.Latency {
		t.Errorf("RPC took %v; must include server time and two hops", took)
	}
}

func TestCallUnknownService(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	e.Spawn("c", func(p *sim.Proc) {
		rep := nw.Call(p, &Msg{From: 0, To: 1, Service: "nope", Size: 1})
		if !errors.Is(rep.Err, ErrNoService) {
			t.Errorf("err = %v, want ErrNoService", rep.Err)
		}
	})
	e.Run()
}

func TestNodeDown(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 3)
	nw.Register(1, "svc", func(p *sim.Proc, m *Msg) Reply { return Reply{} })
	nw.SetDown(1, true)
	e.Spawn("c", func(p *sim.Proc) {
		if err := nw.Transfer(p, 0, 1, 10, Native); !errors.Is(err, ErrNodeDown) {
			t.Errorf("Send to down node: %v", err)
		}
		rep := nw.Call(p, &Msg{From: 0, To: 1, Service: "svc", Size: 1})
		if !errors.Is(rep.Err, ErrNodeDown) {
			t.Errorf("Call to down node: %v", rep.Err)
		}
		nw.SetDown(1, false)
		if err := nw.Transfer(p, 0, 1, 10, Native); err != nil {
			t.Errorf("Send after recovery: %v", err)
		}
	})
	e.Run()
}

func TestRDMAWriteOneSidedVsTwoSided(t *testing.T) {
	run := func(prof Profile) time.Duration {
		e := sim.New(1)
		nw := New(e, prof, 2)
		var took time.Duration
		e.Spawn("c", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 50; i++ {
				_ = nw.RDMAWriteFlow(p, 0, 1, 1024)
			}
			took = p.Now() - start
		})
		e.Run()
		return took
	}
	oneSided := run(RDMA)
	twoSided := run(IPoIB)
	if twoSided <= oneSided {
		t.Errorf("two-sided small writes (%v) should cost more than one-sided (%v)", twoSided, oneSided)
	}
}

func TestTrafficCounters(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	e.Spawn("c", func(p *sim.Proc) {
		_ = nw.Transfer(p, 0, 1, 1000, Native)
		_ = nw.Transfer(p, 1, 0, 500, Native)
	})
	e.Run()
	s0, r0 := nw.Traffic(0)
	s1, r1 := nw.Traffic(1)
	if s0 != 1000 || r0 != 500 || s1 != 500 || r1 != 1000 {
		t.Errorf("traffic: node0 s%d r%d, node1 s%d r%d", s0, r0, s1, r1)
	}
}

func TestAddNode(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 1)
	id := nw.AddNode()
	if id != 1 || nw.Nodes() != 2 {
		t.Errorf("AddNode id=%d nodes=%d", id, nw.Nodes())
	}
}

// TestPropertyTrafficConservation: across random transfer patterns, the
// sum of bytes sent equals the sum received, and per-node counters match
// the issued transfers exactly.
func TestPropertyTrafficConservation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		e := sim.New(seed)
		nw := New(e, RDMA, 6)
		rng := e.Rand()
		type xfer struct {
			src, dst NodeID
			n        int64
		}
		var plan []xfer
		for i := 0; i < 50; i++ {
			src := NodeID(rng.Intn(6))
			dst := NodeID(rng.Intn(6))
			if src == dst {
				continue
			}
			plan = append(plan, xfer{src, dst, int64(rng.Intn(1 << 22))})
		}
		for _, x := range plan {
			x := x
			e.Spawn("x", func(p *sim.Proc) { _ = nw.Transfer(p, x.src, x.dst, x.n, Native) })
		}
		e.Run()
		wantSent := map[NodeID]int64{}
		wantRecv := map[NodeID]int64{}
		for _, x := range plan {
			wantSent[x.src] += x.n
			wantRecv[x.dst] += x.n
		}
		var totalS, totalR int64
		for i := 0; i < 6; i++ {
			s, r := nw.Traffic(NodeID(i))
			if s != wantSent[NodeID(i)] || r != wantRecv[NodeID(i)] {
				t.Fatalf("seed %d node %d: sent %d want %d, recv %d want %d",
					seed, i, s, wantSent[NodeID(i)], r, wantRecv[NodeID(i)])
			}
			totalS += s
			totalR += r
		}
		if totalS != totalR {
			t.Fatalf("seed %d: conservation violated: sent %d recv %d", seed, totalS, totalR)
		}
	}
}

func TestLegacyTransportRouting(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 0)
	nw.SetLegacy(IPoIB)
	nw.AddNode()
	nw.AddNode()
	var nativeT, legacyT time.Duration
	e.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		_ = nw.RDMAWriteFlow(p, 0, 1, 1<<30)
		nativeT = p.Now() - start
		start = p.Now()
		_ = nw.Transfer(p, 0, 1, 1<<30, Legacy)
		legacyT = p.Now() - start
	})
	e.Run()
	// 1 GiB: native RDMA 6 GB/s ~0.18s; legacy IPoIB 3 GB/s ~0.36s.
	if legacyT < nativeT*3/2 {
		t.Errorf("legacy transfer (%v) should be ~2x native (%v)", legacyT, nativeT)
	}
}

func TestLegacyFallsBackToNative(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	var a, b time.Duration
	e.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		_ = nw.RDMAWriteFlow(p, 0, 1, 1<<28)
		a = p.Now() - start
		start = p.Now()
		_ = nw.Transfer(p, 0, 1, 1<<28, Legacy)
		b = p.Now() - start
	})
	e.Run()
	// Same native flow; a two-sided send adds only the receive-side
	// software overhead a one-sided write skips.
	if b != a+RDMA.SWOverhead {
		t.Errorf("legacy Transfer without a legacy transport took %v, want native write %v + %v", b, a, RDMA.SWOverhead)
	}
}

func TestSetLegacyAfterNodesPanics(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 1)
	defer func() {
		if recover() == nil {
			t.Error("SetLegacy after AddNode did not panic")
		}
	}()
	nw.SetLegacy(IPoIB)
}

// TestCallSlowedByFlowsSharingItsNIC: an RPC envelope crosses each NIC
// direction at the share the flows draining there leave it. Three bulk
// flows out of node 0 hold its egress, so a 1 MiB request from node 0
// serializes at a quarter of line rate; the same flows between two other
// nodes leave the call exactly as fast as on an idle fabric.
func TestCallSlowedByFlowsSharingItsNIC(t *testing.T) {
	const req = 1 << 20
	call := func(bulkSrc NodeID, flows int) time.Duration {
		e := sim.New(1)
		nw := New(e, RDMA, 4)
		nw.Register(1, "echo", func(p *sim.Proc, m *Msg) Reply { return Reply{} })
		for i := 0; i < flows; i++ {
			e.Spawn("bulk", func(p *sim.Proc) { _ = nw.Transfer(p, bulkSrc, 3, 1<<30, Native) })
		}
		var took time.Duration
		e.Spawn("rpc", func(p *sim.Proc) {
			p.Sleep(time.Millisecond) // the flows are draining by now
			start := p.Now()
			if rep := nw.Call(p, &Msg{From: 0, To: 1, Service: "echo", Size: req}); rep.Err != nil {
				t.Errorf("call: %v", rep.Err)
			}
			took = p.Now() - start
		})
		e.Run()
		return took
	}
	idle, shared, disjoint := call(0, 0), call(0, 3), call(2, 3)
	line := float64(req) / RDMA.Bandwidth * 1e9 // ns at full line rate
	if d := float64(shared-idle) - 3*line; d < -2 || d > 2 {
		t.Errorf("call beside 3 flows on its egress took %v, idle %v: want %v more (a quarter share)",
			shared, idle, time.Duration(3*line))
	}
	if disjoint != idle {
		t.Errorf("call beside flows on other NICs took %v, want the idle %v", disjoint, idle)
	}
}
