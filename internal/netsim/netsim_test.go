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
		if err := nw.SendLegacy(p, 0, 1, 1.25e9); err != nil {
			t.Errorf("send: %v", err)
		}
		took = p.Now() - start
	})
	e.Run()
	// 1.25 GB at 1.25 GB/s: the two-hop pipeline should cost ~1s (one
	// chunk of extra store-and-forward), not ~2s.
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
		_ = nw.SendLegacy(p, 0, 1, 64)
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
				_ = nw.RDMARead(p, 0, 1, 4096)
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
			_ = nw.SendLegacy(p, NodeID(i), 0, int64(per))
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
			_ = nw.SendLegacy(p, pair[0], pair[1], 1.25e9)
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
		_ = nw.SendLegacy(p, 0, 0, 1<<30)
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
		if err := nw.SendLegacy(p, 0, 1, 10); !errors.Is(err, ErrNodeDown) {
			t.Errorf("Send to down node: %v", err)
		}
		rep := nw.Call(p, &Msg{From: 0, To: 1, Service: "svc", Size: 1})
		if !errors.Is(rep.Err, ErrNodeDown) {
			t.Errorf("Call to down node: %v", rep.Err)
		}
		nw.SetDown(1, false)
		if err := nw.SendLegacy(p, 0, 1, 10); err != nil {
			t.Errorf("Send after recovery: %v", err)
		}
	})
	e.Run()
}

func TestCastRunsHandlerAsync(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	var handled time.Duration
	nw.Register(1, "bg", func(p *sim.Proc, m *Msg) Reply {
		p.Sleep(10 * time.Millisecond)
		handled = p.Now()
		return Reply{}
	})
	var sentAt time.Duration
	e.Spawn("c", func(p *sim.Proc) {
		if err := nw.Cast(p, &Msg{From: 0, To: 1, Service: "bg", Size: 10}); err != nil {
			t.Errorf("cast: %v", err)
		}
		sentAt = p.Now()
	})
	e.Run()
	if sentAt > time.Millisecond {
		t.Errorf("caster blocked until %v; cast must not wait for the handler", sentAt)
	}
	if handled < 10*time.Millisecond {
		t.Errorf("handler finished at %v, want >= 10ms", handled)
	}
}

func TestRDMAWriteOneSidedVsTwoSided(t *testing.T) {
	run := func(prof Profile) time.Duration {
		e := sim.New(1)
		nw := New(e, prof, 2)
		var took time.Duration
		e.Spawn("c", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 50; i++ {
				_ = nw.RDMAWrite(p, 0, 1, 1024)
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
		_ = nw.SendLegacy(p, 0, 1, 1000)
		_ = nw.SendLegacy(p, 1, 0, 500)
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
			e.Spawn("x", func(p *sim.Proc) { _ = nw.SendLegacy(p, x.src, x.dst, x.n) })
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
		_ = nw.RDMAWrite(p, 0, 1, 1<<30)
		nativeT = p.Now() - start
		start = p.Now()
		_ = nw.SendLegacy(p, 0, 1, 1<<30)
		legacyT = p.Now() - start
	})
	e.Run()
	// 1 GiB: native RDMA 6 GB/s ~0.18s; legacy IPoIB 3 GB/s ~0.36s.
	if legacyT < nativeT*3/2 {
		t.Errorf("legacy transfer (%v) should be ~2x native (%v)", legacyT, nativeT)
	}
}

func TestSendLegacyFallsBackWithoutLegacy(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	var a, b time.Duration
	e.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		_ = nw.RDMAWrite(p, 0, 1, 1<<28)
		a = p.Now() - start
		start = p.Now()
		_ = nw.SendLegacy(p, 0, 1, 1<<28)
		b = p.Now() - start
	})
	e.Run()
	// Same native packet train; a two-sided send adds only the
	// receive-side software overhead a one-sided write skips.
	if b != a+RDMA.SWOverhead {
		t.Errorf("SendLegacy without legacy transport took %v, want native write %v + %v", b, a, RDMA.SWOverhead)
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
