package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hbb/internal/sim"
)

// flowWriteTime runs one Flow.Write of n bytes from src to dst and
// returns how long the writer was blocked.
func flowWriteTime(t *testing.T, prof Profile, n int64) time.Duration {
	t.Helper()
	e := sim.New(1)
	nw := New(e, prof, 3)
	var took time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		f, err := nw.StartFlow(0, 1)
		if err != nil {
			t.Errorf("StartFlow: %v", err)
			return
		}
		start := p.Now()
		if err := f.Write(p, n); err != nil {
			t.Errorf("Write: %v", err)
		}
		took = p.Now() - start
		f.Close(p)
	})
	e.Run()
	return took
}

func TestFlowClosedFormCompletion(t *testing.T) {
	// A lone flow drains at full NIC bandwidth: n/B seconds plus one
	// propagation latency, reproduced to within 1 ns of float rounding.
	for _, prof := range []Profile{RDMA, IPoIB, TenGigE} {
		for _, n := range []int64{4096, 1 << 20, 128 << 20} {
			got := flowWriteTime(t, prof, n)
			want := time.Duration(float64(n)/prof.Bandwidth*1e9) + prof.Latency
			if d := got - want; d < -time.Nanosecond || d > time.Nanosecond {
				t.Errorf("%s %dB: Write took %v, closed form %v (off by %v)",
					prof.Name, n, got, want, d)
			}
		}
	}
}

func TestFlowFairShareTwoFlows(t *testing.T) {
	// Two flows out of the same sender egress: each gets half the NIC,
	// so equal-sized concurrent writes finish together at 2n/B.
	e := sim.New(1)
	nw := New(e, TenGigE, 3)
	const n = 625 << 20 // 2n/B = 1.048576 s at 1.25 GB/s
	ends := make([]time.Duration, 2)
	var wg sim.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			defer wg.Done()
			f, err := nw.StartFlow(0, NodeID(1+i))
			if err != nil {
				t.Errorf("StartFlow: %v", err)
				return
			}
			if err := f.Write(p, n); err != nil {
				t.Errorf("Write: %v", err)
			}
			ends[i] = p.Now()
			f.Close(p)
		})
	}
	e.Run()
	want := time.Duration(2*float64(n)/TenGigE.Bandwidth*1e9) + TenGigE.Latency
	for i, got := range ends {
		if d := got - want; d < -2*time.Nanosecond || d > 2*time.Nanosecond {
			t.Errorf("flow %d finished at %v, want half-bandwidth share %v", i, got, want)
		}
	}
}

func TestFlowDepartureSpeedsSurvivor(t *testing.T) {
	// Flow A moves 2n, flow B moves n, both sharing A's and B's common
	// egress from t=0. B finishes at 2n/B (half share); A then claims the
	// whole NIC and lands at 3n/B — strictly earlier than the 4n/B it
	// would take if the share never rebalanced.
	e := sim.New(1)
	nw := New(e, TenGigE, 3)
	const n = 125 << 20 // n/B = 0.1048576 s
	var endA, endB time.Duration
	e.Spawn("a", func(p *sim.Proc) {
		f, _ := nw.StartFlow(0, 1)
		if err := f.Write(p, 2*n); err != nil {
			t.Errorf("A: %v", err)
		}
		endA = p.Now()
		f.Close(p)
	})
	e.Spawn("b", func(p *sim.Proc) {
		f, _ := nw.StartFlow(0, 2)
		if err := f.Write(p, n); err != nil {
			t.Errorf("B: %v", err)
		}
		endB = p.Now()
		f.Close(p)
	})
	e.Run()
	wantB := time.Duration(2*float64(n)/TenGigE.Bandwidth*1e9) + TenGigE.Latency
	wantA := time.Duration(3*float64(n)/TenGigE.Bandwidth*1e9) + TenGigE.Latency
	if d := endB - wantB; d < -2*time.Nanosecond || d > 2*time.Nanosecond {
		t.Errorf("B finished at %v, want %v", endB, wantB)
	}
	if d := endA - wantA; d < -2*time.Nanosecond || d > 2*time.Nanosecond {
		t.Errorf("A finished at %v, want %v (survivor must speed up on B's exit)", endA, wantA)
	}
}

func TestFlowAbortOnNodeFailure(t *testing.T) {
	// Killing the receiver mid-drain wakes the writer with ErrNodeDown;
	// the error is sticky on later Writes and surfaces from Close too.
	e := sim.New(1)
	nw := New(e, TenGigE, 3)
	var f *Flow
	var writeErr error
	var failedAt time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		f, _ = nw.StartFlow(0, 1)
		writeErr = f.Write(p, 1<<30) // would take ~860 ms unperturbed
	})
	e.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		nw.SetDown(1, true)
		failedAt = p.Now()
	})
	end := e.Run()
	if !errors.Is(writeErr, ErrNodeDown) {
		t.Fatalf("Write after failure = %v, want ErrNodeDown", writeErr)
	}
	if end != failedAt {
		t.Errorf("writer unblocked at %v, want the failure instant %v", end, failedAt)
	}
	if !errors.Is(f.err, ErrNodeDown) {
		t.Errorf("sticky error lost: %v", f.err)
	}
	if got := nw.Metrics().Counter("net.flow.aborts").Value(); got != 1 {
		t.Errorf("net.flow.aborts = %d, want 1", got)
	}
}

// flowStressFingerprint runs a deterministic many-flow workload — phased
// arrivals and departures across 8 nodes with overlapping lifetimes —
// and fingerprints the end time plus the per-node byte counters.
func flowStressFingerprint() string {
	e := sim.New(99)
	nw := New(e, RDMA, 8)
	var wg sim.WaitGroup
	for i := 0; i < 24; i++ {
		i := i
		wg.Add(1)
		e.Spawn(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
			defer wg.Done()
			src := NodeID(i % 8)
			dst := NodeID((i*3 + 1) % 8)
			if src == dst {
				dst = (dst + 1) % 8
			}
			p.Sleep(time.Duration(i) * 37 * time.Microsecond)
			f, err := nw.StartFlow(src, dst)
			if err != nil {
				return
			}
			for r := 0; r < 3; r++ {
				if err := f.Write(p, int64(1+i%5)<<20); err != nil {
					break
				}
			}
			f.Close(p)
		})
	}
	end := e.Run()
	s := fmt.Sprintf("end=%d", int64(end))
	for id := NodeID(0); id < 8; id++ {
		sent, recv := nw.Traffic(id)
		s += fmt.Sprintf(" n%d=%d/%d", id, sent, recv)
	}
	s += fmt.Sprintf(" resolves=%d", nw.Metrics().Counter("net.flow.resolves").Value())
	return s
}

func TestFlowDeterminismAcrossGOMAXPROCS(t *testing.T) {
	// The solver mutates all flow state on the scheduler goroutine, so
	// the fingerprint must be bit-identical between a serial run and a
	// GOMAXPROCS=4 run, and across repetitions.
	prev := runtime.GOMAXPROCS(1)
	serial := flowStressFingerprint()
	runtime.GOMAXPROCS(4)
	parallel := flowStressFingerprint()
	runtime.GOMAXPROCS(prev)
	if serial != parallel {
		t.Fatalf("fingerprint depends on GOMAXPROCS:\n serial: %s\nGOMAXPROCS=4: %s", serial, parallel)
	}
	if again := flowStressFingerprint(); again != serial {
		t.Fatalf("fingerprint not reproducible:\n first: %s\nsecond: %s", serial, again)
	}
}

func TestFlowLoopbackIsFree(t *testing.T) {
	e := sim.New(1)
	nw := New(e, RDMA, 2)
	e.Spawn("w", func(p *sim.Proc) {
		f, _ := nw.StartFlow(0, 0)
		start := p.Now()
		if err := f.Write(p, 1<<30); err != nil {
			t.Errorf("loopback write: %v", err)
		}
		if took := p.Now() - start; took != 0 {
			t.Errorf("loopback flow cost %v fabric time, want 0", took)
		}
		f.Close(p)
	})
	e.Run()
	if sent, recv := nw.Traffic(0); sent != 1<<30 || recv != 1<<30 {
		t.Errorf("loopback counters sent=%d recv=%d, want both %d", sent, recv, int64(1)<<30)
	}
}

func TestAbortSkipsDisjointSurvivors(t *testing.T) {
	// A node failure must not re-solve (or perturb) flows on disjoint
	// links: the survivor keeps its armed timer and finishes at the exact
	// lone-flow closed form, and no extra solver pass runs.
	e := sim.New(1)
	nw := New(e, RDMA, 4)
	var survivorEnd time.Duration
	e.Spawn("victim", func(p *sim.Proc) {
		f, _ := nw.StartFlow(0, 1)
		f.Write(p, 1<<30)
	})
	e.Spawn("survivor", func(p *sim.Proc) {
		f, _ := nw.StartFlow(2, 3)
		if err := f.Write(p, 6_000_000); err != nil { // 1 ms at 6 GB/s
			t.Errorf("survivor write: %v", err)
		}
		survivorEnd = p.Now()
	})
	e.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		nw.SetDown(1, true)
	})
	e.Run()
	want := time.Millisecond + RDMA.Latency
	if d := survivorEnd - want; d < -time.Nanosecond || d > time.Nanosecond {
		t.Errorf("disjoint survivor finished at %v, want %v", survivorEnd, want)
	}
	// Two Write arrivals + the survivor's completion; the abort itself
	// must not add a pass.
	if got := nw.Metrics().Counter("net.flow.resolves").Value(); got != 3 {
		t.Errorf("net.flow.resolves = %d, want 3 (abort must skip disjoint survivors)", got)
	}
}

func TestAbortResolvesSharingSurvivors(t *testing.T) {
	// When a survivor shares a link with an aborted flow it must be
	// re-solved at the failure instant: here both flows leave node 0, so
	// killing flow A's receiver promotes flow B from half to full rate.
	e := sim.New(1)
	nw := New(e, RDMA, 3)
	const n = 6_000_000 // 1 ms alone, 2 ms at half share
	var survivorEnd time.Duration
	e.Spawn("victim", func(p *sim.Proc) {
		f, _ := nw.StartFlow(0, 1)
		f.Write(p, 1<<30)
	})
	e.Spawn("survivor", func(p *sim.Proc) {
		f, _ := nw.StartFlow(0, 2)
		if err := f.Write(p, n); err != nil {
			t.Errorf("survivor write: %v", err)
		}
		survivorEnd = p.Now()
	})
	killAt := 400 * time.Microsecond
	e.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(killAt)
		nw.SetDown(1, true)
	})
	e.Run()
	// Half rate for 400 µs drains 1.2 MB; the remaining 4.8 MB at full
	// rate takes 800 µs: completion at 1.2 ms + latency.
	want := 1200*time.Microsecond + RDMA.Latency
	if d := survivorEnd - want; d < -2*time.Nanosecond || d > 2*time.Nanosecond {
		t.Errorf("sharing survivor finished at %v, want %v", survivorEnd, want)
	}
}

// BenchmarkSetDownAbort pins the cost of a node failure in a fabric full
// of draining flows whose links are disjoint from the casualty: the abort
// must touch only the failed node's own flow, not re-solve the fabric.
func BenchmarkSetDownAbort(b *testing.B) {
	const pairs = 128
	for i := 0; i < b.N; i++ {
		e := sim.New(1)
		nw := New(e, RDMA, 2*pairs)
		for j := 0; j < pairs; j++ {
			j := j
			e.Spawn(fmt.Sprintf("f%d", j), func(p *sim.Proc) {
				f, _ := nw.StartFlow(NodeID(2*j), NodeID(2*j+1))
				f.Write(p, 4<<20)
				f.Close(p)
			})
		}
		e.Spawn("killer", func(p *sim.Proc) {
			p.Sleep(10 * time.Microsecond)
			nw.SetDown(1, true)
		})
		e.Run()
		if i == 0 {
			b.ReportMetric(float64(nw.Metrics().Counter("net.flow.resolves").Value()), "resolves/run")
		}
	}
}

func TestTransferFlowMatchesSendSemantics(t *testing.T) {
	// The one-shot wrapper must refuse downed endpoints exactly like
	// SendLegacy, and must not charge receive overhead on loopback.
	e := sim.New(1)
	nw := New(e, TenGigE, 3)
	nw.SetDown(2, true)
	e.Spawn("w", func(p *sim.Proc) {
		if err := nw.TransferFlow(p, 0, 2, 1<<20); !errors.Is(err, ErrNodeDown) {
			t.Errorf("TransferFlow to downed node = %v, want ErrNodeDown", err)
		}
		start := p.Now()
		if err := nw.TransferFlow(p, 1, 1, 1<<20); err != nil {
			t.Errorf("loopback transfer: %v", err)
		}
		if took := p.Now() - start; took != TenGigE.SWOverhead {
			t.Errorf("loopback transfer cost %v, want one SWOverhead %v", took, TenGigE.SWOverhead)
		}
	})
	e.Run()
}
