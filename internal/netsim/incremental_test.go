package netsim

// Pinned-trace checking of the two owners of the max-min solver. The
// traces below were recorded at the last commit that carried a private
// incremental solver and a full re-solve in each of flow.go and
// fleet.go, where both modes produced them bit for bit; a solver change
// must reproduce them, which proves it trace-identical to that engine
// rather than merely self-consistent. (The incremental-vs-full-re-solve
// differential itself lives in internal/maxmin's tests.) The workloads
// drive arrivals, completions, and SetDown aborts from a seeded plan and
// record every completion instant, error, and periodically-probed exact
// rate. Named *Stress so `make stress` runs them under the race detector.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"hbb/internal/maxmin"
	"hbb/internal/sim"
)

// flowDiffTrace runs one seeded random Network workload — concurrent
// writers, repeated writes, node failures mid-drain — and returns its
// full observable trace: every write completion (instant and error),
// every kill instant, and a per-probe hash of every draining flow's
// exact rate bits.
func flowDiffTrace(t *testing.T, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nodes = 12
	type writePlan struct {
		start    time.Duration
		src, dst NodeID
		sizes    []int64
		gaps     []time.Duration
	}
	type killPlan struct {
		at   time.Duration
		node NodeID
	}
	writers := make([]writePlan, 32)
	for i := range writers {
		w := &writers[i]
		w.start = time.Duration(rng.Intn(2000)) * time.Microsecond
		w.src = NodeID(rng.Intn(nodes))
		w.dst = NodeID(rng.Intn(nodes - 1))
		if w.dst >= w.src {
			w.dst++
		}
		for k, kn := 0, 1+rng.Intn(3); k < kn; k++ {
			w.sizes = append(w.sizes, int64(1+rng.Intn(8<<20)))
			w.gaps = append(w.gaps, time.Duration(rng.Intn(500))*time.Microsecond)
		}
	}
	kills := make([]killPlan, 3)
	for i := range kills {
		kills[i] = killPlan{
			at:   time.Duration(500+rng.Intn(3000)) * time.Microsecond,
			node: NodeID(rng.Intn(nodes)),
		}
	}
	e := sim.New(1)
	nw := New(e, RDMA, nodes)
	var trace []string
	for i := range writers {
		i, w := i, writers[i]
		e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			p.Sleep(w.start)
			f, err := nw.StartFlow(w.src, w.dst)
			if err != nil {
				trace = append(trace, fmt.Sprintf("w%d start t=%d err=%v", i, p.Now(), err))
				return
			}
			for j, n := range w.sizes {
				err := f.Write(p, n)
				trace = append(trace, fmt.Sprintf("w%d.%d t=%d err=%v", i, j, p.Now(), err))
				if err != nil {
					break
				}
				p.Sleep(w.gaps[j])
			}
			f.Close(p)
		})
	}
	for i := range kills {
		i, k := i, kills[i]
		e.Spawn(fmt.Sprintf("k%d", i), func(p *sim.Proc) {
			p.Sleep(k.at)
			nw.SetDown(k.node, true)
			trace = append(trace, fmt.Sprintf("k%d t=%d node=%d", i, p.Now(), k.node))
		})
	}
	e.Spawn("probe", func(p *sim.Proc) {
		for round := 0; round < 60; round++ {
			p.Sleep(100 * time.Microsecond)
			h := uint64(fnvOffset)
			active := append([]*maxmin.Entity[*Flow](nil), nw.solver.Active()...)
			maxmin.SortBySeq(active) // the pinned hash chains in arrival order
			for _, e := range active {
				h ^= e.Seq
				h *= fnvPrime
				h ^= math.Float64bits(e.Rate)
				h *= fnvPrime
			}
			trace = append(trace, fmt.Sprintf("probe%d n=%d h=%016x", round, len(active), h))
		}
	})
	e.Run()
	trace = append(trace, fmt.Sprintf("resolves=%d", nw.Metrics().Counter("net.flow.resolves").Value()))
	return trace
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// traceHash is FNV-64a over the trace's newline-terminated entries.
func traceHash(trace []string) uint64 {
	h := fnv.New64a()
	for _, s := range trace {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func checkPinnedTraces(t *testing.T, run func(*testing.T, int64) []string, want []uint64) {
	t.Helper()
	for i, w := range want {
		seed := int64(i + 1)
		trace := run(t, seed)
		if got := traceHash(trace); got != w {
			t.Errorf("seed %d: trace hash %#016x, want %#016x (%d entries, last %q)",
				seed, got, w, len(trace), trace[len(trace)-1])
		}
	}
}

func TestFlowSolverDifferentialStress(t *testing.T) {
	checkPinnedTraces(t, flowDiffTrace, []uint64{
		0xd2eceeefac8ede5b, 0xaa9d0fbc821ec7c6, 0xa344616b6957ce16,
		0x5f8b81fab28c26c2, 0xf02040b5de7f67d3, 0xda7eca86aff3d692,
	})
}

// fleetDiffTrace runs one seeded random Fleet workload — intra- and
// cross-rack transfers, with repeated same-(src,dst) submissions to
// exercise bundle joins and member backlogs — and returns every
// completion in delivery order plus the final stats.
func fleetDiffTrace(t *testing.T, seed int64) []string {
	t.Helper()
	topo := fleetTopo(4, 6, 2)
	topo.UplinkBandwidth = 2 * RDMA.Bandwidth
	fl, err := NewFleet(topo)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := fl.Nodes()
	type xferPlan struct {
		at       time.Duration
		src, dst int
		n        int64
	}
	plans := make([]xferPlan, 150)
	for i := range plans {
		pl := &plans[i]
		if i > 0 && rng.Intn(100) < 40 {
			// Repeat the previous pair at a nearby instant: concurrent
			// same-pair legs ride one bundle.
			pl.src, pl.dst = plans[i-1].src, plans[i-1].dst
			pl.at = plans[i-1].at + time.Duration(rng.Intn(300))*time.Microsecond
		} else {
			pl.at = time.Duration(rng.Intn(3000)) * time.Microsecond
			pl.src = rng.Intn(nodes)
			pl.dst = rng.Intn(nodes - 1)
			if pl.dst >= pl.src {
				pl.dst++
			}
		}
		pl.n = int64(1 + rng.Intn(4<<20))
	}
	var trace []string
	for i := range plans {
		i, pl := i, plans[i]
		env := fl.Env(pl.src)
		env.At(pl.at, func() {
			if err := fl.StartTransfer(pl.src, pl.dst, pl.n, func() {
				trace = append(trace, fmt.Sprintf("x%d t=%d", i, env.Now()))
			}); err != nil {
				t.Errorf("StartTransfer %d: %v", i, err)
			}
		})
	}
	end := fl.Group().Run()
	st := fl.Stats()
	trace = append(trace, fmt.Sprintf("end=%d flows=%d bytes=%d/%d resolves=%d",
		end, st.Flows, st.BytesSent, st.BytesReceived, st.Resolves))
	return trace
}

func TestFleetSolverDifferentialStress(t *testing.T) {
	checkPinnedTraces(t, fleetDiffTrace, []uint64{
		0x7fa461e9893da92e, 0x1d6ec28a82184f60, 0x1b5bdaa9b34790c7,
		0x600b450999ac6e20, 0x23ca9240c3fa3217, 0xdbf25368a2845888,
	})
}

// fleetDisjointRun drives `pairs` concurrent link-disjoint intra-rack
// streams (node 2i → 2i+1, several back-to-back transfers each) and
// returns the fleet's stats.
func fleetDisjointRun(t testing.TB, pairs, xfersPerPair int) FleetStats {
	topo := fleetTopo(1, 2*pairs, 1)
	fl, err := NewFleet(topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pairs; i++ {
		i := i
		fl.Env(2*i).Spawn(fmt.Sprintf("pair%d", i), func(p *sim.Proc) {
			for k := 0; k < xfersPerPair; k++ {
				if err := fl.Transfer(p, 2*i, 2*i+1, 4<<20); err != nil {
					t.Errorf("Transfer: %v", err)
				}
			}
		})
	}
	fl.Group().Run()
	return fl.Stats()
}

func TestFleetResolveTouchedConstant(t *testing.T) {
	// On a link-disjoint workload every rate event's affected component
	// is one flow's two links, so links-touched per solver invocation
	// must stay constant-bounded — independent of how many flows are
	// concurrently active. (Arrival solves touch 2 links; completion
	// solves touch 0, the emptied component.)
	per := make(map[int]float64)
	for _, pairs := range []int{8, 64} {
		st := fleetDisjointRun(t, pairs, 4)
		if st.Resolves == 0 {
			t.Fatalf("pairs=%d: no resolves recorded", pairs)
		}
		p := float64(st.LinksTouched) / float64(st.Resolves)
		if p > 2.0 {
			t.Errorf("pairs=%d: links-touched per resolve = %.3f, want <= 2 (O(affected) broken)", pairs, p)
		}
		per[pairs] = p
	}
	if d := per[64] - per[8]; d < -0.01 || d > 0.01 {
		t.Errorf("links-touched per resolve grew with population: %.3f at 8 pairs vs %.3f at 64", per[8], per[64])
	}
}

// BenchmarkFleetResolveTouched pins the incremental solver's per-event
// cost on a fabric of link-disjoint streams: links-touched per resolve
// must stay ~constant while the active-flow population scales.
func BenchmarkFleetResolveTouched(b *testing.B) {
	const pairs, xfers = 64, 8
	for i := 0; i < b.N; i++ {
		st := fleetDisjointRun(b, pairs, xfers)
		if i == 0 {
			b.ReportMetric(float64(st.LinksTouched)/float64(st.Resolves), "links/resolve")
			b.ReportMetric(float64(st.Resolves)/float64(st.Flows), "resolves/flow")
		}
	}
}
