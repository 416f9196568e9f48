package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hbb/internal/sim"
)

func fleetTopo(racks, perRack, shards int) FleetTopology {
	return FleetTopology{
		Racks:            racks,
		NodesPerRack:     perRack,
		Profile:          RDMA,
		CrossRackLatency: 5 * time.Microsecond,
		UplinkBandwidth:  4 * RDMA.Bandwidth,
		Shards:           shards,
		Seed:             1,
	}
}

func TestFleetTopologyValidate(t *testing.T) {
	base := fleetTopo(4, 8, 2)
	mod := func(f func(*FleetTopology)) FleetTopology {
		c := base
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		topo    FleetTopology
		wantErr string
	}{
		{"valid", base, ""},
		{"zero racks", mod(func(c *FleetTopology) { c.Racks = 0 }), "rack"},
		{"negative racks", mod(func(c *FleetTopology) { c.Racks = -3 }), "rack"},
		{"zero nodes per rack", mod(func(c *FleetTopology) { c.NodesPerRack = 0 }), "node per rack"},
		{"zero latency", mod(func(c *FleetTopology) { c.CrossRackLatency = 0 }), "latency"},
		{"negative latency", mod(func(c *FleetTopology) { c.CrossRackLatency = -time.Microsecond }), "latency"},
		{"zero NIC bandwidth", mod(func(c *FleetTopology) { c.Profile.Bandwidth = 0 }), "NIC bandwidth"},
		{"zero uplink", mod(func(c *FleetTopology) { c.UplinkBandwidth = 0 }), "uplink"},
		{"zero shards", mod(func(c *FleetTopology) { c.Shards = 0 }), "shard"},
		{"more shards than racks", mod(func(c *FleetTopology) { c.Shards = 5 }), "exceed"},
	}
	for _, tc := range cases {
		err := tc.topo.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestFleetIntraRackClosedForm(t *testing.T) {
	// A lone intra-rack transfer drains at full NIC bandwidth plus one
	// propagation latency, like a Network flow.
	fl, err := NewFleet(fleetTopo(2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6_000_000 // 1 ms at 6 GB/s
	var took time.Duration
	fl.Env(0).Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		if err := fl.Transfer(p, 0, 1, n); err != nil {
			t.Errorf("Transfer: %v", err)
		}
		took = p.Now() - start
	})
	fl.Group().Run()
	want := time.Millisecond + RDMA.Latency
	if d := took - want; d < -time.Nanosecond || d > time.Nanosecond {
		t.Errorf("intra-rack transfer took %v, want %v", took, want)
	}
	if sent, _ := fl.RackTraffic(0); sent != n {
		t.Errorf("rack 0 sent %d, want %d", sent, n)
	}
}

func TestFleetCrossRackClosedForm(t *testing.T) {
	// Store-and-forward across the core: NIC-limited drain into the
	// uplink, one cross-rack latency, NIC-limited drain to the
	// destination, one latency for the ack.
	for _, shards := range []int{1, 2} {
		fl, err := NewFleet(fleetTopo(2, 4, shards))
		if err != nil {
			t.Fatal(err)
		}
		const n = 6_000_000 // 1 ms per phase at 6 GB/s
		var took time.Duration
		fl.Env(0).Spawn("w", func(p *sim.Proc) {
			start := p.Now()
			if err := fl.Transfer(p, 0, 5, n); err != nil { // node 5 = rack 1
				t.Errorf("Transfer: %v", err)
			}
			took = p.Now() - start
		})
		fl.Group().Run()
		want := 2*time.Millisecond + 2*5*time.Microsecond
		if d := took - want; d < -2*time.Nanosecond || d > 2*time.Nanosecond {
			t.Errorf("shards=%d: cross-rack transfer took %v, want %v", shards, took, want)
		}
		if _, recv := fl.RackTraffic(1); recv != n {
			t.Errorf("shards=%d: rack 1 recv %d, want %d", shards, recv, n)
		}
	}
}

func TestFleetUplinkContention(t *testing.T) {
	// Two concurrent cross-rack senders from one rack with the uplink
	// sized at exactly one NIC: the uplink is the bottleneck and each
	// flow gets half of it during phase one.
	topo := fleetTopo(2, 4, 1)
	topo.UplinkBandwidth = RDMA.Bandwidth
	fl, err := NewFleet(topo)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6_000_000
	ends := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		fl.Env(0).Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			if err := fl.Transfer(p, i, 4+i, n); err != nil {
				t.Errorf("Transfer: %v", err)
			}
			ends[i] = p.Now()
		})
	}
	fl.Group().Run()
	// Phase one: both share the uplink → 2 ms. Phase two: both land on
	// the shared rack-1 downlink (also one NIC wide) → another 2 ms.
	want := 4*time.Millisecond + 2*5*time.Microsecond
	for i, got := range ends {
		if d := got - want; d < -2*time.Nanosecond || d > 2*time.Nanosecond {
			t.Errorf("writer %d finished at %v, want %v", i, got, want)
		}
	}
}

func TestFleetLoopbackAndValidationErrors(t *testing.T) {
	fl, err := NewFleet(fleetTopo(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fl.Env(0).Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		if err := fl.Transfer(p, 0, 0, 1<<20); err != nil {
			t.Errorf("loopback: %v", err)
		}
		if p.Now() != start {
			t.Errorf("loopback cost %v fabric time, want 0", p.Now()-start)
		}
		// Node 2 lives in rack 1 on shard 1; sending from its ID on
		// shard 0's env must be refused.
		if err := fl.Transfer(p, 2, 0, 1<<20); !errors.Is(err, ErrFleetShard) {
			t.Errorf("wrong-shard transfer = %v, want ErrFleetShard", err)
		}
	})
	fl.Group().Run()
}

func TestFleetSettleMovesTimerOfNewHead(t *testing.T) {
	// Bundles X (0→1) and Y (0→2) share node 0's egress, the bottleneck,
	// at weights 1 and 2: every member drains at a third of it. When Y's
	// short member finishes, its callback joins a short member to X in the
	// same instant. The weights become 2 and 1, so X's rate comes out of
	// the settle bit-identical — but X has a new head, which must get its
	// own completion timer rather than inherit the long member's.
	fl, err := NewFleet(fleetTopo(1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := fl.racks[0]
	eg, in1, in2 := &r.nodes[0].eg, &r.nodes[1].in, &r.nodes[2].in
	third := int64(RDMA.Bandwidth / 3 / 1000) // 1 ms at a third of a NIC
	var took time.Duration
	r.env.At(0, func() {
		r.startFlow(0, eg, in1, 100*third, func() {})
		r.startFlow(0, eg, in2, third, func() {
			now := r.env.Now()
			r.startFlow(int64(now), eg, in1, third, func() { took = r.env.Now() - now })
		})
		r.startFlow(0, eg, in2, 100*third, func() {})
	})
	fl.Group().Run()
	if d := took - time.Millisecond; d < -2*time.Nanosecond || d > 2*time.Nanosecond {
		t.Errorf("the joined head took %v, want 1ms", took)
	}
}

func TestFleetSettleDoesNotAllocate(t *testing.T) {
	// A same-instant burst — two legs joining one bundle, one more sharing
	// their egress — then its completions: settles, timer moves, pooled
	// bundles and transfer records, all without allocating once warm.
	fl, err := NewFleet(fleetTopo(1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	env := fl.Env(0)
	done := func() {}
	burst := func() {
		for _, dst := range [...]int{1, 1, 2} {
			if err := fl.StartTransfer(0, dst, 1<<20, done); err != nil {
				t.Error(err)
			}
		}
	}
	step := func() {
		env.At(env.Now(), burst)
		fl.Group().Run()
	}
	step() // size the pools and scratch
	before := fl.Stats().Resolves
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("burst and drain allocated %.1f times, want 0", n)
	}
	// Per burst: one settle for the arrivals; the three equal legs then
	// finish at one instant, where the settle after the first two
	// completions re-arms the bundle's second member at that same instant
	// and a second settle follows its completion.
	if got := fl.Stats().Resolves - before; got != 51*3 {
		t.Errorf("%d settles over 51 bursts, want %d", got, 51*3)
	}
}

// TestFleetTransferRecordAllocs: a transfer record is two allocations
// when the pool misses, the record and its one step callback, and a warm
// pool starts transfers, intra- and cross-rack, without allocating.
func TestFleetTransferRecordAllocs(t *testing.T) {
	fl, err := NewFleet(fleetTopo(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	env := fl.Env(0)
	done := func() {}
	start := func() {
		for _, dst := range [...]int{1, 3} { // one intra-rack, one cross-rack
			if err := fl.StartTransfer(0, dst, 1<<20, done); err != nil {
				t.Error(err)
			}
		}
	}
	step := func() {
		env.At(env.Now(), start)
		fl.Group().Run()
	}
	step() // size the pools and scratch
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("warm transfers allocated %.1f times, want 0", n)
	}
	src := fl.racks[0]
	miss := func() {
		clear(src.xfers)
		src.xfers = src.xfers[:0]
		step()
	}
	if n := testing.AllocsPerRun(50, miss) / 2; n > 2 {
		t.Errorf("a transfer record pool miss allocated %.1f times, want <= 2", n)
	}
}

// fleetTraceFingerprint runs a mixed intra/cross-rack workload and folds
// every transfer completion into per-rack hashes combined in rack order,
// so the result is independent of shard placement but sensitive to any
// timing or ordering change. Windows run on procs workers (GOMAXPROCS).
func fleetTraceFingerprint(racks, perRack, shards, procs int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fl, err := NewFleet(fleetTopo(racks, perRack, shards))
	if err != nil {
		panic(err)
	}
	hashes := make([]uint64, racks)
	for i := range hashes {
		hashes[i] = 14695981039346656037
	}
	nodes := racks * perRack
	for node := 0; node < nodes; node++ {
		node := node
		rack := fl.RackOf(node)
		fl.Env(node).Spawn(fmt.Sprintf("n%d", node), func(p *sim.Proc) {
			p.Sleep(time.Duration(node%7) * 3 * time.Microsecond)
			for op := 0; op < 3; op++ {
				dst := (node*13 + op*29 + 1) % nodes
				if dst == node {
					dst = (dst + 1) % nodes
				}
				size := int64(1+(node+op)%5) << 18
				if err := fl.Transfer(p, node, dst, size); err != nil {
					panic(err)
				}
				h := hashes[rack]
				for _, v := range []uint64{uint64(p.Now()), uint64(node), uint64(dst), uint64(size)} {
					h ^= v
					h *= 1099511628211
				}
				hashes[rack] = h
			}
		})
	}
	end := fl.Group().Run()
	h := uint64(14695981039346656037)
	fold := func(v uint64) { h ^= v; h *= 1099511628211 }
	fold(uint64(end))
	for _, v := range hashes {
		fold(v)
	}
	return h
}

func TestFleetDeterminismAcrossShardsAndWorkers(t *testing.T) {
	base := fleetTraceFingerprint(6, 4, 1, 1)
	for _, tc := range []struct{ shards, procs int }{
		{2, 1}, {3, 1}, {6, 4}, {6, 8},
	} {
		if got := fleetTraceFingerprint(6, 4, tc.shards, tc.procs); got != base {
			t.Errorf("shards=%d GOMAXPROCS=%d fingerprint %x, want %x (shards=1)",
				tc.shards, tc.procs, got, base)
		}
	}
}
