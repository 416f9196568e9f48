package cluster

import (
	"strings"
	"testing"
	"time"

	"hbb/internal/netsim"
	"hbb/internal/sim"
)

func TestClusterConstruction(t *testing.T) {
	c := New(Config{Nodes: 8, RacksOf: 4, Transport: netsim.RDMA, Hardware: HPCLocalHardware(), Seed: 1})
	if len(c.Nodes) != 8 || c.Net.Nodes() != 8 {
		t.Fatalf("nodes = %d/%d", len(c.Nodes), c.Net.Nodes())
	}
	if c.Nodes[0].Rack != 0 || c.Nodes[3].Rack != 0 || c.Nodes[4].Rack != 1 || c.Nodes[7].Rack != 1 {
		t.Errorf("rack assignment wrong: %d %d %d %d",
			c.Nodes[0].Rack, c.Nodes[3].Rack, c.Nodes[4].Rack, c.Nodes[7].Rack)
	}
	n := c.Nodes[0]
	if n.RAMDisk == nil || n.SSD == nil || n.HDD == nil {
		t.Error("HPC-local node missing devices")
	}
	if got := len(n.LocalDevices()); got != 3 {
		t.Errorf("local devices = %d", got)
	}
	if n.MapSlots.Capacity() != 4 || n.ReduceSlots.Capacity() != 2 {
		t.Errorf("slots = %d/%d", n.MapSlots.Capacity(), n.ReduceSlots.Capacity())
	}
}

func TestDisklessHardware(t *testing.T) {
	c := New(Config{Nodes: 2, Transport: netsim.RDMA, Hardware: DisklessHardware(), Seed: 1})
	n := c.Nodes[0]
	if n.SSD != nil || n.HDD != nil {
		t.Error("diskless node has persistent storage")
	}
	if n.RAMDisk == nil || n.RAMDisk.Capacity() != 12*GiB {
		t.Error("diskless node missing its RAM disk")
	}
	if n.LocalCapacity() != 12*GiB {
		t.Errorf("local capacity = %d", n.LocalCapacity())
	}
}

func TestSSDRaidDoublesBandwidth(t *testing.T) {
	hw := HPCLocalHardware()
	c := New(Config{Nodes: 1, Transport: netsim.RDMA, Hardware: hw, Seed: 1})
	prof := c.Nodes[0].SSD.Profile()
	if prof.WriteBW != 900e6 || prof.ReadBW != 1000e6 {
		t.Errorf("RAID-0 SSD profile = %v/%v", prof.WriteBW, prof.ReadBW)
	}
}

func TestLocalUsedTracksAllocations(t *testing.T) {
	c := New(Config{Nodes: 1, Transport: netsim.RDMA, Hardware: HPCLocalHardware(), Seed: 1})
	n := c.Nodes[0]
	if n.LocalUsed() != 0 {
		t.Fatal("fresh node has usage")
	}
	n.SSD.Alloc(100)
	n.RAMDisk.Alloc(50)
	if n.LocalUsed() != 150 {
		t.Errorf("used = %d", n.LocalUsed())
	}
}

func TestComputeCharges(t *testing.T) {
	c := New(Config{Nodes: 1, Transport: netsim.RDMA,
		Hardware: HardwareSpec{ComputeRate: 100e6}, Seed: 1})
	var took time.Duration
	c.Env.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		c.Nodes[0].Compute(p, 100e6, 2.0) // 200 MB-equivalent at 100 MB/s
		took = p.Now() - start
	})
	c.Env.Run()
	want := 2 * time.Second
	if diff := took - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("compute took %v, want ~%v", took, want)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	c := New(Config{Nodes: 1, Transport: netsim.RDMA, Hardware: HPCLocalHardware(), Seed: 1})
	c.Env.Spawn("t", func(p *sim.Proc) {
		c.Nodes[0].Compute(p, 0, 1)
		c.Nodes[0].Compute(p, 100, 0)
		if p.Now() != 0 {
			t.Errorf("free compute advanced clock to %v", p.Now())
		}
	})
	c.Env.Run()
}

func TestNodeLookup(t *testing.T) {
	c := New(Config{Nodes: 2, Transport: netsim.RDMA, Hardware: DisklessHardware(), Seed: 1})
	if c.Node(0) == nil || c.Node(1) == nil {
		t.Error("node lookup failed")
	}
	if c.Node(2) != nil || c.Node(-1) != nil {
		t.Error("out-of-range lookup returned a node")
	}
	// Service nodes added later are not compute nodes.
	id := c.Net.AddNode()
	if c.Node(id) != nil {
		t.Error("service node returned as compute node")
	}
}

func TestLegacyTransportInstalled(t *testing.T) {
	ipoib := netsim.IPoIB
	c := New(Config{Nodes: 2, Transport: netsim.RDMA, Legacy: &ipoib, Hardware: DisklessHardware(), Seed: 1})
	if !c.Net.HasLegacy() {
		t.Error("legacy transport not installed")
	}
	c2 := New(Config{Nodes: 2, Transport: netsim.RDMA, Hardware: DisklessHardware(), Seed: 1})
	if c2.Net.HasLegacy() {
		t.Error("legacy transport installed unrequested")
	}
}

func TestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-node cluster did not panic")
		}
	}()
	New(Config{Transport: netsim.RDMA})
}

func TestConfigValidate(t *testing.T) {
	base := Config{Nodes: 8, RacksOf: 4, Transport: netsim.RDMA, Hardware: HPCLocalHardware(), Seed: 1}
	mod := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	legacy := netsim.IPoIB
	badLegacy := netsim.IPoIB
	badLegacy.Bandwidth = 0
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"valid", base, ""},
		{"one big rack", mod(func(c *Config) { c.RacksOf = 0 }), ""},
		{"with legacy", mod(func(c *Config) { c.Legacy = &legacy }), ""},
		{"zero nodes", mod(func(c *Config) { c.Nodes = 0 }), "node"},
		{"negative nodes", mod(func(c *Config) { c.Nodes = -4 }), "node"},
		{"negative racksOf", mod(func(c *Config) { c.RacksOf = -1 }), "rack"},
		{"zero bandwidth", mod(func(c *Config) { c.Transport.Bandwidth = 0 }), "bandwidth"},
		{"zero latency", mod(func(c *Config) { c.Transport.Latency = 0 }), "latency"},
		{"bad legacy", mod(func(c *Config) { c.Legacy = &badLegacy }), "legacy"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
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
