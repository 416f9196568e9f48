package cluster

import (
	"strings"
	"testing"

	"hbb/internal/netsim"
	"hbb/internal/sim"
)

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

func TestFleetConfigValidate(t *testing.T) {
	base := FleetConfig{Racks: 10, NodesPerRack: 10, Transport: netsim.RDMA, Shards: 4, Seed: 1}
	mod := func(f func(*FleetConfig)) FleetConfig {
		c := base
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		cfg     FleetConfig
		wantErr string
	}{
		{"valid", base, ""},
		{"defaults fill in", mod(func(c *FleetConfig) { c.Shards = 0 }), ""},
		{"zero racks", mod(func(c *FleetConfig) { c.Racks = 0 }), "rack"},
		{"zero per rack", mod(func(c *FleetConfig) { c.NodesPerRack = 0 }), "node per rack"},
		{"zero NIC bandwidth", mod(func(c *FleetConfig) { c.Transport.Bandwidth = 0 }), "bandwidth"},
		{"shards exceed racks", mod(func(c *FleetConfig) { c.Shards = 11 }), "exceed"},
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

func TestFleetClusterTransfer(t *testing.T) {
	fc, err := NewFleet(FleetConfig{
		Racks: 2, NodesPerRack: 2, Transport: netsim.RDMA, Shards: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fc.Nodes() != 4 {
		t.Fatalf("Nodes() = %d, want 4", fc.Nodes())
	}
	done := false
	fc.Env(0).Spawn("w", func(p *sim.Proc) {
		if err := fc.Fleet.Transfer(p, 0, 3, 1<<20); err != nil {
			t.Errorf("Transfer: %v", err)
		}
		done = true
	})
	if end := fc.Run(); end == 0 || !done {
		t.Errorf("fleet run: end=%v done=%v", end, done)
	}
}
