package cluster

import (
	"fmt"
	"time"

	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// Validate reports whether the configuration describes a buildable
// cluster. New panics on a bad config (its historical contract); Validate
// lets callers that assemble configs from flags or files fail fast with
// an error instead.
func (cfg Config) Validate() error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("cluster: need at least one node, have %d", cfg.Nodes)
	}
	if cfg.RacksOf < 0 {
		return fmt.Errorf("cluster: nodes per rack must be >= 1 (or 0 for one rack), have %d", cfg.RacksOf)
	}
	if cfg.Transport.Bandwidth <= 0 {
		return fmt.Errorf("cluster: transport NIC bandwidth must be positive, have %g", cfg.Transport.Bandwidth)
	}
	if cfg.Transport.Latency <= 0 {
		return fmt.Errorf("cluster: transport latency must be positive, have %v", cfg.Transport.Latency)
	}
	if cfg.Legacy != nil {
		if cfg.Legacy.Bandwidth <= 0 {
			return fmt.Errorf("cluster: legacy NIC bandwidth must be positive, have %g", cfg.Legacy.Bandwidth)
		}
		if cfg.Legacy.Latency <= 0 {
			return fmt.Errorf("cluster: legacy latency must be positive, have %v", cfg.Legacy.Latency)
		}
	}
	return nil
}

// FleetConfig describes a datacenter-scale, flow-only fleet: racks of
// memory-lean nodes on per-rack sim shards, sized for topologies where
// the full Cluster machinery (devices, task slots, packet pipes) would
// cost GBs of heap.
type FleetConfig struct {
	Racks        int
	NodesPerRack int
	Transport    netsim.Profile
	// Shards is the number of sim.Env event heaps the racks are
	// partitioned over (round-robin). 0 or 1 means a single heap. Up to
	// GOMAXPROCS shards run each synchronization window concurrently.
	Shards int
	Seed   int64
}

// crossRackLatency is the fleet's rack-to-rack propagation latency and,
// being the minimum cross-shard delay, the sharded kernel's lookahead.
const crossRackLatency = 5 * time.Microsecond

// uplinkPerNIC sizes each rack's up/down trunk in NIC bandwidths.
const uplinkPerNIC = 4

func (cfg FleetConfig) withDefaults() FleetConfig {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	return cfg
}

// Validate reports whether the fleet configuration is buildable, after
// default resolution.
func (cfg FleetConfig) Validate() error {
	cfg = cfg.withDefaults()
	return cfg.topology().Validate()
}

func (cfg FleetConfig) topology() netsim.FleetTopology {
	return netsim.FleetTopology{
		Racks:            cfg.Racks,
		NodesPerRack:     cfg.NodesPerRack,
		Profile:          cfg.Transport,
		CrossRackLatency: crossRackLatency,
		UplinkBandwidth:  uplinkPerNIC * cfg.Transport.Bandwidth,
		Shards:           cfg.Shards,
		Seed:             cfg.Seed,
	}
}

// FleetCluster is the scale-out counterpart of Cluster: a netsim.Fleet
// plus the config that built it. Nodes carry no devices or slot
// semaphores — fleet workloads model I/O traffic, not task scheduling.
type FleetCluster struct {
	Fleet *netsim.Fleet
	cfg   FleetConfig
}

// NewFleet builds a fleet testbed.
func NewFleet(cfg FleetConfig) (*FleetCluster, error) {
	cfg = cfg.withDefaults()
	fl, err := netsim.NewFleet(cfg.topology())
	if err != nil {
		return nil, err
	}
	return &FleetCluster{Fleet: fl, cfg: cfg}, nil
}

// Config returns the fleet configuration after default resolution.
func (c *FleetCluster) Config() FleetConfig { return c.cfg }

// Nodes returns the total node count.
func (c *FleetCluster) Nodes() int { return c.Fleet.Nodes() }

// Env returns the sim environment owning the given node — fleet
// processes must spawn on their node's shard.
func (c *FleetCluster) Env(node int) *sim.Env { return c.Fleet.Env(node) }

// Run drives every shard until the fleet drains and returns the final
// virtual time.
func (c *FleetCluster) Run() time.Duration { return c.Fleet.Group().Run() }
