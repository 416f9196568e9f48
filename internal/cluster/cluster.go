// Package cluster builds the simulated HPC testbed: compute nodes with
// local storage devices (RAM disk, optional SSD/HDD), CPU slots for
// MapReduce tasks, and rack topology, all attached to a netsim fabric.
// Presets mirror the two testbed shapes the paper's evaluation methodology
// targets: an OSU-RI-like cluster whose nodes carry local SSDs, and a
// Stampede-like cluster whose compute nodes are effectively diskless and
// lean entirely on Lustre.
package cluster

import (
	"fmt"
	"time"

	"hbb/internal/netsim"
	"hbb/internal/sim"
	"hbb/internal/storage"
)

// HardwareSpec describes one compute node's local resources.
type HardwareSpec struct {
	// RAMDiskCapacity is the tmpfs budget usable for data (bytes; 0 = none).
	RAMDiskCapacity int64
	// SSDCapacity is the local SSD size (0 = no SSD). SSDCount > 1 models
	// multiple SSDs striped RAID-0 into one volume of SSDCapacity total.
	SSDCapacity int64
	SSDCount    int
	// HDDCapacity is the local spinning-disk size (0 = no HDD).
	HDDCapacity int64
	// MapSlots and ReduceSlots bound concurrent tasks per node.
	MapSlots    int
	ReduceSlots int
	// ComputeRate is the per-slot processing rate applied to task CPU
	// work, in bytes/sec of input processed at cost factor 1.0.
	ComputeRate float64
}

// Config describes the compute cluster.
type Config struct {
	Nodes     int
	RacksOf   int // nodes per rack; 0 means one big rack
	Transport netsim.Profile
	// Legacy installs a secondary socket transport on the fabric (e.g.
	// IPoIB) used by stock-Hadoop traffic while RDMA-native services use
	// Transport. Nil means all traffic shares Transport.
	Legacy   *netsim.Profile
	Hardware HardwareSpec
	Seed     int64
}

// Validate reports whether the configuration describes a buildable
// cluster. New panics on a bad node count; callers that build the config
// from user settings (hbb.New) validate first and return the error.
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

// Node is one simulated compute node.
type Node struct {
	ID   netsim.NodeID
	Rack int
	// Local devices; nil when the hardware spec omits them.
	RAMDisk *storage.Device
	SSD     *storage.Device
	HDD     *storage.Device

	// MapSlots and ReduceSlots gate task execution.
	MapSlots    *sim.Semaphore
	ReduceSlots *sim.Semaphore

	computeRate float64
}

// LocalDevices returns the node's devices in write-preference order
// (fastest first).
func (n *Node) LocalDevices() []*storage.Device {
	var out []*storage.Device
	for _, d := range []*storage.Device{n.RAMDisk, n.SSD, n.HDD} {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// LocalCapacity returns the total local storage capacity in bytes.
func (n *Node) LocalCapacity() int64 {
	var total int64
	for _, d := range n.LocalDevices() {
		total += d.Capacity()
	}
	return total
}

// LocalUsed returns the bytes allocated across local devices.
func (n *Node) LocalUsed() int64 {
	var total int64
	for _, d := range n.LocalDevices() {
		total += d.Used()
	}
	return total
}

// Compute charges CPU time for processing n bytes at the given cost factor
// (1.0 = the hardware's base rate; heavier functions use >1).
func (n *Node) Compute(p *sim.Proc, bytes int64, costFactor float64) {
	if bytes <= 0 || costFactor <= 0 {
		return
	}
	secs := float64(bytes) * costFactor / n.computeRate
	p.Sleep(time.Duration(secs * 1e9))
}

// Cluster is the simulated testbed.
type Cluster struct {
	Env   *sim.Env
	Net   *netsim.Network
	Nodes []*Node
	cfg   Config
	// nextJob numbers concurrently submitted jobs so their names (spawn
	// labels, output dirs) stay unique and deterministic.
	nextJob int
}

// New builds a cluster. The fabric contains exactly the compute nodes;
// services that need their own hosts (Lustre servers, NameNode, burst
// buffer servers) add fabric nodes afterwards via Net.AddNode.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: node count must be positive")
	}
	if cfg.Hardware.MapSlots <= 0 {
		cfg.Hardware.MapSlots = 4
	}
	if cfg.Hardware.ReduceSlots <= 0 {
		cfg.Hardware.ReduceSlots = 2
	}
	if cfg.Hardware.ComputeRate <= 0 {
		cfg.Hardware.ComputeRate = 400e6
	}
	racksOf := cfg.RacksOf
	if racksOf <= 0 {
		racksOf = cfg.Nodes
	}
	env := sim.New(cfg.Seed)
	nw := netsim.New(env, cfg.Transport, 0)
	if cfg.Legacy != nil {
		nw.SetLegacy(*cfg.Legacy)
	}
	for i := 0; i < cfg.Nodes; i++ {
		nw.AddNode()
	}
	c := &Cluster{Env: env, Net: nw, cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:          netsim.NodeID(i),
			Rack:        i / racksOf,
			MapSlots:    sim.NewSemaphore(cfg.Hardware.MapSlots),
			ReduceSlots: sim.NewSemaphore(cfg.Hardware.ReduceSlots),
			computeRate: cfg.Hardware.ComputeRate,
		}
		if cap := cfg.Hardware.RAMDiskCapacity; cap > 0 {
			n.RAMDisk = storage.NewDevice(fmt.Sprintf("node%d.ramdisk", i), storage.RAMDiskProfile(cap))
		}
		if cap := cfg.Hardware.SSDCapacity; cap > 0 {
			prof := storage.RAID0(storage.SSDProfile(cap), cfg.Hardware.SSDCount)
			n.SSD = storage.NewDevice(fmt.Sprintf("node%d.ssd", i), prof)
		}
		if cap := cfg.Hardware.HDDCapacity; cap > 0 {
			n.HDD = storage.NewDevice(fmt.Sprintf("node%d.hdd", i), storage.HDDProfile(cap))
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NextJobID returns a monotonically increasing job number. Concurrent-job
// harnesses (mapreduce.Submit) draw from it so every job gets a unique,
// deterministic identity regardless of submission interleaving.
func (c *Cluster) NextJobID() int {
	c.nextJob++
	return c.nextJob
}

// Node returns the node with the given fabric ID, or nil for non-compute
// fabric nodes (service hosts).
func (c *Cluster) Node(id netsim.NodeID) *Node {
	if int(id) < 0 || int(id) >= len(c.Nodes) {
		return nil
	}
	return c.Nodes[id]
}

// GiB is a convenience constant for capacity arithmetic.
const GiB = int64(1) << 30

// HPCLocalHardware mirrors an OSU-RI-like node: modest RAM disk, a local
// SSD, and a larger HDD — the "HDFS is deployable but storage-hungry"
// shape.
func HPCLocalHardware() HardwareSpec {
	return HardwareSpec{
		RAMDiskCapacity: 12 * GiB,
		SSDCapacity:     320 * GiB,
		SSDCount:        2, // two SATA SSDs, RAID-0
		HDDCapacity:     1000 * GiB,
		MapSlots:        4,
		ReduceSlots:     2,
		ComputeRate:     400e6,
	}
}

// DisklessHardware mirrors a Stampede-like compute node: RAM disk only, no
// local persistent storage — the shape that makes stock HDFS undeployable
// and motivates the burst buffer.
func DisklessHardware() HardwareSpec {
	return HardwareSpec{
		RAMDiskCapacity: 12 * GiB,
		MapSlots:        4,
		ReduceSlots:     2,
		ComputeRate:     400e6,
	}
}
