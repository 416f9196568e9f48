package hbb

// Fleet mode: the datacenter-scale counterpart of Testbed. Where Testbed
// instantiates every backend of the study over a packet-accurate fabric,
// a FleetBed builds only what a 10,000-node scaling sweep needs —
// memory-lean flow-only nodes on a rack-sharded DES kernel — and runs
// synthetic I/O workloads whose traffic shapes mirror the study's
// (DFSIO-style replicated writes, mixed pipeline/buffer/stripe/shuffle
// stress). Results carry the scaling figures the single-heap testbed
// cannot produce: wall-clock at 10k nodes, events per operation, and
// MB-of-heap per node.

import (
	"fmt"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/metrics"
	"hbb/internal/sim"
	"hbb/internal/swarm"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FleetBed is a fleet-mode testbed. It is single-shot: build, load one
// workload, read the result.
type FleetBed struct {
	opts    Options
	fc      *cluster.FleetCluster
	base    metrics.HeapSnapshot
	metrics *metrics.Registry
	ran     bool
}

// NewFleet builds a fleet testbed from the same Options vocabulary as
// New: Nodes and RacksOf shape the topology (Nodes must divide evenly
// into racks), Transport picks the NIC profile, SimShards partitions the
// racks across DES event heaps. Backend knobs (block size, buffer
// sizing) are ignored — fleet workloads model traffic, not file systems.
func NewFleet(opts Options) (*FleetBed, error) {
	opts = opts.withDefaults()
	if opts.SimShards == 0 {
		opts.SimShards = 1
	}
	prof, err := opts.Transport.profile()
	if err != nil {
		return nil, err
	}
	racksOf := opts.RacksOf
	if racksOf > opts.Nodes {
		racksOf = opts.Nodes
	}
	if opts.Nodes <= 0 || racksOf <= 0 || opts.Nodes%racksOf != 0 {
		return nil, fmt.Errorf("hbb: fleet mode needs Nodes (%d) to fill whole racks of %d", opts.Nodes, racksOf)
	}
	if opts.Swarm.Enabled() {
		// Fail fast on bad swarm knobs rather than at RunSwarm time.
		if err := opts.Swarm.config(opts.Seed).Validate(); err != nil {
			return nil, err
		}
	}
	base := metrics.SnapHeap()
	fc, err := cluster.NewFleet(cluster.FleetConfig{
		Racks:        opts.Nodes / racksOf,
		NodesPerRack: racksOf,
		Transport:    prof,
		Shards:       opts.SimShards,
		Seed:         opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &FleetBed{opts: opts, fc: fc, base: base}, nil
}

// Cluster returns the underlying fleet cluster.
func (fb *FleetBed) Cluster() *cluster.FleetCluster { return fb.fc }

// SetWorkers bounds how many shards execute concurrently inside each
// synchronization window. Any value produces the identical event trace.
func (fb *FleetBed) SetWorkers(n int) { fb.fc.Fleet.Group().SetWorkers(n) }

// SetAdaptiveSync toggles the kernel's adaptive lookahead (on by
// default). Both settings produce the identical event trace; off forces
// the classic fixed-horizon windows, for A/B measurements.
func (fb *FleetBed) SetAdaptiveSync(on bool) { fb.fc.Fleet.Group().SetAdaptive(on) }

// SwarmOptions configures the open-loop client swarm a fleet run can
// carry (Options.Swarm). Clients > 0 enables it; the remaining fields
// mirror swarm.Config and zero values take its defaults.
type SwarmOptions struct {
	// Clients is the swarm population (0 leaves the swarm off).
	Clients int
	// TargetQPS is the aggregate offered request rate; mandatory when
	// the swarm is enabled.
	TargetQPS float64
	// Zipf is the key-popularity skew exponent (> 1), or 0 for uniform.
	Zipf float64
	// Keys, RequestBytes, Duration, FixedRate pass through to
	// swarm.Config.
	Keys         int
	RequestBytes int64
	Duration     time.Duration
	FixedRate    bool
	// MaxInflight, when positive, sheds arrivals while a rack's
	// outstanding-request count is at the bound (swarm.Config.MaxInflight),
	// keeping open-loop overload runs bounded.
	MaxInflight int64
}

// Enabled reports whether any swarm option is set.
func (s SwarmOptions) Enabled() bool { return s != SwarmOptions{} }

// config lowers the options onto swarm.Config.
func (s SwarmOptions) config(seed int64) swarm.Config {
	return swarm.Config{
		Clients:      s.Clients,
		TargetQPS:    s.TargetQPS,
		Zipf:         s.Zipf,
		Keys:         s.Keys,
		RequestBytes: s.RequestBytes,
		Duration:     s.Duration,
		FixedRate:    s.FixedRate,
		MaxInflight:  s.MaxInflight,
		Seed:         seed,
	}
}

// SwarmResult extends a fleet measurement with the swarm's figures.
type SwarmResult struct {
	FleetResult
	// Clients is the swarm population; Requests the open-loop arrivals
	// it generated; Completed the requests whose payload fully landed;
	// Shed the requests dropped at the MaxInflight admission cap.
	Clients   int
	Requests  int64
	Completed int64
	Shed      int64
	// AchievedQPS is Requests over the generation horizon.
	AchievedQPS float64
	// EventsPerRequest is kernel events per generated request — the
	// batching payoff (per-client events would put it in the tens).
	EventsPerRequest float64
	// HeapBPerClient is the retained-heap footprint per client in bytes.
	HeapBPerClient float64
	// MaxInflight is the peak outstanding-request count on any rack.
	MaxInflight int64
}

// FleetResult is one fleet workload's measurement.
type FleetResult struct {
	Nodes  int
	Racks  int
	Shards int
	// Ops is the workload's operation count (files written, stress ops).
	Ops int
	// Bytes is the payload volume moved, replicas included.
	Bytes int64
	// Elapsed is the workload's virtual duration; Wall is the host time
	// the run took.
	Elapsed time.Duration
	Wall    time.Duration
	// Events, Windows, Messages are kernel totals: events dispatched,
	// synchronization windows run, cross-shard messages delivered.
	Events   int64
	Windows  int64
	Messages int64
	// EventsPerOp is Events/Ops, the simulator-efficiency figure.
	EventsPerOp float64
	// HeapMBPerNode is the retained-heap footprint per node.
	HeapMBPerNode float64
	// Fingerprint folds every operation completion (virtual time, node,
	// op index) per rack, combined in rack order — identical across shard
	// and worker counts.
	Fingerprint uint64
}

// fleetHash accumulates per-rack trace hashes; each slot is touched only
// by its rack's owning shard, so no locking is needed.
type fleetHash struct {
	hashes []uint64
	bytes  []int64
}

func newFleetHash(racks int) *fleetHash {
	fh := &fleetHash{hashes: make([]uint64, racks), bytes: make([]int64, racks)}
	for i := range fh.hashes {
		fh.hashes[i] = fnvOffset
	}
	return fh
}

func (fh *fleetHash) fold(rack int, vs ...uint64) {
	h := fh.hashes[rack]
	for _, v := range vs {
		h ^= v
		h *= fnvPrime
	}
	fh.hashes[rack] = h
}

// run drives the fleet to completion and assembles the result.
func (fb *FleetBed) run(fh *fleetHash, ops int) FleetResult {
	if fb.ran {
		panic("hbb: FleetBed workloads are single-shot; build a new fleet")
	}
	fb.ran = true
	start := time.Now()
	end := fb.fc.Run()
	wall := time.Since(start)
	topo := fb.fc.Fleet.Topology()
	g := fb.fc.Fleet.Group()
	h := uint64(fnvOffset)
	var bytes int64
	for r := 0; r < topo.Racks; r++ {
		h ^= fh.hashes[r]
		h *= fnvPrime
		bytes += fh.bytes[r]
	}
	h ^= uint64(end)
	h *= fnvPrime
	res := FleetResult{
		Nodes:       fb.fc.Nodes(),
		Racks:       topo.Racks,
		Shards:      topo.Shards,
		Ops:         ops,
		Bytes:       bytes,
		Elapsed:     end,
		Wall:        wall,
		Events:      g.Events(),
		Windows:     g.Windows(),
		Messages:    g.Messages(),
		Fingerprint: h,
	}
	if ops > 0 {
		res.EventsPerOp = float64(res.Events) / float64(ops)
	}
	res.HeapMBPerNode = metrics.SnapHeap().DeltaMBPerNode(fb.base, res.Nodes)
	fb.fillFleetMetrics()
	return res
}

// DFSIOWrite runs the fleet-scale analogue of the TestDFSIO write phase:
// every node writes filesPerNode files of fileSize bytes, each stored
// twice — once on the next node in the rack, once on a node in another
// rack — mirroring HDFS's rack-aware replica placement. Destination
// choice is arithmetic in (node, file), so the trace is identical for
// any shard or worker count.
func (fb *FleetBed) DFSIOWrite(filesPerNode int, fileSize int64) FleetResult {
	fl := fb.fc.Fleet
	topo := fl.Topology()
	racks, per := topo.Racks, topo.NodesPerRack
	nodes := racks * per
	fh := newFleetHash(racks)
	for node := 0; node < nodes; node++ {
		node := node
		rack := node / per
		fl.Env(node).Spawn(fmt.Sprintf("dfsio%d", node), func(p *sim.Proc) {
			// Stagger starts so a 10k-node fleet does not funnel every
			// first flow transition into one solver instant.
			p.Sleep(time.Duration(node%per) * 50 * time.Microsecond)
			for f := 0; f < filesPerNode; f++ {
				if per > 1 {
					primary := rack*per + (node%per+1)%per
					if err := fl.Transfer(p, node, primary, fileSize); err != nil {
						panic(err)
					}
					fh.bytes[rack] += fileSize
				}
				if racks > 1 {
					dstRack := (rack + 1 + (node*31+f*17)%(racks-1)) % racks
					secondary := dstRack*per + (node+f)%per
					if err := fl.Transfer(p, node, secondary, fileSize); err != nil {
						panic(err)
					}
					fh.bytes[rack] += fileSize
				}
				fh.fold(rack, uint64(p.Now()), uint64(node), uint64(f))
			}
		})
	}
	return fb.run(fh, nodes*filesPerNode)
}

// RunSwarm drives the Options.Swarm open-loop client population over
// the fleet: arrivals generate zipfian-addressed request payloads,
// batched per (tick, destination rack) into flow injections, until the
// configured duration of virtual time; in-flight transfers then drain.
// The returned result carries both the fleet kernel figures and the
// swarm's: achieved QPS, events per request, and heap bytes per client.
func (fb *FleetBed) RunSwarm() (SwarmResult, error) {
	if !fb.opts.Swarm.Enabled() {
		return SwarmResult{}, fmt.Errorf("hbb: RunSwarm without Options.Swarm configured")
	}
	sw, err := swarm.New(fb.opts.Swarm.config(fb.opts.Seed), fb.fc.Fleet)
	if err != nil {
		return SwarmResult{}, err
	}
	if fb.ran {
		panic("hbb: FleetBed workloads are single-shot; build a new fleet")
	}
	fb.ran = true
	sw.Start()
	start := time.Now()
	end := fb.fc.Run()
	wall := time.Since(start)
	st := sw.Stats()
	topo := fb.fc.Fleet.Topology()
	g := fb.fc.Fleet.Group()
	h := sw.Fingerprint()
	h ^= uint64(end)
	h *= fnvPrime
	res := SwarmResult{
		FleetResult: FleetResult{
			Nodes:       fb.fc.Nodes(),
			Racks:       topo.Racks,
			Shards:      topo.Shards,
			Ops:         int(st.Arrivals),
			Bytes:       st.BytesSent,
			Elapsed:     end,
			Wall:        wall,
			Events:      g.Events(),
			Windows:     g.Windows(),
			Messages:    g.Messages(),
			Fingerprint: h,
		},
		Clients:     st.Clients,
		Requests:    st.Arrivals,
		Completed:   st.Completed,
		Shed:        st.Shed,
		AchievedQPS: st.AchievedQPS,
		MaxInflight: st.MaxInflight,
	}
	if st.Arrivals > 0 {
		res.EventsPerOp = float64(res.Events) / float64(st.Arrivals)
		res.EventsPerRequest = res.EventsPerOp
	}
	heap := metrics.SnapHeap()
	res.HeapMBPerNode = heap.DeltaMBPerNode(fb.base, res.Nodes)
	res.HeapBPerClient = heap.DeltaMBPerNode(fb.base, st.Clients) * 1e6
	sw.FillMetrics(fb.reg())
	fb.fillFleetMetrics()
	return res, nil
}

// fillFleetMetrics publishes the fleet's solver-work counters under the
// fleet.* namespace: solver invocations and the links they water-filled.
// fleet.links.touched / fleet.resolves is the O(affected) figure tests
// assert on — constant-bounded for link-disjoint workloads no matter how
// many flows are active.
func (fb *FleetBed) fillFleetMetrics() {
	st := fb.fc.Fleet.Stats()
	reg := fb.reg()
	reg.Counter("fleet.flows").Add(st.Flows)
	reg.Counter("fleet.resolves").Add(st.Resolves)
	reg.Counter("fleet.links.touched").Add(st.LinksTouched)
}

// Metrics returns the fleet bed's registry: every workload fills the
// fleet.* solver-work counters, and RunSwarm adds the swarm.* namespace.
func (fb *FleetBed) Metrics() *metrics.Registry { return fb.reg() }

func (fb *FleetBed) reg() *metrics.Registry {
	if fb.metrics == nil {
		fb.metrics = metrics.NewRegistry()
	}
	return fb.metrics
}

// Stress runs a kitchen-sink traffic mix spanning racks: HDFS-style
// two-hop pipeline writes, burst-buffer puts (small metadata message
// plus payload to a rack-0 "server"), Lustre-style stripe fans to four
// rack-0 nodes, and small shuffle exchanges. Every fourth op per node
// takes the next class, all destinations arithmetic in (node, op), so
// the full event trace fingerprints identically at any shard and worker
// count — the cross-shard determinism stress.
func (fb *FleetBed) Stress(opsPerNode int) FleetResult {
	fl := fb.fc.Fleet
	topo := fl.Topology()
	racks, per := topo.Racks, topo.NodesPerRack
	nodes := racks * per
	fh := newFleetHash(racks)
	xfer := func(p *sim.Proc, rack, src, dst int, n int64) {
		if src == dst {
			return
		}
		if err := fl.Transfer(p, src, dst, n); err != nil {
			panic(err)
		}
		fh.bytes[rack] += n
	}
	for node := 0; node < nodes; node++ {
		node := node
		rack := node / per
		slot := node % per
		fl.Env(node).Spawn(fmt.Sprintf("stress%d", node), func(p *sim.Proc) {
			p.Sleep(time.Duration(node%11) * 7 * time.Microsecond)
			for op := 0; op < opsPerNode; op++ {
				switch op % 4 {
				case 0: // HDFS pipeline: neighbor hop, then cross-rack hop
					mid := rack*per + (slot+1)%per
					dstRack := (rack + 1 + (node+op)%maxInt(racks-1, 1)) % racks
					dst := dstRack*per + (slot+op)%per
					xfer(p, rack, node, mid, 4<<20)
					// The relay leaves from mid, which shares the source
					// rack's shard, so this process may drive it.
					xfer(p, rack, mid, dst, 4<<20)
				case 1: // burst-buffer put: metadata then payload to rack 0
					server := (node + op) % per // rack 0, any slot
					xfer(p, rack, node, server, 64<<10)
					xfer(p, rack, node, server, 8<<20)
				case 2: // Lustre stripe fan to four rack-0 "OSTs"
					for s := 0; s < 4; s++ {
						ost := (node + op + s*3) % per
						xfer(p, rack, node, ost, 1<<20)
					}
				case 3: // shuffle: three small cross-cluster exchanges
					for s := 0; s < 3; s++ {
						dst := (node*13 + op*7 + s*29 + 1) % nodes
						xfer(p, rack, node, dst, 256<<10)
					}
				}
				fh.fold(rack, uint64(p.Now()), uint64(node), uint64(op))
			}
		})
	}
	return fb.run(fh, nodes*opsPerNode)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
