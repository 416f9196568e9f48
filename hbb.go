// Package hbb is a simulation-backed reproduction of "Accelerating I/O
// Performance of Big Data Analytics on HPC Clusters through RDMA-Based
// Key-Value Store" (Islam et al., ICPP 2015): an RDMA-Memcached burst
// buffer integrating HDFS with Lustre under four schemes — the paper's
// three plus an adaptive traffic-detecting one — with the full substrate
// stack — a deterministic discrete-event kernel, an InfiniBand-class
// fabric model, HDFS, Lustre, a real memcached engine, and a MapReduce
// engine — plus the benchmark harness that regenerates every figure and
// table of the evaluation.
//
// The public entry point is a Testbed: a simulated HPC cluster with the
// storage backends of the study attached. Drive it with Run, whose
// callback executes on the virtual clock:
//
//	tb, _ := hbb.New(hbb.Options{Nodes: 8})
//	tb.Run(func(ctx *hbb.Ctx) {
//	    rep, _ := ctx.DFSIOWrite(hbb.BackendBBAsync, "/bench", 8, 1<<30)
//	    fmt.Printf("%.0f MB/s\n", rep.AggregateMBps())
//	})
package hbb

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/core"
	"hbb/internal/dfs"
	"hbb/internal/hdfs"
	"hbb/internal/lustre"
	"hbb/internal/mapreduce"
	"hbb/internal/metrics"
	"hbb/internal/netsim"
	"hbb/internal/orchestrator"
	"hbb/internal/sim"
	"hbb/internal/workloads"
)

// Backend identifies a storage configuration under test. Backends live in
// a fixed name-keyed registry (see ParseBackend); the Backend value is an
// index into it.
type Backend int

// The built-in backends: the two baselines, the paper's three burst-buffer
// schemes, and the traffic-detecting adaptive scheme.
const (
	// BackendHDFS is stock HDFS with 3-way replication on node-local
	// storage (the paper's first baseline).
	BackendHDFS Backend = iota
	// BackendLustre is direct Hadoop-over-Lustre (the second baseline).
	BackendLustre
	// BackendBBAsync is the burst buffer with asynchronous Lustre flush
	// (design axis: raw I/O performance).
	BackendBBAsync
	// BackendBBLocality is the burst buffer plus one node-local replica
	// (design axis: data-locality).
	BackendBBLocality
	// BackendBBSync is the write-through burst buffer (design axis:
	// fault-tolerance).
	BackendBBSync
	// BackendBBAdaptive is the traffic-detecting burst buffer (after Shi
	// et al.): write-through while write traffic is light, degrading to
	// asynchronous flushing under burst.
	BackendBBAdaptive
)

// backendKind selects the file-system family a backend resolves to.
type backendKind int

const (
	kindHDFS backendKind = iota
	kindLustre
	kindBurstBuffer
)

// backendDef is one registry entry; Backend values index this table. A
// burst-buffer backend's name is its core.Config.Policy scheme name.
type backendDef struct {
	name string
	kind backendKind
}

var backendDefs = []backendDef{
	{name: "hdfs", kind: kindHDFS},
	{name: "lustre", kind: kindLustre},
	{name: "bb-async", kind: kindBurstBuffer},
	{name: "bb-locality", kind: kindBurstBuffer},
	{name: "bb-sync", kind: kindBurstBuffer},
	{name: "bb-adaptive", kind: kindBurstBuffer},
}

// AllBackends lists every backend in comparison order.
var AllBackends = []Backend{BackendHDFS, BackendLustre, BackendBBAsync, BackendBBLocality, BackendBBSync, BackendBBAdaptive}

// BackendNames lists the backend names in registry order.
func BackendNames() []string {
	names := make([]string, len(backendDefs))
	for i, d := range backendDefs {
		names[i] = d.name
	}
	return names
}

// ParseBackend resolves a backend by its report label, erroring with the
// registered names on an unknown one.
func ParseBackend(name string) (Backend, error) {
	for i, d := range backendDefs {
		if d.name == name {
			return Backend(i), nil
		}
	}
	return 0, fmt.Errorf("hbb: unknown backend %q (registered: %s)", name, strings.Join(BackendNames(), ", "))
}

// String returns the backend's report label.
func (b Backend) String() string {
	if b >= 0 && int(b) < len(backendDefs) {
		return backendDefs[b].name
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Transport selects the fabric profile.
type Transport string

// Supported transports.
const (
	TransportRDMA   Transport = "rdma"
	TransportIPoIB  Transport = "ipoib"
	Transport10GigE Transport = "10gige"
	Transport1GigE  Transport = "1gige"
)

func (t Transport) profile() (netsim.Profile, error) {
	switch t {
	case "", TransportRDMA:
		return netsim.RDMA, nil
	case TransportIPoIB:
		return netsim.IPoIB, nil
	case Transport10GigE:
		return netsim.TenGigE, nil
	case Transport1GigE:
		return netsim.GigE, nil
	default:
		return netsim.Profile{}, fmt.Errorf("hbb: unknown transport %q", t)
	}
}

// Hardware selects the compute-node profile.
type Hardware string

// Supported hardware profiles.
const (
	// HardwareHPCLocal mirrors an OSU-RI-like node (RAM disk + SSD + HDD).
	HardwareHPCLocal Hardware = "hpc-local"
	// HardwareDiskless mirrors a Stampede-like node (RAM disk only).
	HardwareDiskless Hardware = "diskless"
)

func (h Hardware) spec() (cluster.HardwareSpec, error) {
	switch h {
	case "", HardwareHPCLocal:
		return cluster.HPCLocalHardware(), nil
	case HardwareDiskless:
		return cluster.DisklessHardware(), nil
	default:
		return cluster.HardwareSpec{}, fmt.Errorf("hbb: unknown hardware %q", h)
	}
}

// Options configures a testbed. Zero values select the defaults used
// throughout the evaluation (8 nodes, RDMA fabric, HPC-local hardware).
type Options struct {
	// Nodes is the compute-node count. Zero defaults to 8.
	Nodes int
	// RacksOf groups nodes into racks. Zero means 16 per rack.
	RacksOf int
	// Transport picks the fabric. When it is RDMA, stock-Hadoop traffic
	// (HDFS pipelines, NameNode RPCs, the MapReduce shuffle) runs over an
	// IPoIB legacy path on the same fabric — sockets cannot use verbs —
	// while the burst buffer and Lustre use native RDMA, as in the paper's
	// deployments.
	Transport Transport
	// Hardware picks the node profile.
	Hardware Hardware
	// Seed fixes the simulation's random stream.
	Seed int64
	// BlockSize is the file block size for HDFS (3 replicas per block)
	// and the burst buffer. Zero defaults to 128 MiB.
	BlockSize int64
	// LustreOSTs and LustreStripeCount size the parallel FS. Zero
	// defaults to 8 OSTs, stripe 4.
	LustreOSTs        int
	LustreStripeCount int
	// BBServers, BBServerMemory, and BBFlushers size the burst buffer.
	// Zeros default to 4 servers × 16 GiB × 4 flushers.
	BBServers      int
	BBServerMemory int64
	BBFlushers     int
	// BBReplicas stores each block on this many buffer servers (default
	// 1); with 2+ a server crash promotes a surviving replica instead of
	// opening a loss window.
	BBReplicas int
	// BBReadmitOnRead re-admits Lustre-read blocks into the buffer as
	// clean cache fills.
	BBReadmitOnRead bool
	// BBFlushBatchBlocks caps the stage-out run length: the flush
	// scheduler drains runs of up to this many adjacent dirty blocks of a
	// file to Lustre as one object (one Create + one metadata round-trip
	// per run). Zero or 1 (the default) flushes one block per object.
	BBFlushBatchBlocks int
	// BBReadAhead prefetches this many whole blocks ahead of a streaming
	// reader (source choice + fetch overlap with delivery). Zero disables.
	BBReadAhead int
	// BBBrickGiB is the burst-buffer pool's capacity granule in GiB:
	// buffer instances and orchestrated multi-job allocations are granted
	// whole bricks per server (ServerMemory/brick bricks each). It does
	// not affect the default single-tenant path. Zero defaults to 1 GiB.
	BBBrickGiB int
	// BBSched selects the buffer orchestrator's queue discipline: "fcfs"
	// (default; strict arrival order) or "backfill" (later requests that
	// fit may jump a blocked queue head).
	BBSched string
	// ChunkSize sets the streaming granularity: the HDFS packet size (a
	// pipeline segment is a window of 8 packets), the burst buffer's KV
	// item size and the Lustre stripe size. Each unit crosses the fabric
	// as one flow transfer and books its device with one flat
	// reservation. Zero defaults to 1 MiB; large experiments raise it to
	// 4–8 MiB to cut event counts.
	ChunkSize int64
	// FleetMode marks options meant for NewFleet's datacenter-scale
	// flow-only testbed. Nothing reads it: NewFleet and New select the
	// testbed. It stays because the benchmark harness sets it.
	FleetMode bool
	// SimShards partitions a fleet's racks across this many DES event
	// heaps, advanced in conservative lookahead windows on multiple
	// cores. Any value yields the identical event trace; more shards buy
	// wall-clock speed on multi-core hosts. Zero defaults to 1 (a single
	// heap, the reference trace). Ignored outside fleet mode.
	SimShards int
	// Swarm attaches an open-loop client swarm to a fleet run: millions
	// of clients as compact records generating target-QPS zipfian load
	// (see FleetBed.RunSwarm). Requires FleetMode; the zero value leaves
	// swarm load off.
	Swarm SwarmOptions
	// Trace, when non-nil, logs every file-system operation of every
	// backend (virtual timestamp, duration, node, op, outcome) to the
	// writer — a debugging aid for workload authors.
	Trace io.Writer
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.RacksOf == 0 {
		o.RacksOf = 16
	}
	if o.BlockSize == 0 {
		o.BlockSize = 128 << 20
	}
	if o.LustreOSTs == 0 {
		o.LustreOSTs = 8
	}
	if o.LustreStripeCount == 0 {
		o.LustreStripeCount = 4
	}
	if o.BBServers == 0 {
		o.BBServers = 4
	}
	if o.BBServerMemory == 0 {
		o.BBServerMemory = 16 << 30
	}
	if o.BBFlushers == 0 {
		o.BBFlushers = 4
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = 1 << 20
	}
	return o
}

// Testbed is a simulated cluster with every backend of the study attached.
type Testbed struct {
	opts    Options
	cluster *cluster.Cluster
	lustre  *lustre.Lustre
	hdfs    *hdfs.HDFS
	bb      map[Backend]*core.BurstFS
	orch    map[Backend]*orchestrator.Scheduler
	traced  map[Backend]dfs.FileSystem
	ran     bool
}

// New builds a testbed. Every backend is instantiated over one shared
// cluster and fabric: HDFS datanodes on the compute nodes, the Lustre
// servers and burst-buffer servers on dedicated fabric nodes. Settings
// no backend can be built from are an error.
func New(opts Options) (*Testbed, error) {
	opts = opts.withDefaults()
	prof, err := opts.Transport.profile()
	if err != nil {
		return nil, err
	}
	hw, err := opts.Hardware.spec()
	if err != nil {
		return nil, err
	}
	if _, err := orchestrator.ParseSchedPolicy(opts.BBSched); err != nil {
		return nil, err
	}
	if opts.Swarm.Enabled() {
		return nil, fmt.Errorf("hbb: swarm load requires FleetMode (build with NewFleet, or bbrun -fleet -swarm)")
	}
	lcfg := lustre.Config{
		OSTs:        opts.LustreOSTs,
		StripeCount: opts.LustreStripeCount,
		StripeSize:  opts.ChunkSize,
	}
	if err := lcfg.Validate(); err != nil {
		return nil, err
	}
	bbcfg := func(policy string) core.Config {
		return core.Config{
			Policy:           policy,
			Servers:          opts.BBServers,
			ServerMemory:     opts.BBServerMemory,
			BlockSize:        opts.BlockSize,
			ItemChunk:        opts.ChunkSize,
			Flushers:         opts.BBFlushers,
			BufferReplicas:   opts.BBReplicas,
			ReadmitOnRead:    opts.BBReadmitOnRead,
			FlushBatchBlocks: opts.BBFlushBatchBlocks,
			ReadAhead:        opts.BBReadAhead,
			BrickSize:        int64(opts.BBBrickGiB) << 30,
		}
	}
	if err := bbcfg("").Validate(); err != nil {
		return nil, err
	}
	var legacy *netsim.Profile
	if prof.OneSided {
		ipoib := netsim.IPoIB
		legacy = &ipoib
	}
	ccfg := cluster.Config{
		Nodes:     opts.Nodes,
		RacksOf:   opts.RacksOf,
		Transport: prof,
		Legacy:    legacy,
		Hardware:  hw,
		Seed:      opts.Seed,
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	cl := cluster.New(ccfg)
	tb := &Testbed{
		opts:    opts,
		cluster: cl,
		bb:      make(map[Backend]*core.BurstFS),
		orch:    make(map[Backend]*orchestrator.Scheduler),
	}
	tb.lustre = lustre.New(cl, lcfg)
	tb.hdfs, err = hdfs.New(cl, hdfs.Config{
		BlockSize:  opts.BlockSize,
		PacketSize: opts.ChunkSize,
	})
	if err != nil {
		return nil, err
	}
	// Registry order is fixed: fabric node IDs and spawn order must not
	// depend on map iteration, or runs would stop being reproducible.
	for i, d := range backendDefs {
		if d.kind == kindBurstBuffer {
			tb.bb[Backend(i)] = core.New(cl, tb.lustre, bbcfg(d.name))
		}
	}
	tb.traced = make(map[Backend]dfs.FileSystem)
	if opts.Trace != nil {
		for _, b := range AllBackends {
			tb.traced[b] = dfs.Traced(tb.rawFS(b), opts.Trace)
		}
	}
	return tb, nil
}

// Options returns the effective options.
func (tb *Testbed) Options() Options { return tb.opts }

// fs resolves a backend to its file system (trace-wrapped when enabled).
func (tb *Testbed) fs(b Backend) dfs.FileSystem {
	if wrapped, ok := tb.traced[b]; ok {
		return wrapped
	}
	return tb.rawFS(b)
}

func (tb *Testbed) rawFS(b Backend) dfs.FileSystem {
	switch backendDefs[b].kind {
	case kindHDFS:
		return tb.hdfs
	case kindLustre:
		return tb.lustre
	default:
		return tb.bb[b].DefaultInstance()
	}
}

// Run starts all services, executes fn as the driver process on the
// virtual clock, shuts the services down, and drains the simulation. It
// returns the total virtual time. A testbed can be run once.
func (tb *Testbed) Run(fn func(ctx *Ctx)) time.Duration {
	if tb.ran {
		panic("hbb: Testbed.Run called twice; build a fresh testbed per run")
	}
	tb.ran = true
	tb.hdfs.Start()
	for _, b := range AllBackends {
		if fs, ok := tb.bb[b]; ok {
			fs.Start()
		}
	}
	tb.cluster.Env.Spawn("hbb.driver", func(p *sim.Proc) {
		defer func() {
			tb.hdfs.Shutdown()
			for _, b := range AllBackends {
				if fs, ok := tb.bb[b]; ok {
					fs.Shutdown()
				}
			}
		}()
		fn(&Ctx{tb: tb, p: p})
	})
	return tb.cluster.Env.Run()
}

// Deadlocked reports processes left blocked after Run (test hook; a clean
// run reports none).
func (tb *Testbed) Deadlocked() []string { return tb.cluster.Env.Deadlocked() }

// HDFSStats returns the HDFS data-plane counters.
func (tb *Testbed) HDFSStats() hdfs.Stats { return tb.hdfs.Stats() }

// LustreStats returns the Lustre data-plane counters.
func (tb *Testbed) LustreStats() lustre.Stats { return tb.lustre.Stats() }

// BurstBufferStats returns a burst-buffer backend's counters.
func (tb *Testbed) BurstBufferStats(b Backend) (core.Stats, bool) {
	fs, ok := tb.bb[b]
	if !ok {
		return core.Stats{}, false
	}
	return fs.DefaultInstance().Stats(), true
}

// BurstBufferMetrics returns a burst-buffer backend's metrics registry
// (flush-latency and writer-stall histograms, read-source counters and
// bb-adaptive's write-through/async block counts).
func (tb *Testbed) BurstBufferMetrics(b Backend) (*metrics.Registry, bool) {
	fs, ok := tb.bb[b]
	if !ok {
		return nil, false
	}
	return fs.Metrics(), true
}

// BufferOrchestrator returns (creating on first use) the capacity
// scheduler that hands out buffer instances from a burst-buffer backend's
// brick inventory, with the queue discipline Options.BBSched selects.
// Multi-job experiments submit orchestrator.Requests to it and run each
// job against the granted allocation's instance file system.
func (tb *Testbed) BufferOrchestrator(b Backend) (*orchestrator.Scheduler, error) {
	fs, ok := tb.bb[b]
	if !ok {
		return nil, fmt.Errorf("hbb: %v is not a burst-buffer backend", b)
	}
	if s, ok := tb.orch[b]; ok {
		return s, nil
	}
	pol, err := orchestrator.ParseSchedPolicy(tb.opts.BBSched)
	if err != nil {
		return nil, err
	}
	s := orchestrator.New(tb.cluster, fs, pol)
	tb.orch[b] = s
	return s, nil
}

// NetworkMetrics exposes the fabric's registry: per-transport bytes
// moved, flow counts, and flow-solver re-solves.
func (tb *Testbed) NetworkMetrics() *metrics.Registry {
	return tb.cluster.Net.Metrics()
}

// LocalStorageUsed reports bytes of compute-node-local storage in use.
func (tb *Testbed) LocalStorageUsed() int64 {
	var total int64
	for _, n := range tb.cluster.Nodes {
		total += n.LocalUsed()
	}
	return total
}

// Ctx is the driver-side handle passed to Run's callback. All its methods
// charge virtual time on the simulation clock.
type Ctx struct {
	tb *Testbed
	p  *sim.Proc
}

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.p.Now() }

// Sleep advances the driver by d of virtual time.
func (c *Ctx) Sleep(d time.Duration) { c.p.Sleep(d) }

// Testbed returns the owning testbed.
func (c *Ctx) Testbed() *Testbed { return c.tb }

// WriteFile writes one file of the given size from a node.
func (c *Ctx) WriteFile(b Backend, node int, path string, size int64) error {
	fs := c.tb.fs(b)
	w, err := fs.Create(c.p, netsim.NodeID(node), path)
	if err != nil {
		return err
	}
	if err := w.Write(c.p, size); err != nil {
		return err
	}
	return w.Close(c.p)
}

// ReadFile reads a whole file from a node, returning its size.
func (c *Ctx) ReadFile(b Backend, node int, path string) (int64, error) {
	fs := c.tb.fs(b)
	r, err := fs.Open(c.p, netsim.NodeID(node), path)
	if err != nil {
		return 0, err
	}
	defer r.Close(c.p)
	var total int64
	for {
		n, err := r.Read(c.p, 8<<20)
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
		total += n
	}
}

// Stat returns file metadata.
func (c *Ctx) Stat(b Backend, node int, path string) (dfs.FileInfo, error) {
	return c.tb.fs(b).Stat(c.p, netsim.NodeID(node), path)
}

// Delete removes a file or empty directory.
func (c *Ctx) Delete(b Backend, node int, path string) error {
	return c.tb.fs(b).Delete(c.p, netsim.NodeID(node), path)
}

// DFSIOWrite runs the TestDFSIO write phase on a backend.
func (c *Ctx) DFSIOWrite(b Backend, dir string, files int, fileSize int64) (workloads.DFSIOResult, error) {
	return workloads.DFSIOWrite(c.p, c.tb.cluster, c.tb.fs(b), dir, files, fileSize)
}

// DFSIORead runs the TestDFSIO read phase on a backend.
func (c *Ctx) DFSIORead(b Backend, dir string) (workloads.DFSIOResult, error) {
	return workloads.DFSIORead(c.p, c.tb.cluster, c.tb.fs(b), dir)
}

// RandomWriter generates maps × bytesPerMap of random records.
func (c *Ctx) RandomWriter(b Backend, dir string, maps int, bytesPerMap int64) (mapreduce.Result, error) {
	return workloads.RandomWriter(c.p, c.tb.cluster, c.tb.fs(b), dir, maps, bytesPerMap)
}

// Sort sorts the files under inDir into outDir.
func (c *Ctx) Sort(b Backend, inDir, outDir string, reducers int) (mapreduce.Result, error) {
	fs := c.tb.fs(b)
	return workloads.Sort(c.p, c.tb.cluster, fs, inDir, fs, outDir, reducers)
}

// Scan runs the I/O-intensive filter workload.
func (c *Ctx) Scan(b Backend, dir, outDir string, selectivity float64) (mapreduce.Result, error) {
	fs := c.tb.fs(b)
	return workloads.Scan(c.p, c.tb.cluster, fs, dir, fs, outDir, selectivity)
}

// RunJob executes an arbitrary MapReduce job (advanced use).
func (c *Ctx) RunJob(job mapreduce.Job) (mapreduce.Result, error) {
	return mapreduce.Run(c.p, c.tb.cluster, job)
}

// SubmitJob starts a MapReduce job without blocking the driver; the
// returned submission's Wait rendezvouses with its result. Several
// submissions contend for cluster slots, buffer bricks, and Lustre
// bandwidth concurrently — the multi-tenant shape of a busy cluster.
func (c *Ctx) SubmitJob(job mapreduce.Job) *mapreduce.Submission {
	return mapreduce.Submit(c.tb.cluster, job)
}

// BufferOrchestrator returns the backend's buffer-instance capacity
// scheduler (see Testbed.BufferOrchestrator).
func (c *Ctx) BufferOrchestrator(b Backend) (*orchestrator.Scheduler, error) {
	return c.tb.BufferOrchestrator(b)
}

// FSFor exposes the dfs.FileSystem of a backend for jobs built with
// RunJob.
func (c *Ctx) FSFor(b Backend) dfs.FileSystem { return c.tb.fs(b) }

// Cleanup removes a flat benchmark directory.
func (c *Ctx) Cleanup(b Backend, dir string) {
	workloads.Cleanup(c.p, c.tb.cluster, c.tb.fs(b), dir)
}

// DrainBurstBuffer waits until a burst-buffer backend has flushed all
// dirty data to Lustre.
func (c *Ctx) DrainBurstBuffer(b Backend) {
	if fs, ok := c.tb.bb[b]; ok {
		fs.DefaultInstance().DrainFlushers(c.p)
	}
}

// Prestage pulls a file's evicted blocks from Lustre back into a
// burst-buffer backend ahead of a job (burst-buffer stage-in), returning
// the number of blocks staged.
func (c *Ctx) Prestage(b Backend, node int, path string) (int, error) {
	fs, ok := c.tb.bb[b]
	if !ok {
		return 0, fmt.Errorf("hbb: %v is not a burst-buffer backend", b)
	}
	return fs.DefaultInstance().Prestage(c.p, netsim.NodeID(node), path)
}

// Join is a handle to a concurrent driver task started with Ctx.Go.
type Join struct{ done sim.Event }

// Wait blocks the calling context until the task finishes.
func (j *Join) Wait(c *Ctx) { j.done.Wait(c.p) }

// Go runs fn as a concurrent driver-side process sharing the testbed (for
// overlapping workloads); the returned Join rendezvouses with it.
func (c *Ctx) Go(name string, fn func(c2 *Ctx)) *Join {
	j := &Join{}
	c.tb.cluster.Env.Spawn(name, func(p *sim.Proc) {
		defer j.done.Trigger()
		fn(&Ctx{tb: c.tb, p: p})
	})
	return j
}

// FailNode crashes a compute node: fabric down, HDFS DataNode dead.
func (c *Ctx) FailNode(node int) {
	c.tb.hdfs.FailDataNode(netsim.NodeID(node))
}

// FailBufferServer crashes one burst-buffer server of a backend.
func (c *Ctx) FailBufferServer(b Backend, index int) {
	if fs, ok := c.tb.bb[b]; ok {
		fs.FailServer(index)
	}
}
