package core

import (
	"fmt"
	"slices"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/lustre"
	"hbb/internal/metrics"
	"hbb/internal/netsim"
	"hbb/internal/sim"
	"hbb/internal/storage"
)

// lustreDir is where flushed blocks live on the backing parallel FS.
const lustreDir = "/.bb"

// Stats aggregates burst-buffer activity.
type Stats struct {
	BytesWritten    int64 // client -> buffer payload
	BytesRead       int64 // delivered to readers (any source)
	BytesFlushed    int64 // buffer -> Lustre
	ReadsBuffer     int64 // blocks served from the KV buffer
	ReadsLocal      int64 // blocks served from a node-local replica
	ReadsLustre     int64 // blocks served from Lustre
	Evictions       int64 // clean blocks evicted for space
	WriterStalls    int64 // times a writer waited on flush progress
	BlocksLost      int64 // dirty blocks lost to server failures or Release
	BlocksRecovered int64 // dirty blocks re-flushed from local replicas
	BlockRetries    int64 // blocks restarted on another server
	FlushRetries    int64 // blocks re-queued after a transient flush failure
	Promotions      int64 // in-buffer replicas promoted after a crash
	Readmissions    int64 // blocks re-admitted to the buffer on read
}

// bbBlock is the manager's record of one block.
type bbBlock struct {
	id   int64
	key  string
	size int64
	// inst is the buffer instance the block belongs to: its namespace tree
	// holds the file, its shares hold the payload, its stats count it.
	inst *Instance
	// file/fileIdx locate the block in its file — the flush scheduler
	// groups dirty blocks by file and claims runs of adjacent fileIdx
	// values into one Lustre object.
	file    string
	fileIdx int
	// state tracks durability and changes only through move (plan.go);
	// srvs lists the buffer servers holding the block's payload, primary
	// first (empty once evicted everywhere).
	state blockState
	srvs  []*BufferServer
	// held, localDev/localBytes and open are the block's ledger
	// (ledger.go). localNode is the node of the finished bb-locality
	// replica on localDev (-1 when absent).
	held       []shareHold
	localDev   *storage.Device
	localBytes int64
	open       bool
	localNode  netsim.NodeID
	// lustrePath is the backing object, set once a flush or sync write
	// completed; lustreOff is the block's byte offset inside it (non-zero
	// when a multi-block run or a stage-in source shares the object).
	lustrePath string
	lustreOff  int64
	// attempt counts server reassignments and flush retries, keeping
	// Lustre object names unique across retries.
	attempt int
	// flushRetries counts transient flush failures; bounded by
	// maxBlockRetries so a persistently failing backing store cannot spin
	// the flusher loop forever.
	flushRetries int
	// readmitting guards against duplicate cache-fill attempts.
	readmitting bool
	// imported marks stage-in blocks whose lustrePath is a caller-owned
	// object (not a flush artifact the manager may delete).
	imported bool
}

// chunks is the number of item chunks the block's bytes are stored as:
// full ItemChunk-sized ones and the tail.
func (b *bbBlock) chunks() int {
	c := b.inst.cfg.ItemChunk
	return int((b.size + c - 1) / c)
}

// chunk is the size of chunk i of the block.
func (b *bbBlock) chunk(i int) int64 {
	c := b.inst.cfg.ItemChunk
	return min(c, b.size-int64(i)*c)
}

// bbFile is the per-file payload in the namespace tree.
type bbFile struct {
	blocks []*bbBlock
}

func filePayload(f *dfs.TreeFile) *bbFile {
	if f.Data == nil {
		f.Data = &bbFile{}
	}
	return f.Data.(*bbFile)
}

// primary returns the block's first in-buffer replica holder, or nil.
func (b *bbBlock) primary() *BufferServer {
	if len(b.srvs) == 0 {
		return nil
	}
	return b.srvs[0]
}

// dropServer removes one in-buffer replica holder.
func (b *bbBlock) dropServer(s *BufferServer) {
	b.srvs = slices.DeleteFunc(b.srvs, func(c *BufferServer) bool { return c == s })
}

// BurstFS is the burst-buffer pool: the paper's integration of HDFS
// clients with Lustre through RDMA-Memcached. It owns the physical
// substrate — the metadata manager, the RDMA-Memcached server nodes, and
// their brick inventory — and carves buffer *instances* (see Instance) out
// of it. The pool is born with one default instance spanning its full
// capacity; single-tenant callers use it as their dfs.FileSystem.
type BurstFS struct {
	cfg     Config
	scheme  scheme
	cl      *cluster.Cluster
	net     *netsim.Network
	backing *lustre.Lustre
	MgrNode netsim.NodeID
	mgr     *dfs.Service
	// phys holds the physical buffer-server nodes; instances hold shares
	// of them (BufferServer).
	phys      []*serverNode
	instances []*Instance
	def       *Instance
	nextBlock int64
	// nextRun numbers multi-block run Lustre objects (unique across retries).
	nextRun int64
	metrics *metrics.Registry
	running bool
}

// New assembles a burst buffer over the cluster, backed by the given
// Lustre instance. Buffer servers get their own fabric nodes (the paper
// deploys RDMA-Memcached on dedicated nodes). Call Start before running.
func New(cl *cluster.Cluster, backing *lustre.Lustre, cfg Config) *BurstFS {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fs := &BurstFS{
		cfg:     cfg,
		cl:      cl,
		net:     cl.Net,
		backing: backing,
		MgrNode: cl.Net.AddNode(),
		metrics: metrics.NewRegistry(),
	}
	fs.scheme, _ = parseScheme(cfg.Policy) // Validate accepted the name
	for i := 0; i < cfg.Servers; i++ {
		fs.phys = append(fs.phys, newServerNode(fs, i))
	}
	fs.mgr = dfs.NewService(fs.net, dfs.ServiceConfig{
		Name: "bb.mgr", Node: fs.MgrNode, ReqSize: 192, OpLatency: mdOpLatency,
	})
	def, err := fs.NewInstance(InstanceSpec{Name: DefaultInstanceName})
	if err != nil {
		panic(err)
	}
	fs.def = def
	return fs
}

// DefaultInstance returns the pool's full-capacity instance: the file
// system single-tenant callers read and write.
func (fs *BurstFS) DefaultInstance() *Instance { return fs.def }

// serverBrickCap is one physical server's brick inventory.
func (fs *BurstFS) serverBrickCap() int {
	return int(fs.cfg.ServerMemory / fs.cfg.BrickSize)
}

// TotalBricks returns the pool-wide brick inventory (the default instance
// is an unmetered compatibility view and does not consume bricks).
func (fs *BurstFS) TotalBricks() int {
	total := 0
	for _, ph := range fs.phys {
		if !ph.failed {
			total += fs.serverBrickCap()
		}
	}
	return total
}

// FreeBricks returns unallocated bricks across live servers.
func (fs *BurstFS) FreeBricks() int {
	free := 0
	for _, ph := range fs.phys {
		if !ph.failed {
			free += fs.serverBrickCap() - ph.bricksUsed
		}
	}
	return free
}

// FreeBricksPerServer returns each live server's unallocated bricks
// (failed servers report zero).
func (fs *BurstFS) FreeBricksPerServer() []int {
	out := make([]int, len(fs.phys))
	for i, ph := range fs.phys {
		if !ph.failed {
			out[i] = fs.serverBrickCap() - ph.bricksUsed
		}
	}
	return out
}

// Metrics returns the pool-wide metrics registry: flush-latency and
// writer-stall histograms, read-source hit counters, and bb-adaptive's
// write-through/async block counts. The default instance's metrics appear under
// their bare names only (its view has the empty prefix); every other
// instance's are namespaced "bb.<instance>.".
func (fs *BurstFS) Metrics() *metrics.Registry { return fs.metrics }

// Config returns the effective configuration.
func (fs *BurstFS) Config() Config { return fs.cfg }

// Start launches the flusher pools of every instance. bb-sync needs
// none, but the pools are started anyway to drain recovery work
// uniformly.
func (fs *BurstFS) Start() {
	fs.running = true
	for _, inst := range fs.instances {
		inst.start()
	}
}

// Shutdown stops the flusher pools once their queues drain.
func (fs *BurstFS) Shutdown() {
	for _, inst := range fs.instances {
		inst.shutdown()
	}
}

// FailServer simulates a buffer-server crash. Every instance placed on
// the server reacts: in-buffer replicas are promoted first; then clean
// blocks remain available on Lustre and dirty blocks are recovered from
// local replicas when the scheme provides them; otherwise they are lost
// (the loss window the sync scheme closes).
func (fs *BurstFS) FailServer(i int) {
	ph := fs.phys[i]
	ph.failed = true
	fs.net.SetDown(ph.node, true)
	for _, inst := range fs.instances {
		inst.failServer(ph)
	}
}

func (fs *BurstFS) blockLustrePath(b *bbBlock) string {
	if b.attempt == 0 {
		return fmt.Sprintf("%s/blk-%d", lustreDir, b.id)
	}
	return fmt.Sprintf("%s/blk-%d.%d", lustreDir, b.id, b.attempt)
}

// runLustrePath names the next multi-block run object. The counter makes
// every run object unique, so a retried run never collides with the
// half-written object of its failed attempt.
func (fs *BurstFS) runLustrePath() string {
	fs.nextRun++
	return fmt.Sprintf("%s/run-%d", lustreDir, fs.nextRun)
}

// newBlock numbers the next block of file f, born in state.
func (fs *BurstFS) newBlock(inst *Instance, f *dfs.TreeFile, state blockState) *bbBlock {
	fs.nextBlock++
	return &bbBlock{id: fs.nextBlock, key: fmt.Sprintf("blk-%d", fs.nextBlock), inst: inst,
		file: f.Path, fileIdx: len(filePayload(f).blocks), state: state, localNode: -1}
}

// deleteBlocks releases every copy of the given blocks: buffer holds,
// local replicas, and Lustre objects. A block still being written
// keeps only its writer's slot, which the writer's exit gives back.
func (fs *BurstFS) deleteBlocks(p *sim.Proc, blocks []*bbBlock) {
	for _, b := range blocks {
		b.move(stateDeleted)
		b.dropHolds()
		b.srvs = nil
		if b.lustrePath != "" && !b.imported {
			// Imported blocks borrow a caller-owned Lustre object
			// (stage-in); deleting the buffer file must not delete it.
			_ = fs.backing.Delete(p, fs.MgrNode, b.lustrePath)
		}
	}
}
