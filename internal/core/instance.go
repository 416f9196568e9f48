package core

import (
	"fmt"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/hashring"
	"hbb/internal/lustre"
	"hbb/internal/metrics"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// DefaultInstanceName is the name of the instance every pool is born
// with: it spans the pool's full capacity, unmetered, and is the file
// system single-tenant callers use.
const DefaultInstanceName = "default"

// Instance is one allocatable burst buffer carved out of a pool (BurstFS).
// The paper's buffer is shared cluster infrastructure; an Instance is what
// one tenant gets from it: a private namespace tree, its own stats and
// metrics namespace, and a byte share ("bricks") on each buffer server
// it was placed on. The physical substrate — fabric nodes, ingest pipes,
// Lustre — stays shared, which is exactly where multi-job contention
// comes from.
//
// Instance implements dfs.FileSystem; writers, readers, and flushers all
// operate on an Instance, never on the pool directly.
type Instance struct {
	name string
	pool *BurstFS

	// cfg is the pool's configuration.
	cfg Config

	// Shared substrate, copied from the pool for convenience.
	cl      *cluster.Cluster
	net     *netsim.Network
	backing *lustre.Lustre
	mgr     *dfs.Service

	tree      *dfs.Tree
	servers   []*BufferServer
	ring      *hashring.Ring
	srvByName map[string]*BufferServer

	stats   Stats
	metrics *metrics.View

	// bricks is the instance's capacity grant in pool bricks (0 for the
	// default instance, which spans full server memory unmetered).
	bricks int

	// openBlocks counts blocks currently being streamed by writers (each
	// writer's slot is a ledger hold), and burst is bb-adaptive's detector
	// state: true while degraded to async (see planBlock).
	openBlocks int
	burst      bool

	started  bool
	released bool
}

var _ dfs.FileSystem = (*Instance)(nil)

// InstanceSpec describes a buffer instance to allocate from a pool.
type InstanceSpec struct {
	// Name labels the instance (spawn names, metrics namespace). Must be
	// unique within the pool.
	Name string
	// BricksPerServer grants the instance this many bricks on each pool
	// server (len must equal the pool's server count; zero entries leave
	// the instance unplaced on that server). Nil grants full server memory
	// on every server — the default instance's unmetered compatibility
	// share, which does not count against pool brick inventory.
	BricksPerServer []int
}

// NewInstance allocates a buffer instance from the pool. The per-server
// byte share is BricksPerServer[i] × BrickSize; admission control
// (HighWatermark) applies to the share, so every placed share must admit at
// least one block. The instance is started (flusher pools spawned) if the
// pool is already running.
func (fs *BurstFS) NewInstance(spec InstanceSpec) (*Instance, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("core: instance needs a name")
	}
	for _, in := range fs.instances {
		if in.name == spec.Name {
			return nil, fmt.Errorf("core: instance %q already exists", spec.Name)
		}
	}
	limits := make([]int64, len(fs.phys))
	bricks := 0
	if spec.BricksPerServer == nil {
		for i := range limits {
			limits[i] = fs.cfg.ServerMemory
		}
	} else {
		if len(spec.BricksPerServer) != len(fs.phys) {
			return nil, fmt.Errorf("core: instance %q places %d servers, pool has %d",
				spec.Name, len(spec.BricksPerServer), len(fs.phys))
		}
		for i, n := range spec.BricksPerServer {
			if n < 0 {
				return nil, fmt.Errorf("core: instance %q: negative bricks on server %d", spec.Name, i)
			}
			if n == 0 {
				continue
			}
			if fs.phys[i].bricksUsed+n > fs.serverBrickCap() {
				return nil, fmt.Errorf("core: instance %q: %d bricks on server %d exceed the %d free",
					spec.Name, n, i, fs.serverBrickCap()-fs.phys[i].bricksUsed)
			}
			limits[i] = int64(n) * fs.cfg.BrickSize
			if int64(float64(limits[i])*HighWatermark) < fs.cfg.BlockSize {
				return nil, fmt.Errorf("core: instance %q: %d bricks on server %d cannot admit a single %d-byte block",
					spec.Name, n, i, fs.cfg.BlockSize)
			}
			bricks += n
		}
		if bricks == 0 {
			return nil, fmt.Errorf("core: instance %q places no bricks", spec.Name)
		}
	}
	inst := &Instance{
		name:      spec.Name,
		pool:      fs,
		cfg:       fs.cfg,
		cl:        fs.cl,
		net:       fs.net,
		backing:   fs.backing,
		mgr:       fs.mgr,
		tree:      dfs.NewTree(),
		srvByName: make(map[string]*BufferServer),
		bricks:    bricks,
	}
	prefix := ""
	if spec.Name != DefaultInstanceName {
		prefix = fmt.Sprintf("bb.%s.", spec.Name)
	}
	inst.metrics = fs.metrics.View(prefix)
	var names []string
	for i, ph := range fs.phys {
		if limits[i] <= 0 {
			continue
		}
		s := newBufferServer(inst, ph, limits[i])
		inst.servers = append(inst.servers, s)
		inst.srvByName[s.name] = s
		names = append(names, s.name)
		if spec.BricksPerServer != nil {
			ph.bricksUsed += spec.BricksPerServer[i]
		}
	}
	inst.ring = hashring.New(0, names...)
	fs.instances = append(fs.instances, inst)
	if fs.running {
		inst.start()
	}
	return inst, nil
}

// start launches the instance's flusher pools. The default instance keeps
// the seed's exact spawn names and order; other instances prefix theirs.
func (inst *Instance) start() {
	if inst.started {
		return
	}
	inst.started = true
	for _, s := range inst.servers {
		for i := 0; i < inst.cfg.Flushers; i++ {
			s := s
			name := fmt.Sprintf("%s.flusher%d", s.name, i)
			if inst.name != DefaultInstanceName {
				name = fmt.Sprintf("%s.%s.flusher%d", inst.name, s.name, i)
			}
			inst.cl.Env.Spawn(name, func(p *sim.Proc) {
				s.flusherLoop(p)
			})
		}
	}
}

// shutdown stops the instance's flusher pools once their queues drain.
func (inst *Instance) shutdown() {
	for _, s := range inst.servers {
		s.wakeups.Close()
	}
}

// Name implements dfs.FileSystem. The default instance reports the
// scheme's name, which every report keys on; other instances report their
// own name.
func (inst *Instance) Name() string {
	if inst.name == DefaultInstanceName {
		return inst.pool.scheme.String()
	}
	return inst.name
}

// Stats returns the instance's activity counters.
func (inst *Instance) Stats() Stats { return inst.stats }

// Metrics returns the instance's namespaced metrics view.
func (inst *Instance) Metrics() *metrics.View { return inst.metrics }

// Servers exposes the instance's per-server shares (tests, reports).
func (inst *Instance) Servers() []*BufferServer { return inst.servers }

// BufferedBytes returns the bytes the instance's shares hold: resident
// payload plus the block-size reservations of blocks being written (and
// of blocks being staged in).
func (inst *Instance) BufferedBytes() int64 {
	var total int64
	for _, s := range inst.servers {
		total += s.bytes
	}
	return total
}

// Release tears the instance down and returns its bricks to the pool:
// flushers are stopped, every block holding space on a share has its
// hold released, every node-local replica is freed, and the instance
// stops accepting operations. A block still being written keeps its
// holds for its writer's exit. Dirty data is NOT drained here —
// call DrainFlushers first (the orchestrator's stage-out does) or accept
// the loss, which counts in Stats.BlocksLost. Releasing the default
// instance or releasing twice panics: both are orchestration bugs.
func (inst *Instance) Release() {
	if inst.name == DefaultInstanceName {
		panic("core: cannot release the default instance")
	}
	if inst.released {
		panic(fmt.Sprintf("core: instance %q released twice", inst.name))
	}
	inst.released = true
	inst.shutdown()
	for _, s := range inst.servers {
		for _, b := range s.holdersByID() {
			b.releaseShare(s)
			if b.state == stateOpen || !b.onServer(s) {
				continue // its writer or stager settles it
			}
			b.dropServer(s)
			if b.primary() == nil {
				if b.state == stateClean {
					b.move(stateEvicted)
				} else {
					b.move(stateLost)
				}
			}
		}
		if s.phys != nil && inst.bricks > 0 {
			s.phys.bricksUsed -= int(s.limit / inst.pool.cfg.BrickSize)
		}
	}
	inst.tree.Walk(func(f *dfs.TreeFile) {
		for _, b := range filePayload(f).blocks {
			if b.localDev != nil && b.state != stateOpen {
				b.releaseLocal()
			}
		}
	})
	keep := inst.pool.instances[:0]
	for _, in := range inst.pool.instances {
		if in != inst {
			keep = append(keep, in)
		}
	}
	inst.pool.instances = keep
}

// pickServers maps a block key to its replica set of live shares.
func (inst *Instance) pickServers(key string) ([]*BufferServer, error) {
	names := inst.ring.GetN(key, inst.cfg.BufferReplicas)
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no live buffer servers")
	}
	out := make([]*BufferServer, len(names))
	for i, n := range names {
		out[i] = inst.srvByName[n]
	}
	return out, nil
}

// Mkdir implements dfs.FileSystem.
func (inst *Instance) Mkdir(p *sim.Proc, client netsim.NodeID, path string) error {
	return inst.mgr.Mkdir(p, client, inst.tree, path)
}

// Stat implements dfs.FileSystem.
func (inst *Instance) Stat(p *sim.Proc, client netsim.NodeID, path string) (dfs.FileInfo, error) {
	return inst.mgr.Stat(p, client, inst.tree, path)
}

// List implements dfs.FileSystem.
func (inst *Instance) List(p *sim.Proc, client netsim.NodeID, dir string) ([]dfs.FileInfo, error) {
	return inst.mgr.List(p, client, inst.tree, dir)
}

// Delete implements dfs.FileSystem.
func (inst *Instance) Delete(p *sim.Proc, client netsim.NodeID, path string) error {
	return inst.mgr.Call(p, client, func(q *sim.Proc) (int64, error) {
		f, err := inst.tree.Remove(path)
		if err == nil && f != nil && f.Data != nil {
			inst.pool.deleteBlocks(q, filePayload(f).blocks)
		}
		return 64, err
	})
}

// getBlocks asks the manager for a sealed file's blocks in order.
func (inst *Instance) getBlocks(p *sim.Proc, client netsim.NodeID, path string) ([]*bbBlock, error) {
	var blocks []*bbBlock
	err := inst.mgr.Call(p, client, func(*sim.Proc) (int64, error) {
		f, err := inst.tree.GetFile(path)
		if err != nil {
			return 64, err
		}
		if f.UnderConstruction {
			return 64, fmt.Errorf("%w: %q", dfs.ErrReadOnly, f.Path)
		}
		blocks = filePayload(f).blocks
		return 64 + 48*int64(len(blocks)), nil
	})
	return blocks, err
}

// BlockLocations implements dfs.FileSystem: only bb-locality blocks
// yield node-local hosts (their local replicas); buffered and Lustre data
// is equally remote from every compute node.
func (inst *Instance) BlockLocations(p *sim.Proc, client netsim.NodeID, path string) ([]dfs.BlockLocation, error) {
	blocks, err := inst.getBlocks(p, client, path)
	if err != nil {
		return nil, err
	}
	out := make([]dfs.BlockLocation, len(blocks))
	var off int64
	for i, b := range blocks {
		loc := dfs.BlockLocation{Offset: off, Length: b.size}
		if b.localNode >= 0 && !inst.net.Down(b.localNode) {
			loc.Hosts = []netsim.NodeID{b.localNode}
		}
		out[i] = loc
		off += b.size
	}
	return out, nil
}

// DrainFlushers blocks the calling process until no dirty or flushing
// blocks remain on the instance (used by harnesses that want
// flush-inclusive timings, and by the orchestrator's stage-out).
func (inst *Instance) DrainFlushers(p *sim.Proc) {
	for {
		busy := false
		for _, s := range inst.servers {
			if s.dirtyBacklog() > 0 || s.flushing > 0 {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		p.Sleep(time.Duration(inst.cl.Env.Rand().Int63n(1e6) + 1e7)) // ~10ms poll
	}
}

// StageInFile imports an existing Lustre file into the instance namespace
// and pulls its blocks into the buffer (burst-buffer stage-in): the
// manager registers the file at dst backed block-by-block by evicted byte
// ranges of the Lustre object, and Prestage then fetches every block its
// share has room for.
// It returns the number of blocks staged into the buffer; blocks that did
// not fit stay Lustre-backed and readable.
func (inst *Instance) StageInFile(p *sim.Proc, client netsim.NodeID, src, dst string) (int, error) {
	fi, err := inst.backing.Stat(p, client, src)
	if err != nil {
		return 0, err
	}
	err = inst.mgr.Call(p, client, func(*sim.Proc) (int64, error) {
		f, err := inst.tree.CreateFile(dst)
		if err != nil {
			return 64, err
		}
		for off := int64(0); off < fi.Size; off += inst.cfg.BlockSize {
			b := inst.pool.newBlock(inst, f, stateEvicted)
			b.size = min(inst.cfg.BlockSize, fi.Size-off)
			b.lustrePath, b.lustreOff, b.imported = src, off, true
			filePayload(f).blocks = append(filePayload(f).blocks, b)
			f.Size += b.size
		}
		f.UnderConstruction = false
		return 64, nil
	})
	if err != nil {
		return 0, err
	}
	return inst.Prestage(p, client, dst)
}

// failServer applies a physical server crash to this instance's share of
// it: the share leaves the placement ring, stalled writers are released
// into the error path, every hold on the share is released, and every
// resident block is promoted, recovered, or lost. A block still being
// written or staged in is left to its writer's exit or its stager.
func (inst *Instance) failServer(ph *serverNode) {
	s := inst.srvByName[ph.name]
	if s == nil {
		return // instance not placed on this server
	}
	inst.ring.Remove(s.name)
	s.signalFlushProgress() // release stalled writers into the error path
	for b := range s.holders {
		b.releaseShare(s)
		if b.state == stateOpen || !b.onServer(s) {
			continue // its writer or stager settles it
		}
		wasPrimary := b.primary() == s
		b.dropServer(s)
		if next := b.primary(); next != nil {
			// A surviving in-buffer replica takes over; dirty blocks go to
			// the new primary's flusher queue.
			if wasPrimary && (b.state == stateDirty || b.state == stateFlushing) {
				if b.state == stateFlushing {
					b.move(stateDirty)
				}
				// A crash requeue is pressure work: the surviving holder is
				// carrying extra bytes it wants evictable soon.
				next.enqueueDirty(b, true)
			}
			inst.stats.Promotions++
			continue
		}
		switch b.state {
		case stateClean:
			b.move(stateEvicted)
		case stateDirty, stateFlushing:
			if b.localNode >= 0 && !inst.net.Down(b.localNode) {
				inst.recoverFromLocal(b)
			} else {
				b.move(stateLost)
			}
		}
	}
	// Left queued here, blocks would hold DrainFlushers forever.
	s.sched = newFlushScheduler(s, inst.cfg.FlushBatchBlocks)
}

// recoverFromLocal re-flushes a dirty block from its node-local replica to
// Lustre after its buffer server died. A delete during recovery stops it:
// the object is discarded and the block stays deleted.
func (inst *Instance) recoverFromLocal(b *bbBlock) {
	node, dev := b.localNode, b.localDev // a delete clears the block's
	inst.cl.Env.Spawn(fmt.Sprintf("bb.recover.b%d", b.id), func(p *sim.Proc) {
		// A half-finished flush may already own the block's regular object
		// name; recovery writes a distinct one.
		path := fmt.Sprintf("%s/blk-%d.recovered", lustreDir, b.id)
		w, err := inst.backing.Create(p, node, path)
		if err == nil {
			for i := 0; i < b.chunks() && err == nil && b.state != stateDeleted; i++ {
				n := b.chunk(i)
				dev.Read(p, n)
				err = w.Write(p, n)
			}
			if err == nil && b.state != stateDeleted {
				err = w.Close(p)
			}
			if err != nil || b.state == stateDeleted {
				inst.discardObject(p, node, path)
			}
		}
		switch {
		case b.state == stateDeleted:
		case err != nil:
			b.move(stateLost)
		default:
			// The recovered object holds this block alone: a failed run
			// attempt may have left a stale run offset behind.
			b.lustrePath, b.lustreOff = path, 0
			b.move(stateEvicted)
		}
	})
}
