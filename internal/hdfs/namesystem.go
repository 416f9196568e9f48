package hdfs

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hbb/internal/dfs"
	"hbb/internal/netsim"
)

// BlockID identifies a block cluster-wide.
type BlockID int64

// BlockInfo is the client-visible description of one block.
type BlockInfo struct {
	ID        BlockID
	Offset    int64
	Size      int64
	Locations []netsim.NodeID
}

// Config parametrizes an HDFS (or burst-buffer) namesystem and data plane.
type Config struct {
	// BlockSize is the split size for files. Zero defaults to 128 MiB.
	BlockSize int64
	// Replication is the target replica count. Zero defaults to 3.
	Replication int
	// PacketSize and WindowPackets set the streaming granularity: payload
	// moves in segments of PacketSize × WindowPackets bytes (see
	// flowSegment). Zero defaults to 1 MiB.
	PacketSize int64
	// WindowPackets also bounds the segments in flight per pipeline stage.
	// Zero defaults to 8.
	WindowPackets int
	// HeartbeatInterval is the datanode heartbeat period. Zero defaults
	// to 1 s (compressed from HDFS's 3 s to keep simulations short).
	HeartbeatInterval time.Duration
	// DatanodeTimeout declares a datanode dead after this silence. Zero
	// defaults to 5 s.
	DatanodeTimeout time.Duration
	// NNOpLatency is the namenode's processing cost per metadata op.
	// Zero defaults to 50 µs.
	NNOpLatency time.Duration
	// UseRAMDiskForData lets datanodes place blocks on the node RAM disk
	// (fastest-first), as the paper's era Triple-H designs do. When false
	// (stock HDFS), only persistent local devices (SSD/HDD) hold blocks,
	// unless a node has no persistent device at all.
	UseRAMDiskForData bool
}

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 128 << 20
	}
	if c.Replication == 0 {
		c.Replication = 3
	}
	if c.PacketSize == 0 {
		c.PacketSize = 1 << 20
	}
	if c.WindowPackets == 0 {
		c.WindowPackets = 8
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.DatanodeTimeout == 0 {
		c.DatanodeTimeout = 5 * time.Second
	}
	if c.NNOpLatency == 0 {
		c.NNOpLatency = 50 * time.Microsecond
	}
	return c
}

// Validate rejects configurations that would hang or divide later in the
// data plane. It is applied after defaulting, so a zero value is fine
// (it means "use the default") but an explicit negative is not.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.PacketSize <= 0 {
		return fmt.Errorf("hdfs: PacketSize must be positive, got %d", c.PacketSize)
	}
	if d.WindowPackets <= 0 {
		return fmt.Errorf("hdfs: WindowPackets must be positive, got %d", c.WindowPackets)
	}
	if d.BlockSize <= 0 {
		return fmt.Errorf("hdfs: BlockSize must be positive, got %d", c.BlockSize)
	}
	if d.Replication <= 0 {
		return fmt.Errorf("hdfs: Replication must be positive, got %d", c.Replication)
	}
	return nil
}

// flowSegment is the store-and-forward granularity of the pipeline and
// read streams: one window's worth of packets moved as a single analytic
// transfer over the hop's flow, with one flat device reservation.
func (c Config) flowSegment() int64 {
	return c.PacketSize * int64(c.WindowPackets)
}

// blockMeta is the namesystem's record of one block.
type blockMeta struct {
	id   BlockID
	file string
	size int64
	locs map[netsim.NodeID]struct{}
	// pendingRepl guards against scheduling the same re-replication twice.
	pendingRepl bool
}

// dnState tracks one registered datanode.
type dnState struct {
	id        netsim.NodeID
	rack      int
	capacity  int64
	used      int64
	scheduled int64 // bytes of blocks placed but not yet reported
	lastHB    time.Duration
	alive     bool
	blocks    map[BlockID]struct{}
}

func (d *dnState) free() int64 { return d.capacity - d.used - d.scheduled }

// Namesystem is the pure-metadata heart of HDFS: the namespace tree, the
// block map, and the datanode registry with placement and re-replication
// policy. It has no I/O of its own; the NameNode service front-ends it over
// the fabric, and the burst-buffer file systems reuse it directly for their
// own namespaces.
type Namesystem struct {
	cfg       Config
	ns        *dfs.Tree
	blocks    map[BlockID]*blockMeta
	dns       map[netsim.NodeID]*dnState
	dnOrder   []netsim.NodeID
	nextBlock BlockID
	rng       *rand.Rand
}

// NewNamesystem returns an empty namesystem with the given config.
func NewNamesystem(cfg Config, rng *rand.Rand) *Namesystem {
	return &Namesystem{
		cfg:    cfg.withDefaults(),
		ns:     dfs.NewTree(),
		blocks: make(map[BlockID]*blockMeta),
		dns:    make(map[netsim.NodeID]*dnState),
		rng:    rng,
	}
}

// Config returns the effective configuration.
func (n *Namesystem) Config() Config { return n.cfg }

// Mkdir creates a directory and missing parents.
func (n *Namesystem) Mkdir(path string) error { return n.ns.MkdirAll(path) }

// CreateFile registers a new file under construction.
func (n *Namesystem) CreateFile(path string) error {
	_, err := n.ns.CreateFile(path)
	return err
}

// AddBlock allocates the next block of a file and chooses target
// datanodes, excluding any nodes in exclude (e.g. ones that just failed a
// pipeline). The writer's node is preferred as the first replica.
func (n *Namesystem) AddBlock(path string, writer netsim.NodeID, exclude []netsim.NodeID) (BlockID, []netsim.NodeID, error) {
	fm, err := n.ns.GetFile(path)
	if err != nil {
		return 0, nil, err
	}
	if !fm.UnderConstruction {
		return 0, nil, fmt.Errorf("%w: %q", dfs.ErrReadOnly, path)
	}
	targets, err := n.choosePlacement(writer, n.cfg.Replication, n.cfg.BlockSize, exclude)
	if err != nil {
		return 0, nil, err
	}
	n.nextBlock++
	id := n.nextBlock
	n.blocks[id] = &blockMeta{id: id, file: fm.Path, locs: make(map[netsim.NodeID]struct{})}
	meta := fileBlocks(fm)
	meta.blocks = append(meta.blocks, id)
	for _, t := range targets {
		n.dns[t].scheduled += n.cfg.BlockSize
	}
	return id, targets, nil
}

// AbandonBlock drops an uncommitted block after a pipeline failure so the
// client can request a fresh one.
func (n *Namesystem) AbandonBlock(path string, id BlockID) {
	bm, ok := n.blocks[id]
	if !ok {
		return
	}
	delete(n.blocks, id)
	if fm, err := n.ns.GetFile(path); err == nil {
		meta := fileBlocks(fm)
		for i, b := range meta.blocks {
			if b == id {
				meta.blocks = append(meta.blocks[:i], meta.blocks[i+1:]...)
				break
			}
		}
	}
	for dn := range bm.locs {
		n.removeReplica(dn, bm, 0)
	}
}

// BlockReceived records that a datanode stored a replica of a block.
func (n *Namesystem) BlockReceived(dn netsim.NodeID, id BlockID, size int64) {
	bm, ok := n.blocks[id]
	if !ok {
		return // block abandoned while the replica was in flight
	}
	d, ok := n.dns[dn]
	if !ok || !d.alive {
		return
	}
	bm.locs[dn] = struct{}{}
	bm.pendingRepl = false
	d.blocks[id] = struct{}{}
	d.used += size
	if d.scheduled >= n.cfg.BlockSize {
		d.scheduled -= n.cfg.BlockSize
	} else {
		d.scheduled = 0
	}
}

// CommitBlock finalizes a block's size after its pipeline completes.
func (n *Namesystem) CommitBlock(path string, id BlockID, size int64) error {
	fm, err := n.ns.GetFile(path)
	if err != nil {
		return err
	}
	bm, ok := n.blocks[id]
	if !ok {
		return fmt.Errorf("%w: block %d", dfs.ErrNotFound, id)
	}
	bm.size = size
	fm.Size += size
	return nil
}

// CompleteFile seals a file.
func (n *Namesystem) CompleteFile(path string) error {
	fm, err := n.ns.GetFile(path)
	if err != nil {
		return err
	}
	fm.UnderConstruction = false
	return nil
}

// FileBlocks returns the blocks of a sealed file in order, with locations.
func (n *Namesystem) FileBlocks(path string) ([]BlockInfo, error) {
	fm, err := n.ns.GetFile(path)
	if err != nil {
		return nil, err
	}
	meta := fileBlocks(fm)
	out := make([]BlockInfo, 0, len(meta.blocks))
	var off int64
	for _, id := range meta.blocks {
		bm := n.blocks[id]
		bi := BlockInfo{ID: id, Offset: off, Size: bm.size}
		for dn := range bm.locs {
			bi.Locations = append(bi.Locations, dn)
		}
		sort.Slice(bi.Locations, func(i, j int) bool { return bi.Locations[i] < bi.Locations[j] })
		out = append(out, bi)
		off += bm.size
	}
	return out, nil
}

// Stat returns file info.
func (n *Namesystem) Stat(path string) (dfs.FileInfo, error) { return n.ns.Stat(path) }

// List returns directory entries.
func (n *Namesystem) List(path string) ([]dfs.FileInfo, error) { return n.ns.List(path) }

// Delete removes a path; for files it unregisters the blocks and returns
// the replica IDs each datanode should drop.
func (n *Namesystem) Delete(path string) (map[netsim.NodeID][]BlockID, error) {
	fm, err := n.ns.Remove(path)
	if err != nil {
		return nil, err
	}
	freed := make(map[netsim.NodeID][]BlockID)
	if fm == nil || fm.Data == nil {
		return freed, nil
	}
	for _, id := range fileBlocks(fm).blocks {
		bm, ok := n.blocks[id]
		if !ok {
			continue
		}
		for dn := range bm.locs {
			freed[dn] = append(freed[dn], id)
		}
		for dn := range bm.locs {
			n.removeReplica(dn, bm, bm.size)
		}
		delete(n.blocks, id)
	}
	return freed, nil
}

func (n *Namesystem) removeReplica(dn netsim.NodeID, bm *blockMeta, size int64) {
	delete(bm.locs, dn)
	if d, ok := n.dns[dn]; ok {
		delete(d.blocks, bm.id)
		if size > 0 && d.used >= size {
			d.used -= size
		}
	}
}

// RegisterDatanode adds a datanode to the registry.
func (n *Namesystem) RegisterDatanode(id netsim.NodeID, rack int, capacity int64, now time.Duration) {
	if _, ok := n.dns[id]; ok {
		return
	}
	n.dns[id] = &dnState{
		id: id, rack: rack, capacity: capacity,
		alive: true, lastHB: now, blocks: make(map[BlockID]struct{}),
	}
	n.dnOrder = append(n.dnOrder, id)
	sort.Slice(n.dnOrder, func(i, j int) bool { return n.dnOrder[i] < n.dnOrder[j] })
}

// Heartbeat records a datanode's liveness and storage report.
func (n *Namesystem) Heartbeat(id netsim.NodeID, used int64, now time.Duration) {
	d, ok := n.dns[id]
	if !ok {
		return
	}
	d.lastHB = now
	d.used = used
	d.alive = true
}

// AliveDatanodes returns the IDs of live datanodes in sorted order.
func (n *Namesystem) AliveDatanodes() []netsim.NodeID {
	var out []netsim.NodeID
	for _, id := range n.dnOrder {
		if n.dns[id].alive {
			out = append(out, id)
		}
	}
	return out
}

// CheckDatanodes marks datanodes dead whose heartbeat is older than the
// timeout and strips them from block locations. It returns the newly dead.
func (n *Namesystem) CheckDatanodes(now time.Duration) []netsim.NodeID {
	var dead []netsim.NodeID
	for _, id := range n.dnOrder {
		d := n.dns[id]
		if !d.alive || now-d.lastHB <= n.cfg.DatanodeTimeout {
			continue
		}
		d.alive = false
		dead = append(dead, id)
		for bid := range d.blocks {
			if bm, ok := n.blocks[bid]; ok {
				delete(bm.locs, id)
				bm.pendingRepl = false // re-examine for replication
			}
		}
		d.blocks = make(map[BlockID]struct{})
		d.used, d.scheduled = 0, 0
	}
	return dead
}

// ReplicationTask describes one block copy needed to restore replication.
type ReplicationTask struct {
	Block  BlockID
	Size   int64
	Source netsim.NodeID
	Target netsim.NodeID
}

// ReplicationTasks returns up to limit re-replication tasks for
// under-replicated committed blocks, marking them pending.
func (n *Namesystem) ReplicationTasks(limit int) []ReplicationTask {
	var tasks []ReplicationTask
	ids := make([]BlockID, 0, len(n.blocks))
	for id := range n.blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if len(tasks) >= limit {
			break
		}
		bm := n.blocks[id]
		if bm.pendingRepl || bm.size == 0 || len(bm.locs) == 0 || len(bm.locs) >= n.cfg.Replication {
			continue
		}
		var src netsim.NodeID = -1
		var exclude []netsim.NodeID
		for dn := range bm.locs {
			if src == -1 || dn < src {
				src = dn
			}
			exclude = append(exclude, dn)
		}
		targets, err := n.choosePlacement(-1, 1, bm.size, exclude)
		if err != nil || len(targets) == 0 {
			continue
		}
		bm.pendingRepl = true
		n.dns[targets[0]].scheduled += bm.size
		tasks = append(tasks, ReplicationTask{Block: id, Size: bm.size, Source: src, Target: targets[0]})
	}
	return tasks
}

// BlockFile returns the path of the file owning a block.
func (n *Namesystem) BlockFile(id BlockID) (string, bool) {
	bm, ok := n.blocks[id]
	if !ok {
		return "", false
	}
	return bm.file, true
}

// choosePlacement implements rack-aware placement: first replica on the
// writer's node when possible, second on a different rack, third on the
// second's rack, the rest random — always skipping dead, excluded, or full
// datanodes.
func (n *Namesystem) choosePlacement(writer netsim.NodeID, replicas int, blockSize int64, exclude []netsim.NodeID) ([]netsim.NodeID, error) {
	excluded := make(map[netsim.NodeID]struct{}, len(exclude))
	for _, e := range exclude {
		excluded[e] = struct{}{}
	}
	usable := func(d *dnState) bool {
		if d == nil || !d.alive || d.free() < blockSize {
			return false
		}
		_, ex := excluded[d.id]
		return !ex
	}
	var candidates []*dnState
	for _, id := range n.dnOrder {
		if d := n.dns[id]; usable(d) {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: no usable datanode for %d-byte block", dfs.ErrNoSpace, blockSize)
	}
	if replicas > len(candidates) {
		replicas = len(candidates)
	}
	chosen := make([]*dnState, 0, replicas)
	taken := make(map[netsim.NodeID]struct{}, replicas)
	pick := func(pred func(*dnState) bool) *dnState {
		var pool []*dnState
		for _, d := range candidates {
			if _, t := taken[d.id]; t {
				continue
			}
			if pred == nil || pred(d) {
				pool = append(pool, d)
			}
		}
		if len(pool) == 0 {
			return nil
		}
		return pool[n.rng.Intn(len(pool))]
	}
	// First replica: the writer's own datanode if usable.
	if d, ok := n.dns[writer]; ok && usable(d) {
		chosen = append(chosen, d)
		taken[d.id] = struct{}{}
	}
	for len(chosen) < replicas {
		var next *dnState
		switch len(chosen) {
		case 0:
			next = pick(nil)
		case 1:
			r := chosen[0].rack
			next = pick(func(d *dnState) bool { return d.rack != r })
		case 2:
			r := chosen[1].rack
			next = pick(func(d *dnState) bool { return d.rack == r })
		default:
			next = pick(nil)
		}
		if next == nil {
			next = pick(nil) // relax the rack constraint
		}
		if next == nil {
			break
		}
		chosen = append(chosen, next)
		taken[next.id] = struct{}{}
	}
	out := make([]netsim.NodeID, len(chosen))
	for i, d := range chosen {
		out[i] = d.id
	}
	return out, nil
}

// UnscheduleBlock releases the tentative space reservations for targets of
// a block whose pipeline was abandoned.
func (n *Namesystem) UnscheduleBlock(targets []netsim.NodeID) {
	for _, t := range targets {
		if d, ok := n.dns[t]; ok {
			if d.scheduled >= n.cfg.BlockSize {
				d.scheduled -= n.cfg.BlockSize
			} else {
				d.scheduled = 0
			}
		}
	}
}

// TotalUsed returns the bytes reported used across all datanodes.
func (n *Namesystem) TotalUsed() int64 {
	var total int64
	for _, d := range n.dns {
		total += d.used
	}
	return total
}
