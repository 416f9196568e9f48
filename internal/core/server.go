package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// serverNode is one physical RDMA-Memcached node of the burst-buffer
// pool: the fabric endpoint and its control service, and the SET-side
// ingest pipe. Instances hold BufferServer shares of it; the physical
// resources — and therefore contention between instances — stay here.
// What the node stores is its shares' ledgers: a block's chunks are
// present while the block holds the share.
type serverNode struct {
	pool  *BurstFS
	index int
	name  string
	node  netsim.NodeID
	svc   *dfs.Service
	// ingest models the server's SET-side processing bandwidth; one-sided
	// GETs bypass it.
	ingest *sim.Pipe
	failed bool
	// bricksUsed is the capacity already granted to metered instances.
	bricksUsed int
}

func newServerNode(fs *BurstFS, index int) *serverNode {
	ph := &serverNode{
		pool:  fs,
		index: index,
		name:  fmt.Sprintf("bbsrv%d", index),
		node:  fs.net.AddNode(),
	}
	ph.ingest = sim.NewPipe(ph.name+".ingest", serverIngestRate)
	ph.svc = dfs.NewService(fs.net, dfs.ServiceConfig{
		Name: "bb", Node: ph.node, ReqSize: 64, OpLatency: serverOpLatency,
	})
	return ph
}

// set is the control RPC of a buffer SET of one chunk, from a client on
// node from. It stores nothing: the payload is charged separately (RDMA
// write, ingest pipe) and the block's ledger already counts its bytes.
func (ph *serverNode) set(p *sim.Proc, from netsim.NodeID) error {
	return ph.svc.Call(p, from, func(*sim.Proc) (int64, error) { return 32, nil })
}

// BufferServer is one instance's share of a physical buffer server: its
// byte budget there plus all flush/eviction state for the blocks the
// instance keeps on that node. The default instance's shares span full
// server memory, making them indistinguishable from the pre-instance
// single-tenant servers.
type BufferServer struct {
	fs   *Instance
	phys *serverNode
	// index/name mirror the physical server's (ring keys, spawn names).
	index int
	name  string
	// limit is the share's byte budget; the writer-stall watermark applies
	// to it (budget = limit × HighWatermark).
	limit int64

	// bytes sums the holds of the blocks in holders: resident payload
	// plus the reservations of blocks being written or staged in. Only
	// the ledger (ledger.go) changes either.
	bytes   int64
	holders map[*bbBlock]struct{}
	// wakeups carries one token per enqueued dirty block to the flusher
	// pool; each popped token triggers one sched.next() run claim.
	wakeups *sim.Store[struct{}]
	// sched orders the dirty blocks awaiting flush (see scheduler.go).
	sched flushScheduler
	// flushInflight is the payload currently being copied to Lustre by the
	// flusher pool, bounded by Flushers × FlushBatchBlocks × BlockSize.
	flushInflight int64
	// cleanLRU orders clean blocks for explicit eviction (head = oldest).
	cleanLRU []*bbBlock
	// flushing counts blocks currently being copied to Lustre.
	flushing int
	// flushProgress fires whenever a flush completes, releasing writers
	// stalled on a full buffer.
	flushProgress *sim.Event
}

func newBufferServer(inst *Instance, ph *serverNode, limit int64) *BufferServer {
	s := &BufferServer{
		fs:            inst,
		phys:          ph,
		index:         ph.index,
		name:          ph.name,
		limit:         limit,
		wakeups:       sim.NewStore[struct{}](),
		holders:       make(map[*bbBlock]struct{}),
		flushProgress: &sim.Event{},
	}
	s.sched = newFlushScheduler(s, inst.cfg.FlushBatchBlocks)
	return s
}

// holdersByID returns the blocks holding space on the share sorted by
// block ID — the deterministic iteration order teardown paths need.
func (s *BufferServer) holdersByID() []*bbBlock {
	return slices.SortedFunc(maps.Keys(s.holders), func(a, b *bbBlock) int { return cmp.Compare(a.id, b.id) })
}

// enqueueDirty hands a dirty block to the flusher pool. urgent marks
// pressure work (crash requeues) that the scheduler flushes ahead of
// background stage-out. Callback-safe: nothing here yields.
func (s *BufferServer) enqueueDirty(b *bbBlock, urgent bool) {
	s.sched.enqueue(b, urgent)
	s.wakeups.Put(struct{}{})
}

// requeueDirty re-enqueues a block after a transient flush failure as
// urgent work, tolerating wake-ups closed by a concurrent Shutdown.
func (s *BufferServer) requeueDirty(p *sim.Proc, b *bbBlock) {
	s.sched.enqueue(b, true)
	s.wakeups.PutWait(p, struct{}{})
}

// dirtyBacklog counts blocks awaiting flush. The wake-up tokens may
// outnumber them after multi-block claims, so the scheduler's pending
// index is authoritative.
func (s *BufferServer) dirtyBacklog() int { return len(s.sched.pending) }

// setChunk stores one chunk of size bytes: the payload moves via
// one-sided RDMA write, then a small control RPC completes the SET.
func (s *BufferServer) setChunk(p *sim.Proc, client netsim.NodeID, size int64) error {
	if err := s.fs.net.RDMAWriteFlow(p, client, s.phys.node, size); err != nil {
		return err
	}
	s.phys.ingest.TransferFlat(p, size)
	return s.phys.set(p, client)
}

// get is the control RPC of a buffer GET, before its one-sided RDMA read:
// chunk i of block b is present, and its size returned, while b holds the
// share; otherwise the reply is dfs.ErrNotFound, at the same cost.
func (s *BufferServer) get(p *sim.Proc, from netsim.NodeID, b *bbBlock, i int) (int64, error) {
	var size int64
	err := s.phys.svc.Call(p, from, func(*sim.Proc) (int64, error) {
		if _, ok := s.holders[b]; !ok {
			return 32, dfs.ErrNotFound
		}
		size = b.chunk(i)
		return 32, nil
	})
	return size, err
}

// getChunk fetches chunk i of block b: a small control RPC looks it up,
// then the payload moves via one-sided RDMA read.
func (s *BufferServer) getChunk(p *sim.Proc, client netsim.NodeID, b *bbBlock, i int) (int64, error) {
	size, err := s.get(p, client, b, i)
	if err != nil {
		return 0, err
	}
	if err := s.fs.net.RDMAReadFlow(p, client, s.phys.node, size); err != nil {
		return 0, err
	}
	return size, nil
}

// admitClean makes s the only holder of an evicted block whose bytes it
// just fetched back from Lustre (a read readmission or a stage-in): the
// block turns clean and evictable.
func (s *BufferServer) admitClean(b *bbBlock) {
	b.srvs = []*BufferServer{s}
	b.takeShare(s, b.size)
	b.move(stateClean)
}

// onServer reports whether the block still holds a replica on s.
func (b *bbBlock) onServer(s *BufferServer) bool { return slices.Contains(b.srvs, s) }

// budget returns the writer-stall threshold in bytes.
func (s *BufferServer) budget() int64 {
	return int64(float64(s.limit) * HighWatermark)
}

// ensureSpace blocks the writer until size more bytes fit under the
// watermark, evicting clean blocks first and then waiting on flush
// progress. This is the burst buffer's backpressure: dirty data is never
// evicted.
func (s *BufferServer) ensureSpace(p *sim.Proc, size int64) error {
	for s.bytes+size > s.budget() {
		if s.phys.failed {
			return netsim.ErrNodeDown
		}
		if len(s.cleanLRU) > 0 {
			victim := s.cleanLRU[0]
			s.cleanLRU = s.cleanLRU[1:]
			if victim.state != stateClean || !victim.onServer(s) {
				continue // deleted, re-dirtied, or already dropped here
			}
			victim.releaseShare(s)
			victim.dropServer(s)
			if victim.primary() == nil {
				victim.move(stateEvicted)
			}
			s.fs.stats.Evictions++
			continue
		}
		// Nothing clean: wait for the flusher pool to make progress.
		s.fs.stats.WriterStalls++
		start := p.Now()
		ev := s.flushProgress
		ev.Wait(p)
		s.fs.metrics.Histogram("writer.stall.s").Observe((p.Now() - start).Seconds())
	}
	return nil
}

// signalFlushProgress wakes writers stalled in ensureSpace.
func (s *BufferServer) signalFlushProgress() {
	ev := s.flushProgress
	s.flushProgress = &sim.Event{}
	ev.Trigger()
}
