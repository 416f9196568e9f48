package core

import (
	"fmt"
	"sort"

	"hbb/internal/memcached"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// bbService is the fabric service name of a buffer server.
const bbService = "bb"

// serverNode is one physical RDMA-Memcached node of the burst-buffer
// pool: the fabric endpoint, the memcached engine, and the SET-side
// ingest pipe. Instances hold BufferServer shares of it; the physical
// resources — and therefore contention between instances — stay here.
type serverNode struct {
	pool   *BurstFS
	index  int
	name   string
	node   netsim.NodeID
	engine *memcached.Engine
	// ingest models the server's SET-side processing bandwidth; one-sided
	// GETs bypass it.
	ingest *sim.Pipe
	failed bool
	// bricksUsed is the capacity already granted to metered instances.
	bricksUsed int

	setOps, getOps int64
}

func newServerNode(fs *BurstFS, index int) *serverNode {
	ph := &serverNode{
		pool:  fs,
		index: index,
		name:  fmt.Sprintf("bbsrv%d", index),
		node:  fs.net.AddNode(),
		engine: memcached.NewEngine(memcached.Config{
			MemLimit:    fs.cfg.ServerMemory,
			MaxItemSize: int(fs.cfg.ItemChunk) + 512,
			Clock:       func() int64 { return int64(fs.cl.Env.Now()) },
		}),
	}
	ph.ingest = sim.NewPipe(ph.name+".ingest", serverIngestRate)
	fs.net.Register(ph.node, bbService, ph.handle)
	return ph
}

// handle serves the control-plane side of buffer operations. Payload
// transfers are charged separately by the client via RDMA read/write.
func (ph *serverNode) handle(p *sim.Proc, m *netsim.Msg) netsim.Reply {
	p.Sleep(serverOpLatency)
	switch m.Op {
	case "set":
		req := m.Payload.(*bbSetReq)
		ph.setOps++
		if _, err := ph.engine.Set(memcached.Item{Key: req.key, Size: int(req.size)}); err != nil {
			return netsim.Reply{Size: 32, Err: err}
		}
		return netsim.Reply{Size: 32}
	case "get":
		req := m.Payload.(string)
		ph.getOps++
		it, err := ph.engine.Get(req)
		if err != nil {
			return netsim.Reply{Size: 32, Err: err}
		}
		return netsim.Reply{Size: 32, Payload: int64(it.Size)}
	case "delete":
		req := m.Payload.(string)
		err := ph.engine.Delete(req)
		return netsim.Reply{Size: 32, Err: err}
	default:
		return netsim.Reply{Err: fmt.Errorf("core: unknown bb op %q", m.Op)}
	}
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

	// bytes is the payload currently resident (dirty+flushing+clean).
	bytes int64
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
	// resident is the set of blocks whose payload lives on this share.
	resident map[*bbBlock]struct{}
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
		resident:      make(map[*bbBlock]struct{}),
		flushProgress: &sim.Event{},
	}
	s.sched = newFlushScheduler(s, inst.cfg.FlushBatchBlocks)
	return s
}

// residentByID returns the share's resident blocks sorted by block ID —
// the deterministic iteration order teardown paths need.
func (s *BufferServer) residentByID() []*bbBlock {
	out := make([]*bbBlock, 0, len(s.resident))
	for b := range s.resident {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
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

type bbSetReq struct {
	key  string
	size int64
}

// setChunk stores one chunk: the payload moves via one-sided RDMA write,
// then a small control RPC inserts the virtual item.
func (s *BufferServer) setChunk(p *sim.Proc, client netsim.NodeID, key string, size int64) error {
	if err := s.fs.net.RDMAWriteFlow(p, client, s.phys.node, size); err != nil {
		return err
	}
	s.phys.ingest.TransferFlat(p, size)
	rep := s.fs.net.Call(p, &netsim.Msg{
		From: client, To: s.phys.node, Service: bbService, Op: "set",
		Size: 64, Payload: &bbSetReq{key: key, size: size},
	})
	return rep.Err
}

// getChunk fetches one chunk: a small control RPC resolves the item, then
// the payload moves via one-sided RDMA read.
func (s *BufferServer) getChunk(p *sim.Proc, client netsim.NodeID, key string) (int64, error) {
	rep := s.fs.net.Call(p, &netsim.Msg{
		From: client, To: s.phys.node, Service: bbService, Op: "get",
		Size: 64, Payload: key,
	})
	if rep.Err != nil {
		return 0, rep.Err
	}
	size := rep.Payload.(int64)
	if err := s.fs.net.RDMAReadFlow(p, client, s.phys.node, size); err != nil {
		return 0, err
	}
	return size, nil
}

// deleteBlock removes all of a block's items from the engine and adjusts
// occupancy. It is invoked from manager-side logic (evictions, file
// deletes) and costs no fabric time: the manager piggybacks invalidations
// on its existing control traffic.
func (s *BufferServer) deleteBlock(b *bbBlock) {
	for _, k := range s.fs.itemKeys(b) {
		_ = s.phys.engine.Delete(k)
	}
	s.bytes -= b.size
	if s.bytes < 0 {
		s.bytes = 0
	}
	delete(s.resident, b)
}

// admitted records a block's payload arrival.
func (s *BufferServer) admitted(b *bbBlock) {
	s.bytes += b.size
	s.resident[b] = struct{}{}
}

// admitClean makes s the only holder of an evicted block whose bytes it
// just fetched back from Lustre (a read readmission or a stage-in): the
// block turns clean and evictable.
func (s *BufferServer) admitClean(b *bbBlock) {
	b.srvs = []*BufferServer{s}
	s.admitted(b)
	b.state = stateClean
	s.cleanLRU = append(s.cleanLRU, b)
	s.fs.stats.Readmissions++
}

// onServer reports whether the block still holds a replica on s.
func (b *bbBlock) onServer(s *BufferServer) bool {
	for _, cand := range b.srvs {
		if cand == s {
			return true
		}
	}
	return false
}

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
			s.deleteBlock(victim)
			victim.dropServer(s)
			if victim.primary() == nil {
				victim.state = stateEvicted
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
