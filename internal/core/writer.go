package core

import (
	"fmt"
	"sort"

	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
	"hbb/internal/storage"
)

// maxBlockRetries bounds per-block reassignments after server failures.
const maxBlockRetries = 3

// Create implements dfs.FileSystem.
func (fs *Instance) Create(p *sim.Proc, client netsim.NodeID, path string) (dfs.Writer, error) {
	if rep := fs.callMgr(p, client, "create", fs.pathReq(path)); rep.Err != nil {
		return nil, rep.Err
	}
	return &bbWriter{fs: fs, client: client, path: path}, nil
}

// bbWriter streams a file into the burst buffer, block by block, applying
// the side channels and persistence mode planBlock chose for each block.
// The writer owns the tee machinery and the flush dispatch.
type bbWriter struct {
	fs     *Instance
	client netsim.NodeID
	path   string

	cur        *bbBlock
	curWritten int64
	itemFill   int64 // bytes accumulated in the current (unissued) item
	closed     bool

	// plan is the current block's write plan.
	plan blockPlan
	// Side channels for the current block, opened per the plan.
	lustreTee *blockTee // write-through channel: server tees chunks to Lustre
	localTee  *blockTee // local-device replica channel
}

// blockTee forwards chunk sizes to a secondary sink in parallel with the
// buffer write.
type blockTee struct {
	in   *sim.Store[int64]
	done *sim.Event
	err  error
}

func (t *blockTee) push(p *sim.Proc, n int64) { t.in.PutWait(p, n) }
func (t *blockTee) finish(p *sim.Proc) error {
	t.in.Close()
	t.done.Wait(p)
	return t.err
}

// openBlock allocates the next block, reserves a full block of buffer
// space on every replica server (admission control at block granularity —
// a block that starts streaming is guaranteed to finish and become
// flushable, so writers can never deadlock the buffer with partial
// blocks), plans the block, and opens the planned side channels.
func (w *bbWriter) openBlock(p *sim.Proc) error {
	rep := w.fs.callMgr(p, w.client, "addBlock", &mgrAddBlockReq{inst: w.fs, path: w.path, client: w.client})
	if rep.Err != nil {
		return rep.Err
	}
	w.cur = rep.Payload.(*bbBlock)
	w.curWritten = 0
	w.itemFill = 0
	if err := w.reserve(p); err != nil {
		return err
	}
	w.fs.openBlocks++ // before planning: bb-adaptive counts this stream as load
	w.plan = w.fs.planBlock()
	w.startTees(p)
	return nil
}

// reserve performs block-granularity admission on each replica server.
// Servers are acquired in canonical (index) order so that concurrent
// writers reserving overlapping replica sets cannot deadlock in a
// hold-and-wait cycle.
func (w *bbWriter) reserve(p *sim.Proc) error {
	b := w.cur
	ordered := append([]*BufferServer(nil), b.srvs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].index < ordered[j].index })
	for i, s := range ordered {
		if err := s.ensureSpace(p, w.fs.cfg.BlockSize); err != nil {
			// Roll back earlier reservations of this block.
			for _, prev := range ordered[:i] {
				prev.bytes -= w.fs.cfg.BlockSize
				prev.signalFlushProgress()
			}
			return err
		}
		s.bytes += w.fs.cfg.BlockSize
	}
	return nil
}

// startTees launches the secondary sinks planned for the current block.
func (w *bbWriter) startTees(p *sim.Proc) {
	w.lustreTee, w.localTee = nil, nil
	if w.plan.writeThrough {
		w.startLustreTee(p)
	}
	if w.plan.localTee {
		w.startLocalTee(p)
	}
}

// startLustreTee opens the write-through channel: the primary server tees
// every chunk to a Lustre file in parallel with the buffer write.
func (w *bbWriter) startLustreTee(p *sim.Proc) {
	b := w.cur
	fs := w.fs
	tee := &blockTee{in: sim.NewBounded[int64](prefetchWindow), done: &sim.Event{}}
	w.lustreTee = tee
	srvNode := b.primary().phys.node
	fs.cl.Env.Spawn(fmt.Sprintf("bb.synctee.b%d", b.id), func(q *sim.Proc) {
		defer tee.done.Trigger()
		path := fs.blockLustrePath(b)
		lw, err := fs.backing.Create(q, srvNode, path)
		if err != nil {
			tee.err = err
			drain(q, tee.in)
			return
		}
		for {
			n, ok := tee.in.Get(q)
			if !ok {
				break
			}
			if tee.err == nil {
				if err := lw.Write(q, n); err != nil {
					tee.err = err
				}
			}
		}
		if tee.err == nil {
			tee.err = lw.Close(q)
		}
		if tee.err == nil {
			b.lustrePath = path
		}
	})
}

// startLocalTee opens the locality channel: a replica of the block streams
// to the writing client's node-local storage. If no local device has room
// the block degrades gracefully to the plain buffered path.
func (w *bbWriter) startLocalTee(p *sim.Proc) {
	b := w.cur
	fs := w.fs
	dev := w.pickLocalDevice()
	if dev == nil {
		return // no local space: degrade gracefully to the async path
	}
	if err := dev.Alloc(fs.cfg.BlockSize); err != nil {
		return
	}
	tee := &blockTee{in: sim.NewBounded[int64](prefetchWindow), done: &sim.Event{}}
	w.localTee = tee
	client := w.client
	fs.cl.Env.Spawn(fmt.Sprintf("bb.localtee.b%d", b.id), func(q *sim.Proc) {
		defer tee.done.Trigger()
		var written int64
		for {
			n, ok := tee.in.Get(q)
			if !ok {
				break
			}
			dev.Write(q, n)
			written += n
		}
		dev.Dealloc(fs.cfg.BlockSize - written)
		if tee.err == nil && written > 0 {
			b.localNode = client
			b.localDev = dev
		} else {
			dev.Dealloc(written)
		}
	})
}

func drain(p *sim.Proc, st *sim.Store[int64]) {
	for {
		if _, ok := st.Get(p); !ok {
			return
		}
	}
}

// pickLocalDevice chooses the fastest local device with room for a block.
func (w *bbWriter) pickLocalDevice() *storage.Device {
	node := w.fs.cl.Node(w.client)
	if node == nil {
		return nil
	}
	for _, d := range node.LocalDevices() {
		if d.Free() >= w.fs.cfg.BlockSize {
			return d
		}
	}
	return nil
}

// Write implements dfs.Writer.
func (w *bbWriter) Write(p *sim.Proc, n int64) error {
	if w.closed {
		return dfs.ErrClosed
	}
	for n > 0 {
		if w.cur == nil {
			if err := w.openBlock(p); err != nil {
				return err
			}
		}
		m := min64(n, w.fs.cfg.BlockSize-w.curWritten)
		if err := w.streamBytes(p, m); err != nil {
			if err2 := w.retryBlock(p); err2 != nil {
				return err2
			}
			continue
		}
		w.curWritten += m
		n -= m
		if w.curWritten == w.fs.cfg.BlockSize {
			if err := w.finishBlock(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamBytes pushes m bytes of the current block into the buffer (every
// replica server) and the tees, issuing one KV set per full item chunk.
func (w *bbWriter) streamBytes(p *sim.Proc, m int64) error {
	fs := w.fs
	b := w.cur
	for m > 0 {
		c := min64(m, fs.cfg.ItemChunk-w.itemFill)
		for _, s := range b.srvs {
			if s.phys.failed {
				return netsim.ErrNodeDown
			}
			if err := fs.net.RDMAWriteFlow(p, w.client, s.phys.node, c); err != nil {
				return err
			}
			s.phys.ingest.TransferFlat(p, c)
		}
		w.itemFill += c
		b.size += c
		fs.stats.BytesWritten += c
		if w.itemFill == fs.cfg.ItemChunk {
			if err := w.issueItem(p); err != nil {
				return err
			}
		}
		if w.lustreTee != nil {
			w.lustreTee.push(p, c)
		}
		if w.localTee != nil {
			w.localTee.push(p, c)
		}
		m -= c
	}
	return nil
}

// issueItem inserts the accumulated item into every replica server's KV
// engine.
func (w *bbWriter) issueItem(p *sim.Proc) error {
	b := w.cur
	idx := (b.size - 1) / w.fs.cfg.ItemChunk
	key := itemKey(b.key, idx)
	for _, s := range b.srvs {
		rep := w.fs.net.Call(p, &netsim.Msg{
			From: w.client, To: s.phys.node, Service: bbService, Op: "set",
			Size: 64, Payload: &bbSetReq{key: key, size: w.itemFill},
		})
		if rep.Err != nil {
			w.itemFill = 0
			return rep.Err
		}
	}
	w.itemFill = 0
	return nil
}

// cleanupTees settles the side channels of a failed block attempt.
func (w *bbWriter) cleanupTees(p *sim.Proc) {
	b := w.cur
	if w.lustreTee != nil {
		_ = w.lustreTee.finish(p)
		w.lustreTee = nil
	}
	if w.localTee != nil {
		_ = w.localTee.finish(p)
		w.localTee = nil
		if b.localDev != nil {
			b.localDev.Dealloc(b.size)
			b.localDev, b.localNode = nil, -1
		}
	}
	// Release the block reservations on the failed attempt's servers
	// (already zeroed where a crash reset the server).
	for _, s := range b.srvs {
		if s.phys.failed {
			continue
		}
		s.bytes -= w.fs.cfg.BlockSize
		if s.bytes < 0 {
			s.bytes = 0
		}
		s.signalFlushProgress()
	}
}

// retryBlock reassigns the current block to another server after a failure
// and rewrites its bytes.
func (w *bbWriter) retryBlock(p *sim.Proc) error {
	b := w.cur
	for attempt := 0; attempt < maxBlockRetries; attempt++ {
		w.cleanupTees(p)
		rewind := b.size
		b.size = 0
		rep := w.fs.callMgr(p, w.client, "reassignBlock", b)
		if rep.Err != nil {
			return rep.Err
		}
		w.curWritten = 0
		w.itemFill = 0
		if err := w.reserve(p); err != nil {
			return err
		}
		w.startTees(p)
		if rewind > 0 {
			if err := w.streamBytes(p, rewind); err != nil {
				continue
			}
			w.curWritten = rewind
		}
		return nil
	}
	return fmt.Errorf("core: block %d failed %d servers", b.id, maxBlockRetries)
}

// finishBlock seals the current block: flushes the partial item, settles
// the planned side channels, registers occupancy, marks a written-through
// block clean or queues the block for the flushers, and commits metadata.
func (w *bbWriter) finishBlock(p *sim.Proc) error {
	fs := w.fs
	b := w.cur
	if w.itemFill > 0 {
		if err := w.issueItem(p); err != nil {
			if err2 := w.retryBlock(p); err2 != nil {
				return err2
			}
			return w.finishBlock(p)
		}
	}
	// Swap the block-size reservation for the actual footprint and
	// register residency on each holder; a smaller-than-block tail frees
	// space, so wake any stalled reservers.
	for _, s := range b.srvs {
		s.bytes -= fs.cfg.BlockSize // admitted() adds the real size back
		s.admitted(b)
		if b.size < fs.cfg.BlockSize {
			s.signalFlushProgress()
		}
	}
	if w.localTee != nil {
		_ = w.localTee.finish(p)
	}
	if w.plan.writeThrough {
		if err := w.lustreTee.finish(p); err != nil {
			return fmt.Errorf("core: sync flush failed: %w", err)
		}
		b.state = stateClean
		for _, s := range b.srvs {
			s.cleanLRU = append(s.cleanLRU, b)
		}
		fs.stats.BytesFlushed += b.size
	} else {
		b.state = stateDirty
		b.primary().enqueueDirty(b, false)
	}
	if rep := fs.callMgr(p, w.client, "commitBlock", &mgrCommitReq{path: w.path, block: b}); rep.Err != nil {
		return rep.Err
	}
	fs.openBlocks--
	w.cur = nil
	w.lustreTee, w.localTee = nil, nil
	return nil
}

// Close implements dfs.Writer.
func (w *bbWriter) Close(p *sim.Proc) error {
	if w.closed {
		return dfs.ErrClosed
	}
	w.closed = true
	if w.cur != nil {
		if err := w.finishBlock(p); err != nil {
			return err
		}
	}
	return w.fs.callMgr(p, w.client, "complete", w.fs.pathReq(w.path)).Err
}
