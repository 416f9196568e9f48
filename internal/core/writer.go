package core

import (
	"fmt"
	"sort"

	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// maxBlockRetries bounds per-block reassignments after server failures.
const maxBlockRetries = 3

// Create implements dfs.FileSystem.
func (fs *Instance) Create(p *sim.Proc, client netsim.NodeID, path string) (dfs.Writer, error) {
	err := fs.mgr.Call(p, client, func(*sim.Proc) (int64, error) {
		_, err := fs.tree.CreateFile(path)
		return 64, err
	})
	if err != nil {
		return nil, err
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

	cur    *bbBlock
	closed bool

	// plan is the current block's write plan.
	plan blockPlan
	// Side channels for the current block, opened per the plan.
	lustreTee *blockTee // write-through channel: server tees chunks to Lustre
	localTee  *blockTee // local-device replica channel
}

// blockTee is a side channel of one block attempt: a sink process
// consumes the size of every chunk the writer streams to the buffer.
type blockTee struct {
	in   *sim.Store[int64]
	done sim.Event
	err  error
}

// startTee spawns a side channel of the current block; sink reads the
// chunk sizes until the writer closes the channel and returns its error.
func (w *bbWriter) startTee(kind string, sink func(q *sim.Proc, in *sim.Store[int64]) error) *blockTee {
	t := &blockTee{in: sim.NewBounded[int64](prefetchWindow)}
	w.fs.cl.Env.Spawn(fmt.Sprintf("bb.%s.b%d", kind, w.cur.id), func(q *sim.Proc) {
		t.err = sink(q, t.in)
		t.done.Trigger()
	})
	return t
}

// begin starts an attempt of the current block. It reserves a full block
// on each replica server, in index order so that writers with overlapping
// replica sets cannot deadlock (admission at block granularity: a block
// that starts streaming can always finish and become flushable). The
// first admitted attempt takes the writer's slot and plans the block.
// Then it opens the planned side channels and rewrites the rewind bytes
// of a failed attempt. A failure leaves what it took to endAttempt.
func (w *bbWriter) begin(p *sim.Proc, rewind int64) error {
	b := w.cur
	b.size = 0
	ordered := append([]*BufferServer(nil), b.srvs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].index < ordered[j].index })
	for _, s := range ordered {
		if err := s.ensureSpace(p, w.fs.cfg.BlockSize); err != nil {
			return err
		}
		b.takeShare(s, w.fs.cfg.BlockSize)
	}
	if !b.open {
		b.takeOpen() // before planning: bb-adaptive counts this stream as load
		w.plan = w.fs.planBlock()
	}
	w.startTees(p)
	return w.streamBytes(p, rewind)
}

// startTees opens the side channels planned for the current block. The
// write-through channel tees every chunk from the primary server to the
// block's Lustre object, discarding it if a write fails or the block was
// deleted. The locality channel writes a replica to the fastest device of
// the writer's node with room for a block (without one the block degrades
// to the async path); its block-size reservation becomes the replica's
// footprint when it ends, unless a delete released it.
func (w *bbWriter) startTees(p *sim.Proc) {
	fs, b := w.fs, w.cur
	w.lustreTee, w.localTee = nil, nil
	if w.plan.writeThrough {
		srvNode := b.primary().phys.node
		w.lustreTee = w.startTee("synctee", func(q *sim.Proc, in *sim.Store[int64]) error {
			path := fs.pool.blockLustrePath(b)
			lw, cerr := fs.backing.Create(q, srvNode, path)
			err := cerr
			for n, ok := in.Get(q); ok; n, ok = in.Get(q) {
				if err == nil {
					err = lw.Write(q, n)
				}
			}
			if cerr != nil {
				return err // no object was created
			}
			if err == nil {
				err = lw.Close(q)
			}
			if err != nil || b.state == stateDeleted {
				fs.discardObject(q, srvNode, path)
				return err
			}
			b.lustrePath = path
			return nil
		})
	}
	node := fs.cl.Node(w.client)
	if !w.plan.localTee || node == nil {
		return
	}
	for _, dev := range node.LocalDevices() {
		if dev.Free() < fs.cfg.BlockSize || b.takeLocal(dev, fs.cfg.BlockSize) != nil {
			continue
		}
		client := w.client
		w.localTee = w.startTee("localtee", func(q *sim.Proc, in *sim.Store[int64]) error {
			var written int64
			for n, ok := in.Get(q); ok; n, ok = in.Get(q) {
				dev.Write(q, n)
				written += n
			}
			if b.localDev == nil {
				return nil // a delete released the reservation
			}
			b.releaseLocal()
			if written > 0 && b.state != stateDeleted {
				_ = b.takeLocal(dev, written) // fits: the reservation was larger
				b.localNode = client
			}
			return nil
		})
		return
	}
}

// Write implements dfs.Writer.
func (w *bbWriter) Write(p *sim.Proc, n int64) error {
	if w.closed {
		return dfs.ErrClosed
	}
	for n > 0 {
		var err error
		if w.cur == nil {
			if err := w.addBlock(p); err != nil {
				return err
			}
			err = w.begin(p, 0)
		}
		if err == nil {
			before := w.cur.size
			err = w.streamBytes(p, min(n, w.fs.cfg.BlockSize-before))
			n -= w.cur.size - before // the block keeps them; a restart rewrites them
			if err == nil && w.cur.size < w.fs.cfg.BlockSize {
				continue
			}
		}
		if err := w.endAttempt(p, err); err != nil {
			return err
		}
	}
	return nil
}

// addBlock has the manager append a block to the file, born open (its
// writer's until endAttempt) and placed on the ring's live servers.
func (w *bbWriter) addBlock(p *sim.Proc) error {
	inst := w.fs
	var b *bbBlock
	err := inst.mgr.Call(p, w.client, func(*sim.Proc) (int64, error) {
		f, err := inst.tree.GetFile(w.path)
		if err != nil {
			return 64, err
		}
		if !f.UnderConstruction {
			return 64, fmt.Errorf("%w: %q", dfs.ErrReadOnly, w.path)
		}
		b = inst.pool.newBlock(inst, f, stateOpen)
		if b.srvs, err = inst.pickServers(b.key); err != nil {
			return 64, err
		}
		filePayload(f).blocks = append(filePayload(f).blocks, b)
		return 96, nil
	})
	if err == nil {
		w.cur = b
	}
	return err
}

// streamBytes pushes m bytes of the current block into the buffer (every
// replica server) and the tees, issuing one KV set per full item chunk.
func (w *bbWriter) streamBytes(p *sim.Proc, m int64) error {
	fs := w.fs
	b := w.cur
	for m > 0 {
		c := min(m, fs.cfg.ItemChunk-b.size%fs.cfg.ItemChunk)
		for _, s := range b.srvs {
			if s.phys.failed {
				return netsim.ErrNodeDown
			}
			if err := fs.net.RDMAWriteFlow(p, w.client, s.phys.node, c); err != nil {
				return err
			}
			s.phys.ingest.TransferFlat(p, c)
		}
		b.size += c
		fs.stats.BytesWritten += c
		if b.size%fs.cfg.ItemChunk == 0 {
			if err := w.issueItem(p); err != nil {
				return err
			}
		}
		if w.lustreTee != nil {
			w.lustreTee.in.PutWait(p, c)
		}
		if w.localTee != nil {
			w.localTee.in.PutWait(p, c)
		}
		m -= c
	}
	return nil
}

// issueItem completes the SET of the block's last chunk, the bytes
// streamed since the previous one, on every replica server.
func (w *bbWriter) issueItem(p *sim.Proc) error {
	for _, s := range w.cur.srvs {
		if err := s.phys.set(p, w.client); err != nil {
			return err
		}
	}
	return nil
}

// endAttempt is the writer's one exit from a block attempt, on every path
// out of one: the block is full or the writer closing (err == nil), or
// the stream failed. It seals an intact attempt, settles the side
// channels and decides the block's fate. A block deleted under the writer
// reports ErrNotFound. A failed stream or a crashed server restarts the
// block on the ring's next live servers, rewriting what it had streamed,
// up to maxBlockRetries times; past that, or when its write-through
// failed, the block is lost. Otherwise it commits, clean if written
// through, else dirty and queued for the flushers. Except after a commit
// it gives back every hold, and a persisted write-through object nobody
// will reference; it always gives back the writer's slot, unless a
// restart lets the writer stream on.
func (w *bbWriter) endAttempt(p *sim.Proc, err error) error {
	finishing, rewind := err == nil, w.cur.size
	for tries := 0; ; tries++ {
		b := w.cur
		if err == nil && b.size%w.fs.cfg.ItemChunk > 0 { // the tail item
			err = w.issueItem(p)
		}
		if err == nil && w.intact() {
			w.seal()
		}
		teeErr := w.settleTees(p)
		retry := false
		switch {
		case b.state == stateDeleted:
			err = fmt.Errorf("core: %q deleted while written: %w", w.path, dfs.ErrNotFound)
		case err != nil || !w.intact():
			if retry = tries < maxBlockRetries; !retry {
				b.move(stateLost)
				err = fmt.Errorf("core: block %d failed %d servers", b.id, maxBlockRetries)
			}
		case teeErr != nil:
			b.move(stateLost)
			err = fmt.Errorf("core: sync flush failed: %w", teeErr)
		default:
			if w.plan.writeThrough {
				b.move(stateClean)
			} else {
				b.move(stateDirty)
				b.primary().enqueueDirty(b, false)
			}
			err = w.fs.mgr.Call(p, w.client, func(*sim.Proc) (int64, error) {
				f, err := w.fs.tree.GetFile(w.path)
				if err == nil {
					f.Size += b.size
				}
				return 64, err
			})
			b.releaseOpen()
			w.cur = nil
			return err
		}
		b.dropHolds()
		if b.lustrePath != "" && b.state != stateDeleted {
			w.fs.discardObject(p, w.client, b.lustrePath)
			b.lustrePath = ""
		}
		if !retry {
			if b.open { // unless no attempt was ever admitted
				b.releaseOpen()
			}
			w.cur = nil
			return err
		}
		if err = w.reassign(p); err == nil {
			err = w.begin(p, rewind)
		}
		if err == nil && !finishing {
			return nil
		}
	}
}

// reassign has the manager move the current block to the ring's next
// live servers after one of its servers died mid-write.
func (w *bbWriter) reassign(p *sim.Proc) error {
	b := w.cur
	return w.fs.mgr.Call(p, w.client, func(*sim.Proc) (n int64, err error) {
		if b.srvs, err = b.inst.pickServers(b.key); err != nil {
			return 64, err
		}
		b.attempt++
		b.inst.stats.BlockRetries++
		return 96, nil
	})
}

// intact reports whether the attempt still holds space on each of its
// servers and none of them crashed.
func (w *bbWriter) intact() bool {
	for _, s := range w.cur.srvs {
		if _, held := s.holders[w.cur]; !held || s.phys.failed {
			return false
		}
	}
	return true
}

// seal swaps each server's block-size reservation for the block's actual
// footprint; a smaller tail frees space, so it wakes stalled reservers.
func (w *bbWriter) seal() {
	b := w.cur
	for _, s := range b.srvs {
		b.releaseShare(s)
		b.takeShare(s, b.size)
		if b.size < w.fs.cfg.BlockSize {
			s.signalFlushProgress()
		}
	}
}

// settleTees closes the attempt's side channels, local first, and waits
// for them, returning the write-through channel's error.
func (w *bbWriter) settleTees(p *sim.Proc) (err error) {
	for _, t := range [...]*blockTee{w.localTee, w.lustreTee} {
		if t != nil {
			t.in.Close()
			t.done.Wait(p)
			err = t.err
		}
	}
	w.lustreTee, w.localTee = nil, nil
	return err
}

// Close implements dfs.Writer.
func (w *bbWriter) Close(p *sim.Proc) error {
	if w.closed {
		return dfs.ErrClosed
	}
	w.closed = true
	if w.cur != nil {
		if err := w.endAttempt(p, nil); err != nil {
			return err
		}
	}
	return w.fs.mgr.Call(p, w.client, func(*sim.Proc) (int64, error) {
		f, err := w.fs.tree.GetFile(w.path)
		if err == nil {
			f.UnderConstruction = false
		}
		return 64, err
	})
}
