package core

import (
	"time"

	"hbb/internal/sim"
)

// flusherLoop is one background flusher of a buffer server: it drains the
// dirty queue, copying blocks from the KV buffer to Lustre. Reading the
// block out of server memory is effectively free next to the Lustre write,
// which dominates. The loop ends when the queue is closed (Shutdown) or
// the server fails. With the coalescing scheduler enabled the popped queue
// entry is only a wake-up token: the scheduler decides which run of blocks
// this flusher copies.
func (s *BufferServer) flusherLoop(p *sim.Proc) {
	for {
		b, ok := s.dirtyQueue.Get(p)
		if !ok {
			return
		}
		if s.phys.failed {
			return
		}
		if s.sched != nil {
			if run := s.sched.next(); len(run) > 0 {
				s.flushRun(p, run)
			}
			continue
		}
		if b.deleted || b.state != stateDirty || b.primary() != s {
			continue // deleted, reassigned, or already handled
		}
		s.flushing++
		b.state = stateFlushing
		start := p.Now()
		s.flushBlock(p, b)
		s.flushing--
		s.settleFlushed(p, b, start)
		s.signalHolders(b)
	}
}

// settleFlushed accounts one block after a flush attempt: a latency sample
// on success, or a bounded transient-failure retry.
func (s *BufferServer) settleFlushed(p *sim.Proc, b *bbBlock, start time.Duration) {
	if b.state == stateClean {
		s.fs.metrics.Histogram("flush.latency.s").Observe((p.Now() - start).Seconds())
	} else if b.state == stateFlushing {
		// The copy did not complete and nobody else settled the block.
		// If this server failed (or the block was reassigned away),
		// FailServer's resident scan owns the block's fate — recovery or
		// loss is accounted exactly once there, and a recovery spawned by
		// it may still be in flight holding the block in stateFlushing.
		// Otherwise the failure was transient (e.g. a backing-store
		// error): put the block back in the dirty queue so its bytes are
		// not stranded un-flushable. The requeue tolerates a queue closed
		// by a concurrent Shutdown.
		if !s.phys.failed && b.primary() == s && !b.deleted {
			b.state = stateDirty
			if b.flushRetries < maxBlockRetries {
				b.flushRetries++
				s.fs.stats.FlushRetries++
				s.requeueDirty(p, b)
			}
		}
	}
}

// signalHolders wakes writers stalled on any server holding a replica of
// the block: the flush attempt made progress (or freed retry bookkeeping)
// on every one of them, not just the flushing primary.
func (s *BufferServer) signalHolders(b *bbBlock) {
	s.signalFlushProgress()
	for _, holder := range b.srvs {
		if holder != s {
			holder.signalFlushProgress()
		}
	}
}

// flushRun copies one coalesced run of blocks (same file, adjacent
// indices, sorted) to a single Lustre object, then settles each block
// exactly as the per-block path would.
func (s *BufferServer) flushRun(p *sim.Proc, run []*bbBlock) {
	var total int64
	for _, b := range run {
		s.flushing++
		b.state = stateFlushing
		total += b.size
	}
	s.flushInflight += total
	s.fs.metrics.Histogram("flush.batch.blocks").Observe(float64(len(run)))
	s.fs.metrics.Histogram("flush.bytes.inflight").Observe(float64(s.flushInflight))
	start := p.Now()
	s.flushRunObject(p, run)
	s.flushInflight -= total
	for _, b := range run {
		s.flushing--
		s.settleFlushed(p, b, start)
	}
	// Wake each distinct holder once for the whole run.
	signalled := map[*BufferServer]bool{s: true}
	s.signalFlushProgress()
	for _, b := range run {
		for _, holder := range b.srvs {
			if !signalled[holder] {
				signalled[holder] = true
				holder.signalFlushProgress()
			}
		}
	}
}

// flushRunObject writes a coalesced run as one Lustre object: one Create,
// the blocks' chunks appended back to back, one Close (a single metadata
// completion round-trip for the run). Blocks deleted before their bytes
// went out are skipped. On success every surviving block records its
// offset in the shared object and turns clean.
func (s *BufferServer) flushRunObject(p *sim.Proc, run []*bbBlock) {
	live := run[:0:0]
	for _, b := range run {
		if !b.deleted {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		return
	}
	path := s.fs.runLustrePath()
	w, err := s.fs.backing.Create(p, s.phys.node, path)
	if err != nil {
		return // transient or crash; settleFlushed decides per block
	}
	offsets := make([]int64, len(live))
	var off int64
	for i, b := range live {
		if b.deleted {
			offsets[i] = -1
			continue // deleted mid-run: skip its bytes entirely
		}
		offsets[i] = off
		remaining := b.size
		for remaining > 0 && !b.deleted {
			n := min64(remaining, s.fs.cfg.ItemChunk)
			if err := w.Write(p, n); err != nil {
				return
			}
			remaining -= n
			off += n
		}
		if b.deleted {
			offsets[i] = -1 // deleted mid-write: orphan bytes stay in the run
		}
	}
	if err := w.Close(p); err != nil {
		return
	}
	flushed := false
	for i, b := range live {
		if offsets[i] < 0 || b.deleted || b.state != stateFlushing || s.phys.failed {
			continue
		}
		b.lustrePath = path
		b.lustreOff = offsets[i]
		b.lustreRunLen = off
		b.state = stateClean
		for _, holder := range b.srvs {
			holder.cleanLRU = append(holder.cleanLRU, b)
		}
		s.fs.stats.BytesFlushed += b.size
		flushed = true
	}
	if !flushed {
		// Every block was deleted or reassigned mid-run: nobody references
		// the object, so release its stripes.
		_ = s.fs.backing.Delete(p, s.phys.node, path)
	}
}

// flushBlock copies one block to Lustre and marks it clean (evictable).
// A block deleted while queued is skipped outright, and a deletion landing
// mid-copy aborts the remaining chunk writes — no point staging bytes that
// are already gone.
func (s *BufferServer) flushBlock(p *sim.Proc, b *bbBlock) {
	if b.deleted {
		return // deleted while queued: skip the Lustre write entirely
	}
	path := s.fs.blockLustrePath(b)
	w, err := s.fs.backing.Create(p, s.phys.node, path)
	if err != nil {
		// The server (or its link) failed mid-flush; FailServer's resident
		// scan decides the block's fate.
		return
	}
	remaining := b.size
	for remaining > 0 && !b.deleted {
		n := min64(remaining, s.fs.cfg.ItemChunk)
		if err := w.Write(p, n); err != nil {
			return
		}
		remaining -= n
	}
	if err := w.Close(p); err != nil {
		return
	}
	if b.deleted {
		_ = s.fs.backing.Delete(p, s.phys.node, path)
		return
	}
	if b.state != stateFlushing || s.phys.failed {
		return
	}
	b.lustrePath = path
	b.state = stateClean
	for _, holder := range b.srvs {
		holder.cleanLRU = append(holder.cleanLRU, b)
	}
	s.fs.stats.BytesFlushed += b.size
}
