package core

import (
	"time"

	"hbb/internal/sim"
)

// flusherLoop is one background flusher of a buffer server. Each wake-up
// token it pops triggers one scheduler claim, and the claimed run of
// blocks is copied from the KV buffer to Lustre. Reading the blocks out
// of server memory is effectively free next to the Lustre write, which
// dominates. The loop owns its run buffer across claims. It ends when the
// wake-ups are closed (Shutdown) or the server fails.
func (s *BufferServer) flusherLoop(p *sim.Proc) {
	var run []*bbBlock
	for {
		if _, ok := s.wakeups.Get(p); !ok || s.phys.failed {
			return
		}
		if run = s.sched.next(run); len(run) > 0 {
			s.flushRun(p, run)
		}
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
		// error): hand the block back to the scheduler as urgent work so
		// its bytes are not stranded un-flushable. The failed attempt may
		// have left a partial object under the block's name, so the retry
		// takes a fresh one. The requeue tolerates wake-ups closed by a
		// concurrent Shutdown.
		if !s.phys.failed && b.primary() == s && !b.deleted {
			b.state = stateDirty
			if b.flushRetries < maxBlockRetries {
				b.flushRetries++
				b.attempt++
				s.fs.stats.FlushRetries++
				s.requeueDirty(p, b)
			}
		}
	}
}

// flushRun copies one run of blocks (same file, adjacent indices, sorted)
// to a single Lustre object, settles each block, then wakes writers
// stalled on any server holding a replica of the run: the flush made
// progress (or freed retry bookkeeping) on every one of them, not just
// the flushing primary.
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
	s.signalFlushProgress()
	for i, b := range run {
		for _, holder := range b.srvs {
			if holder != s && !heldBy(run[:i], holder) {
				holder.signalFlushProgress()
			}
		}
	}
}

// heldBy reports whether any of the blocks has a replica on s.
func heldBy(blocks []*bbBlock, s *BufferServer) bool {
	for _, b := range blocks {
		if b.onServer(s) {
			return true
		}
	}
	return false
}

// flushRunObject writes a run as one Lustre object: one Create, the
// blocks' chunks appended back to back, one Close (a single metadata
// completion round-trip for the run). A run of one block keeps the
// block's own object name. Blocks deleted before their bytes went out are
// skipped, and a deletion landing mid-block aborts that block's remaining
// chunk writes. On success every surviving block records its offset in
// the object and turns clean.
func (s *BufferServer) flushRunObject(p *sim.Proc, run []*bbBlock) {
	if !anyLive(run) {
		return // deleted while queued: skip the Lustre write entirely
	}
	path := s.fs.blockLustrePath(run[0])
	if len(run) > 1 {
		path = s.fs.runLustrePath()
	}
	w, err := s.fs.backing.Create(p, s.phys.node, path)
	if err != nil {
		return // transient or crash; settleFlushed decides per block
	}
	var off int64
	for _, b := range run {
		// A deleted block's lustreOff is never read. A failed attempt's
		// is overwritten by whatever later sets lustrePath: a retried
		// flush, or local recovery, which resets it to 0.
		b.lustreOff = off
		for remaining := b.size; remaining > 0 && !b.deleted; {
			n := min64(remaining, s.fs.cfg.ItemChunk)
			if err := w.Write(p, n); err != nil {
				s.discardObject(p, path)
				return
			}
			remaining -= n
			off += n // bytes of a block deleted mid-write stay in the object
		}
	}
	if err := w.Close(p); err != nil {
		s.discardObject(p, path)
		return
	}
	flushed := false
	for _, b := range run {
		if b.deleted || b.state != stateFlushing || s.phys.failed {
			continue
		}
		b.lustrePath = path
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

// discardObject deletes the partial object of a failed flush attempt, best
// effort, so its stripes go back to the OSTs; the retry writes a fresh
// one. A crashed server's partial object is left behind.
func (s *BufferServer) discardObject(p *sim.Proc, path string) {
	if !s.phys.failed {
		_ = s.fs.backing.Delete(p, s.phys.node, path)
	}
}

// anyLive reports whether any block of the run is not deleted.
func anyLive(run []*bbBlock) bool {
	for _, b := range run {
		if !b.deleted {
			return true
		}
	}
	return false
}
