package core

import (
	"time"

	"hbb/internal/netsim"
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
	switch {
	case b.state == stateClean:
		s.fs.metrics.Histogram("flush.latency.s").Observe((p.Now() - start).Seconds())
	case b.state == stateFlushing && !s.phys.failed:
		// The copy failed on a live server and nobody moved the block on
		// (a crash leaves its fate to FailServer): the failure was
		// transient, e.g. a backing-store error. Hand the block back to
		// the scheduler as urgent work so its bytes are not stranded; the
		// retry takes a fresh object name. The requeue tolerates wake-ups
		// closed by a concurrent Shutdown.
		b.move(stateDirty)
		if b.flushRetries < maxBlockRetries {
			b.flushRetries++
			b.attempt++
			s.fs.stats.FlushRetries++
			s.requeueDirty(p, b)
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
		b.move(stateFlushing)
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
// block's own object name. The run was claimed dirty, so every block is
// live when the object is created; a deletion landing mid-run aborts the
// block's remaining chunk writes. On success every surviving block
// records its offset in the object and turns clean.
func (s *BufferServer) flushRunObject(p *sim.Proc, run []*bbBlock) {
	path := s.fs.pool.blockLustrePath(run[0])
	if len(run) > 1 {
		path = s.fs.pool.runLustrePath()
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
		for i := 0; i < b.chunks() && b.state != stateDeleted; i++ {
			n := b.chunk(i)
			if err := w.Write(p, n); err != nil {
				s.fs.discardObject(p, s.phys.node, path)
				return
			}
			off += n // bytes of a block deleted mid-write stay in the object
		}
	}
	if err := w.Close(p); err != nil {
		s.fs.discardObject(p, s.phys.node, path)
		return
	}
	flushed := false
	for _, b := range run {
		if b.state != stateFlushing || s.phys.failed {
			continue
		}
		b.lustrePath = path
		b.move(stateClean)
		flushed = true
	}
	if !flushed {
		// Every block was deleted or reassigned mid-run: nobody references
		// the object, so release its stripes.
		s.fs.discardObject(p, s.phys.node, path)
	}
}

// discardObject deletes a Lustre object nobody will reference, best
// effort: the flush, write-through and recovery writers call it when a
// Write or Close fails. A writer whose node is down (FailServer downs a
// crashed server's node) leaves the object behind.
func (inst *Instance) discardObject(p *sim.Proc, node netsim.NodeID, path string) {
	if !inst.net.Down(node) {
		_ = inst.backing.Delete(p, node, path)
	}
}
