package core

// flushScheduler is the stage-out scheduler of one buffer server: the
// order in which its flusher pool drains dirty blocks to Lustre. It
// applies two policies:
//
//   - Coalescing: dirty blocks are indexed by (file, fileIdx) and a flusher
//     claims a run of up to max adjacent blocks of one file at once, so a
//     single Lustre object (one Create + one completion round-trip) covers
//     the run instead of paying per-block metadata. With max = 1 every
//     run is one block in its own object.
//   - Urgency: pressure work (crash requeues, transient-failure retries)
//     is drained before background stage-out, shortening writer stalls.
//
// The scheduler holds no processes and never yields: enqueue and next are
// plain state transitions, safe from both process and kernel-callback
// context. Wake-ups ride the server's wakeups store — every enqueue adds
// one token, every popped token triggers one next() call. Tokens can
// outnumber pending blocks after a multi-block claim (the claimed
// neighbors' tokens are still queued); a token whose work was already
// claimed simply yields an empty run.
type flushScheduler struct {
	s *BufferServer
	// max caps the blocks per run: Config.FlushBatchBlocks, at least 1.
	max int
	// pending indexes the blocks awaiting a claim by file path and block
	// index; it is the authoritative pending set.
	pending map[blockSlot]*bbBlock
	// urgent and background order run seeds by arrival; entries whose
	// block was meanwhile claimed or invalidated are skipped lazily.
	urgent     []*bbBlock
	background []*bbBlock
}

// blockSlot locates a block in its file.
type blockSlot struct {
	file string
	idx  int
}

func slotOf(b *bbBlock) blockSlot { return blockSlot{b.file, b.fileIdx} }

func newFlushScheduler(s *BufferServer, batch int) flushScheduler {
	return flushScheduler{s: s, max: max(batch, 1), pending: make(map[blockSlot]*bbBlock)}
}

// enqueue registers a dirty block. A re-enqueue of an already-pending
// block only upgrades its urgency; the stale queue entry is skipped when
// popped. A block that takes the index slot of another (a file deleted
// and rewritten under the same name while its old blocks were pending)
// displaces it: the displaced entry is skipped when popped.
func (fl *flushScheduler) enqueue(b *bbBlock, urgent bool) {
	fl.pending[slotOf(b)] = b
	if urgent {
		fl.urgent = append(fl.urgent, b)
	} else {
		fl.background = append(fl.background, b)
	}
}

// claimable reports whether the pending block at (file, idx) can join a
// run.
func (fl *flushScheduler) claimable(file string, idx int) bool {
	b := fl.pending[blockSlot{file, idx}]
	return b != nil && fl.flushable(b)
}

// flushable reports whether a pending block still needs this server to
// flush it: not deleted, still dirty, and this server is its primary.
func (fl *flushScheduler) flushable(b *bbBlock) bool {
	return !b.deleted && b.state == stateDirty && b.primary() == fl.s
}

// pop returns the oldest still-pending valid block of a queue, discarding
// stale and invalid entries.
func (fl *flushScheduler) pop(q *[]*bbBlock) *bbBlock {
	for len(*q) > 0 {
		b := (*q)[0]
		*q = (*q)[1:]
		if fl.pending[slotOf(b)] != b {
			continue // claimed into an earlier run, or re-enqueued entry
		}
		delete(fl.pending, slotOf(b))
		if fl.flushable(b) {
			return b
		}
	}
	return nil
}

// next claims the next run into buf (reusing its storage): the oldest
// urgent block if any, else the oldest background block, extended with
// pending adjacent blocks of the same file up to max — backward first,
// then forward — in ascending file order. It returns an empty run when
// nothing is pending (a stale wake-up token).
func (fl *flushScheduler) next(buf []*bbBlock) []*bbBlock {
	run := buf[:0]
	seed := fl.pop(&fl.urgent)
	if seed == nil {
		seed = fl.pop(&fl.background)
	}
	if seed == nil {
		return run
	}
	// Extend backward, then forward, over pending flushable neighbors.
	lo, hi := seed.fileIdx, seed.fileIdx
	for hi-lo+1 < fl.max && fl.claimable(seed.file, lo-1) {
		lo--
	}
	for hi-lo+1 < fl.max && fl.claimable(seed.file, hi+1) {
		hi++
	}
	for i := lo; i <= hi; i++ {
		if i == seed.fileIdx {
			run = append(run, seed)
			continue
		}
		slot := blockSlot{seed.file, i}
		run = append(run, fl.pending[slot])
		delete(fl.pending, slot)
	}
	return run
}
