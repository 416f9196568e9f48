package core

// flushScheduler is the coalescing stage-out scheduler of one buffer
// server, enabled by Config.FlushBatchBlocks > 1. It replaces the seed's
// FIFO drain order with two policies the paper's stage-out path wants:
//
//   - Coalescing: dirty blocks are indexed by (file, fileIdx) and a flusher
//     claims a whole run of adjacent blocks of one file at once, so a
//     single Lustre object (one Create + one completion round-trip) covers
//     the run instead of paying per-block metadata.
//   - Urgency: pressure work (crash requeues, transient-failure retries)
//     is drained before background stage-out, shortening writer stalls.
//
// The scheduler holds no processes and never yields: enqueue and next are
// plain state transitions, safe from both process and kernel-callback
// context. Wake-ups still ride the server's dirtyQueue — every enqueue
// adds one token, every popped token triggers one next() call. Tokens can
// outnumber pending blocks after a batch claim (the claimed neighbors'
// tokens are still queued); a token whose work was already claimed simply
// yields an empty batch.
type flushScheduler struct {
	s *BufferServer
	// max caps the blocks per coalesced run (Config.FlushBatchBlocks).
	max int
	// byFile indexes pending blocks by file path and block index; it is
	// the authoritative pending set.
	byFile map[string]map[int]*bbBlock
	// urgent and background order batch seeds by arrival; entries whose
	// block was meanwhile claimed or invalidated are skipped lazily.
	urgent     []*bbBlock
	background []*bbBlock
	// count tracks len over byFile's inner maps.
	count int
}

func newFlushScheduler(s *BufferServer, batch int) *flushScheduler {
	return &flushScheduler{s: s, max: batch, byFile: make(map[string]map[int]*bbBlock)}
}

// pendingCount returns the number of blocks awaiting a batch claim.
func (fl *flushScheduler) pendingCount() int { return fl.count }

// enqueue registers a dirty block. A re-enqueue of an already-pending
// block only upgrades its urgency; the stale queue entry is skipped when
// popped.
func (fl *flushScheduler) enqueue(b *bbBlock, urgent bool) {
	idx := fl.byFile[b.file]
	if idx == nil {
		idx = make(map[int]*bbBlock)
		fl.byFile[b.file] = idx
	}
	if idx[b.fileIdx] != b {
		idx[b.fileIdx] = b
		fl.count++
	}
	if urgent {
		fl.urgent = append(fl.urgent, b)
	} else {
		fl.background = append(fl.background, b)
	}
}

// remove drops a block from the pending index.
func (fl *flushScheduler) remove(b *bbBlock) {
	idx := fl.byFile[b.file]
	if idx[b.fileIdx] != b {
		return
	}
	delete(idx, b.fileIdx)
	fl.count--
	if len(idx) == 0 {
		delete(fl.byFile, b.file)
	}
}

// flushable reports whether a pending block still needs this server to
// flush it (mirrors the seed flusher loop's skip conditions).
func (fl *flushScheduler) flushable(b *bbBlock) bool {
	return !b.deleted && b.state == stateDirty && b.primary() == fl.s
}

// pop returns the oldest still-pending valid block of a queue, discarding
// stale and invalid entries.
func (fl *flushScheduler) pop(q *[]*bbBlock) *bbBlock {
	for len(*q) > 0 {
		b := (*q)[0]
		*q = (*q)[1:]
		if fl.byFile[b.file][b.fileIdx] != b {
			continue // claimed into an earlier batch, or re-enqueued entry
		}
		if !fl.flushable(b) {
			fl.remove(b)
			continue
		}
		return b
	}
	return nil
}

// next claims the next coalesced run: the oldest urgent block if any, else
// the oldest background block, extended with pending adjacent blocks of
// the same file up to max, in ascending file order. It returns nil when
// nothing is pending (a stale wake-up token).
func (fl *flushScheduler) next() []*bbBlock {
	seed := fl.pop(&fl.urgent)
	if seed == nil {
		seed = fl.pop(&fl.background)
	}
	if seed == nil {
		return nil
	}
	fl.remove(seed)
	idx := fl.byFile[seed.file]
	run := []*bbBlock{seed}
	// Extend backward, prepending, then forward, appending: the run stays
	// sorted by fileIdx so the Lustre object is written in file order.
	for lo := seed.fileIdx - 1; len(run) < fl.max; lo-- {
		b := idx[lo]
		if b == nil || !fl.flushable(b) {
			break
		}
		fl.remove(b)
		run = append([]*bbBlock{b}, run...)
	}
	for hi := seed.fileIdx + 1; len(run) < fl.max; hi++ {
		b := idx[hi]
		if b == nil || !fl.flushable(b) {
			break
		}
		fl.remove(b)
		run = append(run, b)
	}
	return run
}
