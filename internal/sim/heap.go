package sim

// The kernel's event queue is a flat indexed 4-ary min-heap that carries
// its own keys: each heap entry is (t, seq, slot), so comparisons never
// leave the heap array. The payload of an event — which process to wake or
// which callback to run — lives in a slot in one growable arena, recycled
// through a free list, so steady-state scheduling allocates nothing. Every
// slot knows its heap position, which makes cancellation an O(log n)
// removal instead of a tombstone that lingers until its (possibly
// far-future) deadline pops, and lets a reschedule re-key a live event
// where it sits (one sift, no remove + push). The sifts move a hole: the
// entry being placed is held aside while the entries it passes shift one
// level, and it is written once, where it lands. A 4-ary layout halves the
// tree depth of a binary heap and keeps a node's children in one run of
// the array — the classic d-ary trade of a few extra comparisons for
// fewer memory touches.

// heapArity is the heap's branching factor.
const heapArity = 4

// Timer is a cancellable handle to a scheduled callback or process wake.
// The zero Timer is inert: Cancel and Reschedule on it report false.
// Handles are generation-checked, so cancelling a timer that already fired
// (and whose slot was recycled) is a safe no-op. A rescheduled timer keeps
// its handle.
type Timer struct {
	slot int32 // slot index + 1; 0 marks the zero (inert) handle
	gen  uint32
}

// heapEntry is one heap node: an event's key and the slot holding its
// payload.
type heapEntry struct {
	t    int64
	seq  uint64
	slot int32
}

// before orders entries by (time, schedule sequence): FIFO at equal
// timestamps, the invariant every determinism guarantee rests on.
func (a *heapEntry) before(b *heapEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventSlot is one scheduled event's payload: a process wake (p != nil)
// or an inline callback (fn != nil).
type eventSlot struct {
	p      *Proc
	fn     func()
	pgen   uint32 // incarnation of p the wake targets (pooled shells)
	gen    uint32 // slot generation; bumped on free to invalidate handles
	pos    int32  // index in eventQueue.heap, -1 while free
	reason wakeReason
}

type eventQueue struct {
	heap  []heapEntry
	slots []eventSlot
	free  []int32
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return len(q.heap) }

// minTime returns the earliest pending timestamp. Callers must check Len.
func (q *eventQueue) minTime() int64 { return q.heap[0].t }

// push schedules an event and returns its cancellation handle.
func (q *eventQueue) push(t int64, seq uint64, p *Proc, pgen uint32, fn func(), r wakeReason) Timer {
	var idx int32
	if n := len(q.free) - 1; n >= 0 {
		idx = q.free[n]
		q.free = q.free[:n]
	} else {
		q.slots = append(q.slots, eventSlot{})
		idx = int32(len(q.slots) - 1)
	}
	sl := &q.slots[idx]
	sl.p, sl.pgen, sl.fn, sl.reason = p, pgen, fn, r
	q.heap = append(q.heap, heapEntry{}) // the hole the new entry rises from
	q.up(len(q.heap)-1, heapEntry{t: t, seq: seq, slot: idx})
	return Timer{slot: idx + 1, gen: sl.gen}
}

// pop removes and returns the earliest event: the last entry fills the
// root's hole and sifts down. Callers must check Len.
func (q *eventQueue) pop() (p *Proc, pgen uint32, fn func(), r wakeReason) {
	idx := q.heap[0].slot
	last := len(q.heap) - 1
	e := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0, e)
	}
	sl := &q.slots[idx]
	p, pgen, fn, r = sl.p, sl.pgen, sl.fn, sl.reason
	q.release(idx)
	return p, pgen, fn, r
}

// lookup returns the slot of the pending event tm refers to, or nil when
// tm is the zero handle or its event already fired or was cancelled.
func (q *eventQueue) lookup(tm Timer) *eventSlot {
	idx := int(tm.slot) - 1
	if idx < 0 || idx >= len(q.slots) {
		return nil
	}
	sl := &q.slots[idx]
	if sl.gen != tm.gen || sl.pos < 0 {
		return nil
	}
	return sl
}

// cancel removes the event tm refers to, reporting whether it was still
// pending.
func (q *eventQueue) cancel(tm Timer) bool {
	sl := q.lookup(tm)
	if sl == nil {
		return false
	}
	q.removeAt(int(sl.pos))
	return true
}

// rekey gives a pending event the key (t, seq) and sifts it from its
// current position. seq is always fresh, hence larger than the old one,
// so the key moves up only when t moves earlier.
func (q *eventQueue) rekey(sl *eventSlot, t int64, seq uint64) {
	i := int(sl.pos)
	e := q.heap[i]
	earlier := t < e.t
	e.t, e.seq = t, seq
	if earlier {
		q.up(i, e)
	} else {
		q.down(i, e)
	}
}

// removeAt deletes the event at heap position i and recycles its slot. The
// last entry fills the hole, sifting up if it orders before the removed
// one and down otherwise.
func (q *eventQueue) removeAt(i int) {
	gone := q.heap[i]
	last := len(q.heap) - 1
	e := q.heap[last]
	q.heap = q.heap[:last]
	if i < last {
		if e.before(&gone) {
			q.up(i, e)
		} else {
			q.down(i, e)
		}
	}
	q.release(gone.slot)
}

// release recycles a slot whose event left the heap.
func (q *eventQueue) release(idx int32) {
	sl := &q.slots[idx]
	sl.gen++ // invalidate outstanding Timer handles
	sl.p = nil
	sl.fn = nil
	sl.pos = -1
	q.free = append(q.free, idx)
}

// up places e at the hole i, shifting ancestors that order after it down
// one level.
func (q *eventQueue) up(i int, e heapEntry) {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		q.slots[h[i].slot].pos = int32(i)
		i = parent
	}
	h[i] = e
	q.slots[e.slot].pos = int32(i)
}

// down places e at the hole i, shifting the least child up one level while
// it orders before e.
func (q *eventQueue) down(i int, e heapEntry) {
	h := q.heap
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+heapArity, n)
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&e) {
			break
		}
		h[i] = h[best]
		q.slots[h[i].slot].pos = int32(i)
		i = best
	}
	h[i] = e
	q.slots[e.slot].pos = int32(i)
}
