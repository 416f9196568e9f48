package sim

// The kernel's event queue is a flat indexed 4-ary min-heap over event
// slots. Slots live in one growable arena and are recycled through a free
// list, so steady-state scheduling allocates nothing; the heap itself holds
// only slot indices. Every slot knows its heap position, which makes
// cancellation an O(log n) removal instead of a tombstone that lingers
// until its (possibly far-future) deadline pops, and lets a reschedule
// re-key a live event where it sits (one sift, no remove + push). A 4-ary
// layout halves the tree depth of a binary heap and keeps sift-downs inside
// one cache line of child indices — the classic d-ary trade of a few extra
// comparisons for fewer memory touches.

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

// eventSlot is one scheduled event: a process wake (p != nil) or an inline
// callback (fn != nil).
type eventSlot struct {
	t      int64
	seq    uint64
	p      *Proc
	fn     func()
	pgen   uint32 // incarnation of p the wake targets (pooled shells)
	gen    uint32 // slot generation; bumped on free to invalidate handles
	pos    int32  // index in eventQueue.heap, -1 while free
	reason wakeReason
}

type eventQueue struct {
	heap  []int32
	slots []eventSlot
	free  []int32
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return len(q.heap) }

// minTime returns the earliest pending timestamp. Callers must check Len.
func (q *eventQueue) minTime() int64 { return q.slots[q.heap[0]].t }

// before orders slots by (time, schedule sequence): FIFO at equal
// timestamps, the invariant every determinism guarantee rests on.
func (q *eventQueue) before(a, b int32) bool {
	sa, sb := &q.slots[a], &q.slots[b]
	if sa.t != sb.t {
		return sa.t < sb.t
	}
	return sa.seq < sb.seq
}

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
	sl.t, sl.seq, sl.p, sl.pgen, sl.fn, sl.reason = t, seq, p, pgen, fn, r
	sl.pos = int32(len(q.heap))
	q.heap = append(q.heap, idx)
	q.up(len(q.heap) - 1)
	return Timer{slot: idx + 1, gen: sl.gen}
}

// pop removes and returns the earliest event. Callers must check Len.
func (q *eventQueue) pop() (p *Proc, pgen uint32, fn func(), r wakeReason) {
	idx := q.heap[0]
	sl := &q.slots[idx]
	p, pgen, fn, r = sl.p, sl.pgen, sl.fn, sl.reason
	q.removeAt(0)
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
	earlier := t < sl.t
	sl.t, sl.seq = t, seq
	if earlier {
		q.up(int(sl.pos))
	} else {
		q.down(int(sl.pos))
	}
}

// removeAt deletes the event at heap position i and recycles its slot.
func (q *eventQueue) removeAt(i int) {
	idx := q.heap[i]
	last := len(q.heap) - 1
	if i != last {
		q.heap[i] = q.heap[last]
		q.slots[q.heap[i]].pos = int32(i)
	}
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	sl := &q.slots[idx]
	sl.gen++ // invalidate outstanding Timer handles
	sl.p = nil
	sl.fn = nil
	sl.pos = -1
	q.free = append(q.free, idx)
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q.before(q.heap[i], q.heap[parent]) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.heap)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.before(q.heap[c], q.heap[best]) {
				best = c
			}
		}
		if !q.before(q.heap[best], q.heap[i]) {
			return
		}
		q.swap(i, best)
		i = best
	}
}

func (q *eventQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.slots[q.heap[i]].pos = int32(i)
	q.slots[q.heap[j]].pos = int32(j)
}
