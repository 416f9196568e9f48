package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// queueOracle is the event queue the slow way: every pending event keeps
// its own (t, seq) key in a slice sorted by it.
type queueOracle []oracleEvent

type oracleEvent struct {
	t   int64
	seq uint64
	id  int
}

func (o *queueOracle) insert(ev oracleEvent) {
	i, _ := slices.BinarySearchFunc(*o, ev, func(a, b oracleEvent) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	*o = slices.Insert(*o, i, ev)
}

// remove deletes event id, reporting whether it was pending.
func (o *queueOracle) remove(id int) (oracleEvent, bool) {
	for i, ev := range *o {
		if ev.id == id {
			*o = slices.Delete(*o, i, i+1)
			return ev, true
		}
	}
	return oracleEvent{}, false
}

// checkQueue fails t unless every heap entry's slot points back at its
// position and every other slot is free.
func checkQueue(t *testing.T, q *eventQueue) {
	t.Helper()
	inHeap := make([]bool, len(q.slots))
	for i, h := range q.heap {
		if got := q.slots[h.slot].pos; got != int32(i) {
			t.Fatalf("slot %d sits at heap index %d but records pos %d", h.slot, i, got)
		}
		inHeap[h.slot] = true
	}
	for s := range q.slots {
		if !inHeap[s] && q.slots[s].pos != -1 {
			t.Fatalf("slot %d is not in the heap but records pos %d", s, q.slots[s].pos)
		}
	}
}

// runQueueProgram interprets prog two bytes at a time (operation,
// argument) against an Env's queue and the oracle: schedule at or after
// now, schedule in the past, pop, cancel, reschedule, and the zero handle.
// Handles of fired and cancelled events stay addressable, so Cancel and
// Reschedule also see stale ones. After every step the pending counts
// must agree and every slot's pos must match its heap index; every pop
// must return the oracle's earliest (t, seq).
func runQueueProgram(t *testing.T, prog []byte) {
	e := New(1)
	var (
		o      queueOracle
		timers []Timer
		fired  = -1
	)
	schedule := func(at int64) {
		id := len(timers)
		want := at
		if want < e.now {
			want = e.now
		}
		o.insert(oracleEvent{t: want, seq: e.seq, id: id})
		timers = append(timers, e.At(time.Duration(at), func() { fired = id }))
	}
	for ; len(prog) >= 2; prog = prog[2:] {
		op, arg := prog[0]%6, int(prog[1])
		switch op {
		case 0: // schedule at now or up to 15 ns later
			schedule(e.now + int64(arg%16))
		case 1: // schedule in the past: At clamps to now
			schedule(e.now - 1 - int64(arg))
		case 2: // pop the earliest event
			if e.q.Len() == 0 {
				continue
			}
			at := e.q.minTime()
			_, _, fn, _ := e.q.pop()
			e.now = at
			fn()
			want := o[0]
			o = o[1:]
			if fired != want.id || at != want.t {
				t.Fatalf("popped event %d at %d, oracle says %d at %d", fired, at, want.id, want.t)
			}
		case 3: // cancel, maybe a stale handle
			if len(timers) == 0 {
				continue
			}
			id := arg % len(timers)
			_, pending := o.remove(id)
			if got := e.Cancel(timers[id]); got != pending {
				t.Fatalf("Cancel(%d) = %v, oracle says pending=%v", id, got, pending)
			}
		case 4: // reschedule, maybe a stale handle, maybe into the past
			if len(timers) == 0 {
				continue
			}
			id := arg % len(timers)
			at := e.now + int64(arg%24) - 8
			ev, pending := o.remove(id)
			if pending {
				ev.t, ev.seq = max(at, e.now), e.seq
				o.insert(ev)
			}
			if got := e.Reschedule(timers[id], time.Duration(at)); got != pending {
				t.Fatalf("Reschedule(%d) = %v, oracle says pending=%v", id, got, pending)
			}
		case 5: // the zero handle is inert
			if e.Cancel(Timer{}) || e.Reschedule(Timer{}, 0) {
				t.Fatal("the zero Timer reported a pending event")
			}
		}
		if e.Pending() != len(o) {
			t.Fatalf("Pending() = %d, oracle holds %d", e.Pending(), len(o))
		}
		checkQueue(t, &e.q)
	}
}

// FuzzEventQueue checks the event heap against the sorted-slice oracle
// over arbitrary programs of schedules, pops, cancels and reschedules.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 3, 0, 3, 1, 9, 0, 1, 3, 1, 4, 20, 2, 0, 5, 0, 2, 0, 2, 0, 3, 0})
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		prog := make([]byte, 600)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runQueueProgram)
}
