package sim

import "time"

// Event is a one-shot broadcast signal. Any number of processes may Wait on
// it; Trigger wakes all current waiters in FIFO order and makes every later
// Wait return immediately. The zero value is ready to use.
type Event struct {
	triggered bool
	waiters   []*waiter
	// Value carries an optional payload set by the triggering party.
	Value any
}

type waiter struct {
	p *Proc
	// fired guards against double-resume when a wait carries a timeout:
	// whichever of {event, timeout} fires first flips it, and the loser's
	// pending timer is cancelled.
	fired bool
	// timer is the pending timeout wake, if the wait carries one; Trigger
	// cancels it eagerly so no tombstone lingers in the event queue.
	timer Timer
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event, waking all waiters. Triggering an already
// triggered event is a no-op.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	for _, w := range ev.waiters {
		if w.fired {
			continue
		}
		w.fired = true
		if w.timer != (Timer{}) {
			// Remove the losing timeout from the event queue right away:
			// it can no longer fire, and eager removal keeps a workload
			// that repeatedly wins timed waits from accumulating far-future
			// tombstones (and from a spurious second wake if the timeout
			// lands on the same virtual instant as this trigger).
			w.p.env.Cancel(w.timer)
		}
		w.p.unblock(wakeEvent)
	}
	ev.waiters = nil
}

// Wait blocks the process until the event fires. Returns immediately if it
// already has.
func (ev *Event) Wait(p *Proc) {
	if ev.triggered {
		return
	}
	ev.waiters = append(ev.waiters, &waiter{p: p})
	p.block()
}

// WaitTimeout blocks the process until the event fires or d elapses,
// whichever comes first. It reports whether the event fired (true) or the
// wait timed out (false).
func (ev *Event) WaitTimeout(p *Proc, d time.Duration) bool {
	if ev.triggered {
		return true
	}
	// Scrub waiters whose timeout already fired so repeated timed waits on
	// a long-lived event do not accumulate garbage.
	live := ev.waiters[:0]
	for _, old := range ev.waiters {
		if !old.fired {
			live = append(live, old)
		}
	}
	ev.waiters = live
	w := &waiter{p: p}
	ev.waiters = append(ev.waiters, w)
	// The timeout is a timed wake with its own reason, so the process owns a
	// scheduled event and yields rather than blocks; Trigger cancels it.
	if d < 0 {
		d = 0
	}
	w.timer = p.env.scheduleProc(p.env.now+int64(d), p, wakeTimeout)
	if p.yield() == wakeTimeout {
		// Timed out: mark the waiter dead so a later Trigger skips it.
		w.fired = true
		return false
	}
	return true
}

// Signal is a single-waiter wake-up, the allocation-free alternative to
// Event for rendezvous points where exactly one process ever waits (e.g.
// a flow's blocked writer). Each Wait/Fire pair is one cycle; after both
// sides have met, the Signal is ready for the next cycle. The zero value
// is ready to use.
type Signal struct {
	p     *Proc
	fired bool // Fire arrived before Wait in this cycle
}

// Wait blocks the process until Fire is called. Returns immediately
// (consuming the pending fire) if Fire already happened this cycle.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		s.fired = false
		return
	}
	s.p = p
	p.block()
}

// Fire wakes the waiting process, or marks the cycle fired so the next
// Wait returns immediately.
func (s *Signal) Fire() {
	if p := s.p; p != nil {
		s.p = nil
		p.unblock(wakeEvent)
		return
	}
	s.fired = true
}

// WaitGroup counts outstanding work items on the virtual clock, analogous
// to sync.WaitGroup. The zero value is ready to use.
type WaitGroup struct {
	n    int
	done Event
}

// Add adds delta to the counter. When the counter reaches zero all waiters
// are released; adding after that starts a new cycle.
func (wg *WaitGroup) Add(delta int) {
	if wg.n == 0 && delta > 0 && wg.done.triggered {
		wg.done = Event{}
	}
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.done.Trigger()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the process until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.n == 0 {
		return
	}
	wg.done.Wait(p)
}
