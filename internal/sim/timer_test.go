package sim

import (
	"testing"
	"time"
)

func TestTimerOrderingWithProcesses(t *testing.T) {
	// Callbacks and process wakes landing on the same virtual instant fire
	// in schedule (FIFO) order, even though one kind runs inline and the
	// other on its own coroutine.
	e := New(1)
	var got []string
	e.After(time.Millisecond, func() { got = append(got, "cb1") })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		got = append(got, "proc")
	})
	e.After(time.Millisecond, func() { got = append(got, "cb2") })
	e.Run()
	want := []string{"cb1", "cb2", "proc"} // proc's 1ms wake is scheduled last
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAtClampsToNow(t *testing.T) {
	e := New(1)
	fired := time.Duration(-1)
	e.Spawn("p", func(p *Proc) {
		p.Sleep(time.Second)
		e.At(time.Millisecond, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != time.Second {
		t.Fatalf("past-time At fired at %v, want clamped to %v", fired, time.Second)
	}
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after scheduling, want 1", e.Pending())
	}
	if !e.Cancel(tm) {
		t.Fatal("Cancel of a pending timer reported not-pending")
	}
	if e.Cancel(tm) {
		t.Fatal("second Cancel of the same timer reported pending")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0 (no tombstone)", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("cancelled callback still fired")
	}
	if e.Cancel(Timer{}) {
		t.Fatal("Cancel of the zero Timer reported pending")
	}

	// A slot reused by a later timer must not be cancellable through the
	// stale handle (generation guard).
	stale := e.After(time.Second, func() {})
	e.Cancel(stale)
	fresh := e.After(time.Second, func() {})
	if e.Cancel(stale) {
		t.Fatal("stale handle cancelled a reused slot")
	}
	if !e.Cancel(fresh) {
		t.Fatal("fresh handle could not cancel its own timer")
	}

	// Cancelling after the callback fired is a no-op.
	done := e.After(time.Millisecond, func() {})
	e.Run()
	if e.Cancel(done) {
		t.Fatal("Cancel after fire reported pending")
	}
}

func TestTimerCallbackPanicAbortsRun(t *testing.T) {
	e := New(1)
	e.After(0, func() { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("Run did not propagate the callback panic")
		}
	}()
	e.Run()
}

func TestAtNilCallbackPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Error("At(nil) did not panic")
		}
	}()
	e.At(0, nil)
}

func TestCallbackInteractsWithProcesses(t *testing.T) {
	// A callback may trigger events (waking blocked processes) and spawn new
	// processes; both resume at the callback's instant in FIFO order.
	e := New(1)
	ev := &Event{}
	var order []string
	e.Spawn("waiter", func(p *Proc) {
		ev.Wait(p)
		order = append(order, "woken")
	})
	e.After(time.Millisecond, func() {
		order = append(order, "cb")
		ev.Trigger()
		e.Spawn("child", func(p *Proc) { order = append(order, "child") })
	})
	end := e.Run()
	if end != time.Millisecond {
		t.Fatalf("run ended at %v, want %v", end, time.Millisecond)
	}
	want := []string{"cb", "woken", "child"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
	if names := e.Deadlocked(); len(names) != 0 {
		t.Fatalf("deadlocked processes: %v", names)
	}
}

// TestWaitTimeoutCancelledTimersDoNotAccumulate is the tombstone regression
// test: a workload that keeps winning timed waits (event first, far-future
// timeout) must not grow the event queue, because Trigger cancels the losing
// timeout eagerly and cancellation removes the slot outright.
func TestWaitTimeoutCancelledTimersDoNotAccumulate(t *testing.T) {
	e := New(1)
	maxPending := 0
	e.Spawn("w", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			ev := &Event{}
			e.Spawn("trig", func(q *Proc) {
				q.Sleep(time.Microsecond)
				ev.Trigger()
			})
			if !ev.WaitTimeout(p, time.Hour) {
				t.Error("wait timed out though the trigger was 1µs away")
			}
			if n := e.Pending(); n > maxPending {
				maxPending = n
			}
		}
	})
	e.Run()
	if maxPending > 4 {
		t.Errorf("pending events reached %d; cancelled timeouts are accumulating", maxPending)
	}
}

func TestSpawnReusesShells(t *testing.T) {
	e := New(1)
	var first, second *Proc
	e.Spawn("driver", func(p *Proc) {
		first = e.Spawn("shot1", func(q *Proc) {})
		p.Sleep(0) // requeue behind shot1 so it finishes and parks its shell
		second = e.Spawn("shot2", func(q *Proc) {})
		p.Sleep(0)
	})
	e.Run()
	if first != second {
		t.Error("second one-shot spawn did not reuse the pooled shell")
	}
	if len(e.pool) != 0 {
		t.Errorf("pool still holds %d shells after Run; drained runs must pin no goroutines", len(e.pool))
	}
}

func TestSemaphoreReleaseClearsQueueSlot(t *testing.T) {
	// Release must zero the popped queue slot: the ring's buffer outlives
	// the pop, and a long-lived semaphore must not pin released waiters.
	e := New(1)
	s := NewSemaphore(1)
	e.Spawn("holder", func(p *Proc) {
		s.Acquire(p, 1)
		p.Sleep(time.Millisecond) // let the waiter queue up
		backing := s.queue.buf
		s.Release(1)
		for i := range backing {
			if backing[i].p != nil {
				t.Error("Release left the popped queue slot populated, pinning the waiter")
			}
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		s.Acquire(p, 1)
		s.Release(1)
	})
	e.Run()
}
