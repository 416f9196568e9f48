package sim

import (
	"testing"
	"time"
)

// assertSteadyStateFree runs step once to grow the primitive's buffers,
// then fails t if further steps allocate.
func assertSteadyStateFree(t *testing.T, what string, step func()) {
	t.Helper()
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("%s allocated %.1f times per cycle, want 0", what, n)
	}
}

// tick runs e for one more microsecond of virtual time.
func tick(e *Env) { e.RunUntil(e.Now() + time.Microsecond) }

func TestStoreBlockedGetDoesNotAllocate(t *testing.T) {
	e := New(1)
	s := NewStore[int]()
	got := 0
	e.Spawn("getter", func(p *Proc) {
		for {
			v, ok := s.Get(p) // blocks: every item arrives after it waits
			if !ok {
				return
			}
			got += v
		}
	})
	put := func() { s.Put(1) }
	assertSteadyStateFree(t, "Put to a blocked Get", func() {
		e.After(time.Microsecond, put)
		tick(e)
	})
	s.Close()
	e.Run()
	if got != 102 { // the sizing step, AllocsPerRun's warm-up and its 100 runs
		t.Errorf("getter received %d items, want 102", got)
	}
}

func TestBoundedPutWaitDoesNotAllocate(t *testing.T) {
	e := New(1)
	s := NewBounded[int](2)
	stop := false
	e.Spawn("producer", func(p *Proc) {
		for !stop {
			s.PutWait(p, 1) // blocks on the full store almost every time
		}
		s.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := s.Get(p); !ok {
				return
			}
			p.Sleep(time.Microsecond)
		}
	})
	assertSteadyStateFree(t, "PutWait under backpressure", func() { tick(e) })
	stop = true
	e.Run()
	if dl := e.Deadlocked(); len(dl) != 0 {
		t.Errorf("deadlocked: %v", dl)
	}
}

func TestContendedSemaphoreDoesNotAllocate(t *testing.T) {
	e := New(1)
	sem := NewSemaphore(1)
	stop := false
	for _, name := range []string{"a", "b", "c"} {
		e.Spawn(name, func(p *Proc) {
			for !stop {
				sem.Acquire(p, 1) // two of the three are always queued
				p.Sleep(time.Microsecond)
				sem.Release(1)
			}
		})
	}
	assertSteadyStateFree(t, "contended Acquire/Release", func() { tick(e) })
	stop = true
	e.Run()
	if sem.InUse() != 0 || sem.Waiting() != 0 {
		t.Errorf("semaphore left with %d in use, %d waiting", sem.InUse(), sem.Waiting())
	}
}

func TestEventWaitTriggerDoesNotAllocate(t *testing.T) {
	// A WaitGroup re-arms its Event in place, so each cycle is one Wait
	// that blocks and one Trigger that wakes it on the same Event.
	e := New(1)
	var wg WaitGroup
	done := wg.Done
	stop := false
	cycles := 0
	e.Spawn("waiter", func(p *Proc) {
		for !stop {
			wg.Add(1)
			e.After(time.Microsecond, done)
			wg.Wait(p)
			cycles++
		}
	})
	assertSteadyStateFree(t, "Event Wait/Trigger", func() { tick(e) })
	stop = true
	e.Run()
	if cycles < 101 {
		t.Errorf("%d wait/trigger cycles, want at least 101", cycles)
	}
}
