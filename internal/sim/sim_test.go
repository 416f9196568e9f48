package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("new env clock = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := New(1)
	var woke time.Duration
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	end := e.Run()
	if woke != 5*time.Millisecond {
		t.Errorf("woke at %v, want 5ms", woke)
	}
	if end != 5*time.Millisecond {
		t.Errorf("run ended at %v, want 5ms", end)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := New(1)
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	e.Run()
}

func TestFIFOAtEqualTimestamps(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v, want spawn order", order)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := New(42)
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%d@%v", i, p.Now()))
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := New(1)
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Spawn("child", func(c *Proc) {
			if c.Now() != time.Millisecond {
				t.Errorf("child started at %v, want 1ms", c.Now())
			}
			childRan = true
		})
		p.Sleep(time.Millisecond)
	})
	e.Run()
	if !childRan {
		t.Error("child never ran")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var last time.Duration
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			last = p.Now()
		}
	})
	e.RunUntil(3500 * time.Millisecond)
	if last != 3*time.Second {
		t.Errorf("after RunUntil(3.5s) last tick = %v, want 3s", last)
	}
	if e.Now() != 3500*time.Millisecond {
		t.Errorf("clock = %v, want 3.5s", e.Now())
	}
	e.RunUntil(-1)
	if last != 10*time.Second {
		t.Errorf("after full run last tick = %v, want 10s", last)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := New(1)
	e.Spawn("bomb", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not propagate the process panic")
		}
	}()
	e.Run()
}

func TestEventBroadcast(t *testing.T) {
	e := New(1)
	ev := &Event{}
	var woke []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			ev.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Spawn("trigger", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Trigger()
	})
	e.Run()
	if fmt.Sprint(woke) != "[a b c]" {
		t.Errorf("wake order %v, want [a b c]", woke)
	}
	// Wait after trigger returns immediately.
	e2 := New(1)
	ev2 := &Event{}
	ev2.Trigger()
	var at time.Duration
	e2.Spawn("late", func(p *Proc) {
		ev2.Wait(p)
		at = p.Now()
	})
	e2.Run()
	if at != 0 {
		t.Errorf("late waiter blocked until %v", at)
	}
}

func TestEventWaitTimeout(t *testing.T) {
	e := New(1)
	ev := &Event{}
	var fired, timedOut bool
	e.Spawn("w1", func(p *Proc) {
		fired = ev.WaitTimeout(p, 10*time.Millisecond)
	})
	e.Spawn("w2", func(p *Proc) {
		timedOut = !ev.WaitTimeout(p, time.Millisecond)
	})
	e.Spawn("trigger", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		ev.Trigger()
	})
	e.Run()
	if !fired {
		t.Error("w1 should have seen the event before its deadline")
	}
	if !timedOut {
		t.Error("w2 should have timed out before the trigger")
	}
}

func TestEventWaitTimeoutRepeatedDoesNotLeak(t *testing.T) {
	e := New(1)
	ev := &Event{}
	e.Spawn("poller", func(p *Proc) {
		for i := 0; i < 100; i++ {
			ev.WaitTimeout(p, time.Millisecond)
		}
		if len(ev.waiters) > 1 {
			t.Errorf("dead waiters accumulated: %d", len(ev.waiters))
		}
	})
	e.Run()
}

func TestWaitGroup(t *testing.T) {
	e := New(1)
	var wg WaitGroup
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 3*time.Millisecond {
		t.Errorf("waitgroup released at %v, want 3ms", doneAt)
	}
}

func TestWaitGroupReuse(t *testing.T) {
	e := New(1)
	var wg WaitGroup
	e.Spawn("driver", func(p *Proc) {
		for cycle := 0; cycle < 3; cycle++ {
			wg.Add(1)
			e.Spawn("w", func(q *Proc) {
				q.Sleep(time.Millisecond)
				wg.Done()
			})
			before := p.Now()
			wg.Wait(p)
			if p.Now()-before != time.Millisecond {
				t.Errorf("cycle %d waited %v, want 1ms", cycle, p.Now()-before)
			}
		}
	})
	e.Run()
}

func TestSemaphoreFIFOAndCapacity(t *testing.T) {
	e := New(1)
	sem := NewSemaphore(2)
	var order []string
	hold := func(name string, d time.Duration) {
		e.Spawn(name, func(p *Proc) {
			sem.Acquire(p, 1)
			order = append(order, name+"+")
			p.Sleep(d)
			sem.Release(1)
			order = append(order, name+"-")
		})
	}
	hold("a", 4*time.Millisecond)
	hold("b", 2*time.Millisecond)
	hold("c", time.Millisecond)
	e.Run()
	want := "[a+ b+ b- c+ c- a-]"
	if fmt.Sprint(order) != want {
		t.Errorf("order %v, want %v", order, want)
	}
	if sem.InUse() != 0 {
		t.Errorf("in use after run = %d", sem.InUse())
	}
}

func TestSemaphoreNoStarvationOfLargeRequest(t *testing.T) {
	e := New(1)
	sem := NewSemaphore(4)
	var bigAt time.Duration
	e.Spawn("small1", func(p *Proc) {
		sem.Acquire(p, 2)
		p.Sleep(time.Millisecond)
		sem.Release(2)
	})
	e.Spawn("big", func(p *Proc) {
		sem.Acquire(p, 4)
		bigAt = p.Now()
		sem.Release(4)
	})
	e.Spawn("small2", func(p *Proc) {
		p.Sleep(100 * time.Microsecond)
		sem.Acquire(p, 2) // queued behind big: must not jump it
		p.Sleep(time.Millisecond)
		sem.Release(2)
	})
	e.Run()
	if bigAt != time.Millisecond {
		t.Errorf("big acquired at %v, want 1ms (FIFO)", bigAt)
	}
}

func TestTryAcquire(t *testing.T) {
	e := New(1)
	sem := NewSemaphore(1)
	e.Spawn("p", func(p *Proc) {
		if !sem.TryAcquire(1) {
			t.Error("TryAcquire on free semaphore failed")
		}
		if sem.TryAcquire(1) {
			t.Error("TryAcquire on full semaphore succeeded")
		}
		sem.Release(1)
	})
	e.Run()
}

func TestStoreFIFO(t *testing.T) {
	e := New(1)
	st := NewStore[int]()
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := st.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			st.Put(i)
		}
		st.Close()
	})
	e.Run()
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Errorf("got %v", got)
	}
	if names := e.Deadlocked(); len(names) != 0 {
		t.Errorf("deadlocked processes: %v", names)
	}
}

func TestStoreMultipleGettersFIFO(t *testing.T) {
	e := New(1)
	st := NewStore[int]()
	var got []string
	for _, name := range []string{"g1", "g2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			v, ok := st.Get(p)
			if ok {
				got = append(got, fmt.Sprintf("%s=%d", name, v))
			}
		})
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		st.Put(10)
		st.Put(20)
	})
	e.Run()
	if fmt.Sprint(got) != "[g1=10 g2=20]" {
		t.Errorf("got %v", got)
	}
}

func TestStoreTryGet(t *testing.T) {
	st := NewStore[string]()
	if _, ok := st.TryGet(); ok {
		t.Error("TryGet on empty store succeeded")
	}
	st.Put("x")
	if v, ok := st.TryGet(); !ok || v != "x" {
		t.Errorf("TryGet = %q,%v", v, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New(1)
	ev := &Event{}
	e.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	e.Run()
	names := e.Deadlocked()
	if len(names) != 1 || names[0] != "stuck" {
		t.Errorf("Deadlocked() = %v, want [stuck]", names)
	}
}

func TestPipeSingleTransferTime(t *testing.T) {
	e := New(1)
	pipe := NewPipe("disk", 100e6) // 100 MB/s
	var took time.Duration
	e.Spawn("t", func(p *Proc) {
		start := p.Now()
		pipe.Transfer(p, 200e6) // 200 MB -> 2 s
		took = p.Now() - start
	})
	e.Run()
	want := 2 * time.Second
	if diff := took - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("200MB over 100MB/s took %v, want ~%v", took, want)
	}
	if pipe.Served() != 200e6 {
		t.Errorf("served = %d", pipe.Served())
	}
}

func TestPipeAggregateThroughputUnderContention(t *testing.T) {
	e := New(1)
	pipe := NewPipe("nic", 1e9) // 1 GB/s
	var wg WaitGroup
	const flows = 4
	const per = 250e6 // 4 * 250 MB = 1 GB total -> 1 s aggregate
	finish := make([]time.Duration, flows)
	for i := 0; i < flows; i++ {
		i := i
		wg.Add(1)
		e.Spawn(fmt.Sprintf("f%d", i), func(p *Proc) {
			pipe.Transfer(p, per)
			finish[i] = p.Now()
			wg.Done()
		})
	}
	end := e.Run()
	if diff := end - time.Second; diff < -10*time.Millisecond || diff > 10*time.Millisecond {
		t.Errorf("aggregate completion %v, want ~1s", end)
	}
	// Chunked FIFO should make the flows finish close together (fair share),
	// not strictly serialized (which would finish at 0.25/0.5/0.75/1.0 s).
	for i := 0; i < flows; i++ {
		if finish[i] < 900*time.Millisecond {
			t.Errorf("flow %d finished at %v; expected near-simultaneous completion", i, finish[i])
		}
	}
	if u := pipe.Utilization(end); u < 0.99 || u > 1.0 {
		t.Errorf("utilization = %v, want ~1", u)
	}
}

func TestPipeZeroBytesFree(t *testing.T) {
	e := New(1)
	pipe := NewPipe("x", 1e6)
	e.Spawn("t", func(p *Proc) {
		pipe.Transfer(p, 0)
		if p.Now() != 0 {
			t.Errorf("zero-byte transfer advanced clock to %v", p.Now())
		}
	})
	e.Run()
}

func TestBoundedStoreBackpressure(t *testing.T) {
	e := New(1)
	st := NewBounded[int](2)
	var produced []time.Duration
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			st.PutWait(p, i)
			produced = append(produced, p.Now())
		}
		st.Close()
	})
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			v, ok := st.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Run()
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Errorf("got %v", got)
	}
	// First two puts are immediate; later puts must wait for consumer.
	if produced[0] != 0 || produced[1] != 0 {
		t.Errorf("first puts blocked: %v", produced)
	}
	if produced[4] < 3*time.Millisecond {
		t.Errorf("fifth put at %v; backpressure not applied", produced[4])
	}
}

func TestBoundedStorePutOnFullPanics(t *testing.T) {
	e := New(1)
	st := NewBounded[int](1)
	e.Spawn("p", func(p *Proc) {
		st.Put(1)
		defer func() {
			if recover() == nil {
				t.Error("Put on full bounded store did not panic")
			}
		}()
		st.Put(2)
	})
	func() {
		defer func() { recover() }() // absorb the re-raised panic from Run
		e.Run()
	}()
}

func TestBoundedStoreCloseReleasesPutters(t *testing.T) {
	e := New(1)
	st := NewBounded[int](1)
	var released bool
	e.Spawn("p", func(p *Proc) {
		st.PutWait(p, 1)
		st.PutWait(p, 2) // blocks: capacity 1
		released = true
	})
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		st.Close()
	})
	e.Run()
	if !released {
		t.Error("blocked putter not released by Close")
	}
}

func TestPipeReserveFIFO(t *testing.T) {
	pipe := NewPipe("r", 1e9) // 1 GB/s: 1e6 bytes = 1ms
	end1 := pipe.Reserve(0, 1e6)
	if end1 != int64(time.Millisecond) {
		t.Fatalf("first reservation ends at %v", time.Duration(end1))
	}
	// Second reservation queues behind the first even with an earlier
	// notBefore.
	end2 := pipe.Reserve(0, 1e6)
	if end2 != int64(2*time.Millisecond) {
		t.Fatalf("second reservation ends at %v", time.Duration(end2))
	}
	// A reservation after an idle gap starts at its notBefore.
	end3 := pipe.Reserve(int64(10*time.Millisecond), 1e6)
	if end3 != int64(11*time.Millisecond) {
		t.Fatalf("post-gap reservation ends at %v", time.Duration(end3))
	}
	if pipe.Served() != 3e6 {
		t.Errorf("served = %d", pipe.Served())
	}
}

func TestPipeReserveZeroBytes(t *testing.T) {
	pipe := NewPipe("r", 1e9)
	pipe.Reserve(0, 1e6)
	if end := pipe.Reserve(0, 0); end != int64(time.Millisecond) {
		t.Errorf("zero-byte reservation = %v, want pipe freeAt", time.Duration(end))
	}
	if end := pipe.Reserve(int64(5*time.Millisecond), 0); end != int64(5*time.Millisecond) {
		t.Errorf("zero-byte after idle = %v, want notBefore", time.Duration(end))
	}
}

func TestDeterminismWithStores(t *testing.T) {
	run := func() string {
		e := New(7)
		st := NewBounded[int](3)
		var log []int
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(e.Rand().Intn(100)) * time.Microsecond)
					st.PutWait(p, i*10+j)
				}
			})
		}
		e.Spawn("c", func(p *Proc) {
			for k := 0; k < 20; k++ {
				v, _ := st.Get(p)
				log = append(log, v)
				p.Sleep(30 * time.Microsecond)
			}
		})
		e.Run()
		return fmt.Sprint(log)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("store runs diverged:\n%s\n%s", a, b)
	}
}

func TestPanicPaths(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero-capacity semaphore", func() { NewSemaphore(0) })
	mustPanic("oversized acquire", func() {
		e := New(1)
		sem := NewSemaphore(1)
		e.Spawn("p", func(p *Proc) { sem.Acquire(p, 2) })
		e.Run()
	})
	mustPanic("over-release", func() { NewSemaphore(1).Release(1) })
	mustPanic("negative waitgroup", func() {
		var wg WaitGroup
		wg.Done()
	})
	mustPanic("zero-bandwidth pipe", func() { NewPipe("x", 0) })
	mustPanic("zero-capacity bounded store", func() { NewBounded[int](0) })
	mustPanic("put on closed store", func() {
		st := NewStore[int]()
		st.Close()
		st.Put(1)
	})
}

func TestStoreCloseIdempotent(t *testing.T) {
	st := NewStore[int]()
	st.Close()
	st.Close() // must not panic
}

func TestProcAccessors(t *testing.T) {
	e := New(1)
	e.Spawn("named", func(p *Proc) {
		if p.Name() != "named" {
			t.Errorf("name = %q", p.Name())
		}
		if p.Env() != e {
			t.Error("env accessor wrong")
		}
	})
	e.Run()
}
