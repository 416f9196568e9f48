package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// A process whose own wake is the next live event never leaves its stack:
// Sleep runs the event loop inline and returns.
func TestLoneSleeperNeverSwitches(t *testing.T) {
	e := New(1)
	var during int64
	e.Spawn("sleeper", func(p *Proc) {
		before := e.switches
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Microsecond)
		}
		during = e.switches - before
	})
	if end := e.Run(); end != time.Millisecond {
		t.Fatalf("run ended at %v, want 1ms", end)
	}
	if during != 0 {
		t.Errorf("1000 uncontended sleeps made %d switches, want 0", during)
	}
	if e.switches != 1 {
		t.Errorf("run made %d switches, want 1 (the exit)", e.switches)
	}
}

// Two processes that alternate must switch on every yield; the counter the
// test above relies on would read 0 there too if it counted nothing.
func TestContendedSleepersSwitch(t *testing.T) {
	e := New(1)
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	e.Run()
	if e.switches < 20 {
		t.Errorf("two interleaved sleepers made %d switches, want >= 20", e.switches)
	}
}

// A callback timer due while a process is mid-yield is dispatched by that
// process, on its stack, ahead of the process's own later wake.
func TestCallbackFiresInlineDuringYield(t *testing.T) {
	e := New(1)
	var order []string
	var during int64
	e.Spawn("p", func(p *Proc) {
		doomed := e.After(3*time.Millisecond, func() { order = append(order, "doomed") })
		e.After(time.Millisecond, func() {
			order = append(order, fmt.Sprintf("cb@%v", e.Now()))
			if !e.Cancel(doomed) {
				t.Error("callback could not cancel a pending timer")
			}
		})
		before := e.switches
		p.Sleep(2 * time.Millisecond)
		during = e.switches - before
		order = append(order, fmt.Sprintf("p@%v", e.Now()))
	})
	e.Run()
	if want := []string{"cb@1ms", "p@2ms"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if during != 0 {
		t.Errorf("sleep across a callback made %d switches, want 0", during)
	}
}

// The same callback may wake and create processes; they run at the
// callback's instant, in schedule order, before the yielding process.
func TestCallbackDuringYieldSpawnsAndTriggers(t *testing.T) {
	e := New(1)
	ev := &Event{}
	var order []string
	e.Spawn("waiter", func(p *Proc) {
		ev.Wait(p)
		order = append(order, fmt.Sprintf("woken@%v", e.Now()))
	})
	e.Spawn("p", func(p *Proc) {
		e.After(time.Millisecond, func() {
			order = append(order, "cb")
			ev.Trigger()
			e.Spawn("child", func(*Proc) { order = append(order, fmt.Sprintf("child@%v", e.Now())) })
		})
		p.Sleep(2 * time.Millisecond)
		order = append(order, fmt.Sprintf("p@%v", e.Now()))
	})
	e.Run()
	if want := []string{"cb", "woken@1ms", "child@1ms", "p@2ms"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if names := e.Deadlocked(); len(names) != 0 {
		t.Errorf("deadlocked: %v", names)
	}
}

// When Trigger and the timeout land on the same instant, schedule order
// decides: whichever was scheduled first at that instant wins.
func TestTriggerVersusTimeoutSameInstant(t *testing.T) {
	for _, tc := range []struct {
		name         string
		triggerFirst bool
	}{
		{"trigger scheduled first", true},
		{"timeout scheduled first", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			ev := &Event{}
			var fired bool
			var at time.Duration
			trigger := func(p *Proc) {
				p.Sleep(time.Millisecond)
				ev.Trigger()
			}
			wait := func(p *Proc) {
				fired = ev.WaitTimeout(p, time.Millisecond)
				at = p.Now()
			}
			// Both start at 0 and schedule their 1ms event in spawn order.
			if tc.triggerFirst {
				e.Spawn("trigger", trigger)
				e.Spawn("waiter", wait)
			} else {
				e.Spawn("waiter", wait)
				e.Spawn("trigger", trigger)
			}
			events := e.Events()
			e.Run()
			if fired != tc.triggerFirst {
				t.Errorf("WaitTimeout = %v, want %v", fired, tc.triggerFirst)
			}
			if at != time.Millisecond {
				t.Errorf("waiter resumed at %v, want 1ms", at)
			}
			// Two first wakes, the trigger's sleep, and one wake for the
			// waiter either way: the losing side never pops.
			if got := e.Events() - events; got != 4 {
				t.Errorf("run popped %d events, want 4", got)
			}
			if e.Pending() != 0 {
				t.Errorf("Pending() = %d after run, want 0", e.Pending())
			}
		})
	}
}

func TestProcessPanicMessage(t *testing.T) {
	e := New(1)
	e.Spawn("idle", func(p *Proc) { p.Sleep(time.Second) })
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	defer func() {
		want := `sim: process "bomb" panicked: boom`
		if r := recover(); fmt.Sprint(r) != want {
			t.Errorf("Run panicked with %q, want %q", fmt.Sprint(r), want)
		}
	}()
	e.Run()
}

// A callback that panics while a process's yield is dispatching it is the
// callback's failure, not the process's: Run re-raises the original value.
func TestCallbackPanicOnProcessStackKeepsValue(t *testing.T) {
	sentinel := errors.New("callback failure")
	e := New(1)
	e.Spawn("p", func(p *Proc) {
		e.After(time.Millisecond, func() { panic(sentinel) })
		p.Sleep(time.Second)
		t.Error("process resumed after the callback panicked")
	})
	defer func() {
		if r := recover(); r != sentinel {
			t.Errorf("Run panicked with %v, want the callback's own value", r)
		}
	}()
	e.Run()
}

// A finished shell keeps running the event loop. If a callback it
// dispatches re-Spawns it from the pool, it runs the new body in place.
func TestShellRespawnedDuringPostExitLoop(t *testing.T) {
	e := New(1)
	var first, second *Proc
	var ranAt time.Duration = -1
	first = e.Spawn("first", func(*Proc) {
		e.After(time.Millisecond, func() {
			second = e.Spawn("second", func(p *Proc) { ranAt = p.Now() })
		})
	})
	e.Run()
	if second != first {
		t.Fatal("the callback's Spawn did not reuse the finished shell")
	}
	if ranAt != time.Millisecond {
		t.Errorf("second body ran at %v, want 1ms", ranAt)
	}
	if second.Name() != "second" {
		t.Errorf("shell name = %q, want the new incarnation's", second.Name())
	}
	if e.switches != 1 {
		t.Errorf("run made %d switches, want 1: both bodies on one stack, then the exit", e.switches)
	}
}

// RunUntil with a limit the clock has already passed does nothing: the
// clock does not run backwards and pending events keep their order.
func TestRunUntilIntoThePast(t *testing.T) {
	e := New(1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(10 * time.Millisecond)
			order = append(order, name)
		})
	}
	if now := e.RunUntil(5 * time.Millisecond); now != 5*time.Millisecond {
		t.Fatalf("RunUntil(5ms) = %v", now)
	}
	if now := e.RunUntil(2 * time.Millisecond); now != 5*time.Millisecond {
		t.Errorf("RunUntil(2ms) moved the clock from 5ms to %v", now)
	}
	if len(order) != 0 {
		t.Errorf("events fired early: %v", order)
	}
	if end := e.Run(); end != 10*time.Millisecond {
		t.Errorf("run ended at %v, want 10ms", end)
	}
	if want := []string{"a", "b", "c"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// A process in WaitTimeout owns a scheduled wake, so a run that stops short
// of it must not report it deadlocked; a plain Wait has no such wake.
func TestDeadlockedIgnoresPendingTimeout(t *testing.T) {
	e := New(1)
	never, late := &Event{}, &Event{}
	var timedOut, fired bool
	e.Spawn("timed-out", func(p *Proc) { timedOut = !never.WaitTimeout(p, time.Second) })
	e.Spawn("timed-fired", func(p *Proc) { fired = late.WaitTimeout(p, time.Second) })
	e.Spawn("plain", func(p *Proc) { never.Wait(p) })
	e.After(500*time.Millisecond, late.Trigger)
	e.RunUntil(time.Millisecond)
	if got := e.Deadlocked(); !slices.Equal(got, []string{"plain"}) {
		t.Errorf("mid-run Deadlocked() = %v, want [plain]", got)
	}
	e.Run()
	if !timedOut || !fired {
		t.Errorf("timedOut = %v, fired = %v, want both true", timedOut, fired)
	}
	if got := e.Deadlocked(); !slices.Equal(got, []string{"plain"}) {
		t.Errorf("final Deadlocked() = %v, want [plain]", got)
	}
}

// settledGoroutines reads the goroutine count, polling for up to two
// seconds while it is above want: a goroutine past its last statement (a
// ShardGroup worker after wg.Done, an earlier test's) still counts until
// its thread gets to reap it, and that is only observable through the
// count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// goroutineBaseline lets stragglers from earlier tests exit, then counts.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
}

// A drained run leaves no coroutine behind: every shell ends in the pool
// and the pool is stopped when the run returns.
func TestRunLeaksNoGoroutines(t *testing.T) {
	base := goroutineBaseline()
	e := New(1)
	sem := NewSemaphore(2)
	var wg WaitGroup
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < 50; i++ {
			wg.Add(1)
			e.Spawn("worker", func(q *Proc) {
				sem.Acquire(q, 1)
				q.Sleep(time.Duration(1+i%3) * time.Microsecond)
				sem.Release(1)
				wg.Done()
			})
		}
		wg.Wait(p)
	})
	e.RunUntil(10 * time.Microsecond) // stop mid-flight, then drain
	e.Run()
	if names := e.Deadlocked(); len(names) != 0 {
		t.Fatalf("deadlocked: %v", names)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after a drained Run, want the %d from before", n, base)
	}
}

func TestShardGroupRunLeaksNoGoroutines(t *testing.T) {
	base := goroutineBaseline()
	const shards = 4
	g := NewShardGroup(shards, time.Microsecond, 1)
	hops := 0
	for i := 0; i < shards; i++ {
		e, seq := g.Shard(i), uint64(0)
		e.Spawn("pinger", func(p *Proc) {
			for r := 0; r < 20; r++ {
				p.Sleep(time.Microsecond)
				seq++
				dst := (i + 1) % shards
				g.Send(i, dst, p.Now()+g.Lookahead(), uint64(i), seq, func() {
					g.Shard(dst).Spawn("shot", func(q *Proc) { q.Sleep(time.Nanosecond) })
				})
			}
		})
		hops += 20
	}
	withProcs(shards, func() { g.Run() })
	if g.Messages() != int64(hops) {
		t.Fatalf("delivered %d messages, want %d", g.Messages(), hops)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after ShardGroup.Run, want the %d from before", n, base)
	}
}
