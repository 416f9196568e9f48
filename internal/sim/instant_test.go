package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// timerOpsTrace drives a seeded random mix of timer operations — schedule,
// cancel, move — issued before the run and from inside firing callbacks,
// and returns everything observable: each operation's result, Pending and
// Events after it, and every dispatch with its instant. With move set a
// timer is moved by Reschedule; without, by Cancel followed by At. Handles
// of fired and cancelled timers stay in the pool, so both paths also see
// stale handles.
func timerOpsTrace(seed int64, move bool) []string {
	e := New(1)
	rng := rand.New(rand.NewSource(seed))
	var (
		trace  []string
		timers []Timer
		fns    []func()
		op     func()
	)
	op = func() {
		var res string
		switch k := rng.Intn(10); {
		case k < 4 || len(timers) == 0:
			id := len(timers)
			fns = append(fns, func() {
				trace = append(trace, fmt.Sprintf("fire %d t=%d", id, e.Now()))
				for n := rng.Intn(3); n > 0; n-- {
					op()
				}
			})
			timers = append(timers, e.At(e.Now()+time.Duration(rng.Intn(40)), fns[id]))
			res = fmt.Sprintf("at %d", id)
		case k < 6:
			i := rng.Intn(len(timers))
			res = fmt.Sprintf("cancel %d %v", i, e.Cancel(timers[i]))
		default:
			i := rng.Intn(len(timers))
			// Targets up to 10 ns in the past exercise the clamp.
			at := e.Now() + time.Duration(rng.Intn(50)-10)
			var ok bool
			if move {
				ok = e.Reschedule(timers[i], at)
			} else if ok = e.Cancel(timers[i]); ok {
				timers[i] = e.At(at, fns[i])
			}
			res = fmt.Sprintf("move %d %v", i, ok)
		}
		trace = append(trace, fmt.Sprintf("%s pending=%d events=%d", res, e.Pending(), e.Events()))
	}
	for i := 0; i < 30; i++ {
		op()
	}
	e.Run()
	return append(trace, fmt.Sprintf("end t=%d pending=%d events=%d", e.Now(), e.Pending(), e.Events()))
}

func TestRescheduleMatchesCancelAtStress(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ref, got := timerOpsTrace(seed, false), timerOpsTrace(seed, true)
		if !slices.Equal(ref, got) {
			for i := range min(len(ref), len(got)) {
				if ref[i] != got[i] {
					t.Fatalf("seed %d: entry %d is %q with Reschedule, %q with Cancel+At", seed, i, got[i], ref[i])
				}
			}
			t.Fatalf("seed %d: %d entries with Reschedule, %d with Cancel+At", seed, len(got), len(ref))
		}
		if !strings.Contains(strings.Join(got, "\n"), "true") {
			t.Fatalf("seed %d: no cancel or move found a live timer", seed)
		}
	}
}

func TestRescheduleInertHandles(t *testing.T) {
	e := New(1)
	fired := e.After(time.Millisecond, func() {})
	cancelled := e.After(time.Hour, func() {})
	e.Cancel(cancelled)
	e.Run()
	seq := e.seq
	for name, tm := range map[string]Timer{"zero": {}, "fired": fired, "cancelled": cancelled} {
		if e.Reschedule(tm, time.Second) {
			t.Errorf("Reschedule of a %s handle reported pending", name)
		}
	}
	if e.Pending() != 0 || e.seq != seq {
		t.Errorf("inert Reschedules left pending=%d and took %d sequence numbers", e.Pending(), e.seq-seq)
	}

	// A moved timer keeps its handle: it can be moved again and cancelled.
	var at time.Duration
	tm := e.After(time.Second, func() { at = e.Now() })
	if !e.Reschedule(tm, 3*time.Second) || !e.Reschedule(tm, 2*time.Second) {
		t.Fatal("Reschedule of a pending timer reported not-pending")
	}
	e.Run()
	if at != 2*time.Second {
		t.Errorf("moved timer fired at %v, want 2s", at)
	}
	tm = e.After(time.Second, func() { t.Error("cancelled timer fired") })
	e.Reschedule(tm, 5*time.Second)
	if !e.Cancel(tm) {
		t.Error("Cancel through a moved timer's handle reported not-pending")
	}
	e.Run()
}

func TestEndOfInstantAfterSameInstantEvents(t *testing.T) {
	e := New(1)
	var got []string
	log := func(s string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) }
	}
	e.At(10, func() {
		log("a")()
		e.AtEndOfInstant(log("hook"))
		e.At(10, log("mid-instant")) // scheduled while the instant runs
		e.At(11, log("next"))
	})
	e.At(10, log("b"))
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		log("proc")()
		p.Sleep(0)
		log("proc-again")()
	})
	e.Run()
	want := []string{"a@10", "b@10", "proc@10", "mid-instant@10", "proc-again@10", "hook@10", "next@11"}
	if !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	// Seven events: three process wakes (the spawn's included) and four
	// callbacks; the hook is not one.
	if e.Events() != 7 || e.Pending() != 0 {
		t.Errorf("events=%d pending=%d, want 7 and 0: a hook is not an event", e.Events(), e.Pending())
	}
}

func TestEndOfInstantAfterCrossShardDeliveries(t *testing.T) {
	const la = 5 * time.Microsecond
	g := NewShardGroup(2, la, 1)
	src, dst := g.Shard(0), g.Shard(1)
	var got []string
	log := func(s string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", s, dst.Now())) }
	}
	at := la + 100
	src.At(100, func() {
		g.Send(0, 1, at, 1, 1, func() {
			log("msg1")()
			dst.AtEndOfInstant(log("hook"))
		})
		g.Send(0, 1, at, 2, 1, log("msg2"))
	})
	dst.At(at, log("local"))
	g.Run()
	ts := fmt.Sprint(int64(at))
	want := []string{"msg1@" + ts, "msg2@" + ts, "local@" + ts, "hook@" + ts}
	if !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestEndOfInstantAtWindowEdgeAndRunUntilLimit(t *testing.T) {
	// Fixed-horizon windows: shard 0's first window is [0, lookahead), so
	// a hook registered at lookahead-1 must run inside that window, before
	// the barrier, and before the clock reaches the next event.
	const la = 1000
	g := NewShardGroup(2, la, 1)
	g.fixed = true
	e := g.Shard(0)
	g.Shard(1).At(0, func() {})
	var regWin, hookWin int64
	hookAt := time.Duration(-1)
	e.At(la-1, func() {
		regWin = g.Windows()
		e.AtEndOfInstant(func() { hookWin, hookAt = g.Windows(), e.Now() })
	})
	e.At(la, func() {
		if hookAt < 0 {
			t.Error("the next instant began before the hook ran")
		}
	})
	g.Run()
	if hookAt != la-1 || hookWin != regWin {
		t.Errorf("hook ran at %v in window %d, want %v in window %d", hookAt, hookWin, time.Duration(la-1), regWin)
	}

	// A hook registered before the group runs, on a shard with nothing
	// scheduled, still runs at that shard's current time.
	g = NewShardGroup(2, la, 1)
	idle := false
	g.Shard(1).AtEndOfInstant(func() { idle = true })
	if g.Run(); !idle {
		t.Error("a hook on an idle shard never ran")
	}

	// RunUntil returns only after the limit instant's hooks ran.
	e = New(1)
	ran := false
	e.At(10, func() { e.AtEndOfInstant(func() { ran = true }) })
	e.At(20, func() {})
	if end := e.RunUntil(10); end != 10 || !ran {
		t.Errorf("RunUntil(10) returned at %v with the hook run=%v, want 10ns and true", end, ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending=%d after RunUntil(10), want the 20ns event", e.Pending())
	}
}

func TestEndOfInstantHookSchedulesMore(t *testing.T) {
	e := New(1)
	var got []string
	log := func(s string) { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) }
	e.At(5, func() {
		e.AtEndOfInstant(func() {
			log("h1")
			e.At(e.Now(), func() {
				log("now")
				e.AtEndOfInstant(func() { log("h3") })
			})
			e.AtEndOfInstant(func() { log("h2") })
		})
	})
	e.At(6, func() { log("later") })
	e.Run()
	want := []string{"h1@5", "h2@5", "now@5", "h3@5", "later@6"}
	if !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestEndOfInstantHookPanicAbortsRun(t *testing.T) {
	for _, onProc := range []bool{false, true} {
		func() {
			e := New(1)
			e.At(time.Millisecond, func() {
				e.AtEndOfInstant(func() { panic("boom") })
			})
			if onProc {
				// The sleeper's yield runs the event loop, so the hook runs
				// on its stack, as callbacks do.
				e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Second) })
			}
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
					t.Errorf("onProc=%v: Run recovered %v, want the hook's panic", onProc, r)
				}
			}()
			e.Run()
		}()
	}
}

func TestAtEndOfInstantNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AtEndOfInstant(nil) did not panic")
		}
	}()
	New(1).AtEndOfInstant(nil)
}

func TestHookAndRescheduleDoNotAllocate(t *testing.T) {
	e := New(1)
	var tm Timer
	fire := func() {}
	hook := func() { e.Reschedule(tm, e.Now()+time.Millisecond) }
	kick := func() { e.AtEndOfInstant(hook) }
	tm = e.After(time.Hour, fire)
	step := func() {
		e.After(time.Microsecond, kick)
		e.RunUntil(e.Now() + time.Microsecond)
	}
	step() // size the hook list
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("hook + reschedule allocated %.1f times per instant, want 0", n)
	}
}
