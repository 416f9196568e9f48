package sim

import (
	"slices"
	"testing"
	"time"
)

// A chain of callbacks that ends in a parked process wakes it with one
// event per step, the last one the process's own wake: the same events,
// at the same instants, as the process sleeping through the steps itself.
func TestChainEndingInProcessMatchesSleeps(t *testing.T) {
	steps := []time.Duration{3 * time.Microsecond, 0, 5 * time.Microsecond}
	trace := func(chain bool) (log []string, events int64) {
		e := New(1)
		e.Spawn("other", func(p *Proc) {
			for range 4 {
				p.Sleep(2 * time.Microsecond)
				log = append(log, "other@"+p.Now().String())
			}
		})
		e.Spawn("caller", func(p *Proc) {
			if chain {
				i := 0
				var step func()
				step = func() {
					log = append(log, "step@"+e.Now().String())
					if i++; i < len(steps) {
						e.After(steps[i-1], step)
						return
					}
					e.Resume(e.Now()+steps[i-1], p.Cont())
				}
				step()
				p.Park()
			} else {
				for _, d := range steps {
					log = append(log, "step@"+e.Now().String())
					p.Sleep(d)
				}
			}
			log = append(log, "caller@"+p.Now().String())
		})
		e.Run()
		return log, e.Events()
	}
	wantLog, wantEvents := trace(false)
	gotLog, gotEvents := trace(true)
	if !slices.Equal(gotLog, wantLog) || gotEvents != wantEvents {
		t.Errorf("chain: %v after %d events\nsleeps: %v after %d events", gotLog, gotEvents, wantLog, wantEvents)
	}
}

// Complete inside a callback hands the parked process the rest of that
// event: it runs before anything else due at the instant, takes no event
// of its own, and a callback continuation runs at once.
func TestCompleteResumesInPlace(t *testing.T) {
	e := New(1)
	var log []string
	e.Spawn("caller", func(p *Proc) {
		k := p.Cont()
		e.After(time.Microsecond, func() {
			e.At(e.Now(), func() { log = append(log, "later") })
			e.Complete(Callback(func() { log = append(log, "callback") }))
			e.Complete(k)
			log = append(log, "step")
		})
		p.Park()
		log = append(log, "caller@"+p.Now().String())
	})
	e.Run()
	want := []string{"callback", "step", "caller@1µs", "later"}
	if !slices.Equal(log, want) {
		t.Errorf("order %v, want %v", log, want)
	}
	// Spawn's wake, the step and "later": the caller's resume is not one.
	if got := e.Events(); got != 3 {
		t.Errorf("%d events, want 3", got)
	}
}

// A process parked on a chain owns a pending event through the chain, so
// Deadlocked does not report it when a run stops inside the chain, as it
// does not report a process in WaitTimeout.
func TestDeadlockedIgnoresParkedProcess(t *testing.T) {
	e := New(1)
	never := &Event{}
	woke := false
	e.Spawn("parked", func(p *Proc) {
		k := p.Cont()
		e.After(time.Millisecond, func() { e.Resume(e.Now()+time.Millisecond, k) })
		p.Park()
		woke = true
	})
	e.Spawn("plain", func(p *Proc) { never.Wait(p) })
	e.RunUntil(time.Millisecond + time.Microsecond)
	if got := e.Deadlocked(); !slices.Equal(got, []string{"plain"}) {
		t.Errorf("mid-chain Deadlocked() = %v, want [plain]", got)
	}
	e.Run()
	if !woke || e.Now() != 2*time.Millisecond {
		t.Errorf("woke = %v at %v, want true at 2ms", woke, e.Now())
	}
}
