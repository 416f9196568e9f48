package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkSimSleep measures the kernel's hottest path: one process
// sleeping repeatedly with nothing interleaved, i.e. one schedule + one pop
// per iteration, on the process's own stack.
func BenchmarkSimSleep(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSimSleepContended is the other half of Sleep's cost: two
// processes whose wakes alternate, so every yield names the other process
// and control passes through the Run goroutine (two coroutine switches per
// iteration).
func BenchmarkSimSleepContended(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSimTimer measures one-shot deferred work on the callback timer
// API: a chain of b.N Env.After callbacks each firing one microsecond after
// the last — no process, no switch, just heap traffic.
func BenchmarkSimTimer(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	e.After(time.Microsecond, tick)
	b.ResetTimer()
	e.Run()
}

// BenchmarkSimSpawn measures process startup/teardown: b.N sequential
// one-shot processes.
func BenchmarkSimSpawn(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Spawn("shot", func(q *Proc) {})
			p.Sleep(0) // requeue behind the child so it runs to completion
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSimWaitTimeout measures the timed-wait path where the event
// wins the race, so every iteration leaves a cancelled far-future timeout
// behind (the tombstone case).
func BenchmarkSimWaitTimeout(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	e.Spawn("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev := &Event{}
			e.Spawn("trig", func(q *Proc) {
				q.Sleep(time.Microsecond)
				ev.Trigger()
			})
			ev.WaitTimeout(p, time.Hour)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkPipeTransfer measures the bandwidth-resource path: one flow
// moving 4 MiB (4 chunk reservations + sleeps) per iteration.
func BenchmarkPipeTransfer(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	pipe := NewPipe("nic", 10e9)
	e.Spawn("t", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pipe.Transfer(p, 4<<20)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkEventQueue measures the event heap alone at the queue shape of
// the paper suite (fig2–fig9, tab6, tab7 at small scale, counted on one
// worker): a mean depth between 15 and 72 pending events by experiment
// (52 overall), 14–24% of pushes due at the current instant, and 0.37
// rekeys (Reschedule) per push overall. Each op pops the earliest event
// and pushes one in its place, so the depth holds, with a fifth of the
// pushes at now and one rekey per three pushes; the delays and rekey
// picks are drawn up front, so the op is heap traffic only.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			const draws = 1 << 12
			rng := rand.New(rand.NewSource(1))
			delay := make([]int64, draws)
			pick := make([]int, draws)
			for i := range delay {
				if rng.Intn(5) > 0 { // a fifth of the pushes land at now
					delay[i] = 1 + int64(rng.ExpFloat64()*float64(50*time.Microsecond))
				}
				pick[i] = rng.Intn(depth / 8)
			}
			var (
				q      eventQueue
				seq    uint64
				timers = make([]Timer, depth)
			)
			for i := range timers {
				timers[i] = q.push(delay[i], seq, nil, 0, nil, wakeEvent)
				seq++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i & (draws - 1)
				now := q.minTime()
				q.pop()
				timers[i%depth] = q.push(now+delay[k], seq, nil, 0, nil, wakeEvent)
				seq++
				// Every third op moves one of the last depth/8 pushes, or
				// this op's push if that one has fired.
				if k%3 == 0 {
					sl := q.lookup(timers[(i-pick[k]+depth)%depth])
					if sl == nil {
						sl = q.lookup(timers[i%depth])
					}
					q.rekey(sl, now+delay[(k+1)&(draws-1)], seq)
					seq++
				}
			}
		})
	}
}
