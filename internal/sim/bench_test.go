package sim

import (
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
