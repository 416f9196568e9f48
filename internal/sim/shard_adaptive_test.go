package sim

import (
	"testing"
	"time"
)

// TestShardAdaptiveLookaheadStress is the adaptive-sync proof
// obligation: the token-passing trace fingerprint must be identical with
// adaptive lookahead ON and OFF, across shard counts and worker counts
// (GOMAXPROCS). The name rides `make stress`, so this also runs under
// -race with concurrent windows.
func TestShardAdaptiveLookaheadStress(t *testing.T) {
	var base uint64
	withProcs(1, func() { base = shardTraceMode(12, 1, false) })
	for _, adaptive := range []bool{false, true} {
		for _, shards := range []int{1, 4, 6} {
			for _, procs := range []int{1, 8} {
				withProcs(procs, func() {
					if got := shardTraceMode(12, shards, adaptive); got != base {
						t.Errorf("adaptive=%v shards=%d GOMAXPROCS=%d fingerprint %x, want %x",
							adaptive, shards, procs, got, base)
					}
				})
			}
		}
	}
}

// TestShardWindowZeroCrossShardMessages covers the swarm's common case:
// windows in which no cross-shard traffic exists at all. Every domain
// only runs local timers; the group must still window correctly, deliver
// nothing, and stay shard-count invariant.
func TestShardWindowZeroCrossShardMessages(t *testing.T) {
	run := func(shards int, adaptive bool) (uint64, int64, time.Duration) {
		g := NewShardGroup(shards, time.Microsecond, 9)
		g.fixed = !adaptive
		hashes := make([]uint64, 6)
		for d := 0; d < 6; d++ {
			d := d
			env := g.Shard(d % shards)
			hashes[d] = 14695981039346656037
			env.Spawn("local", func(p *Proc) {
				// Each domain works a disjoint era, so shard timelines
				// diverge — the regime adaptive widening exists for.
				p.Sleep(time.Duration(d) * 50 * time.Microsecond)
				for i := 0; i < 50; i++ {
					p.Sleep(time.Duration(100+d*37+i*11) * time.Nanosecond)
					hashes[d] ^= uint64(p.Now())
					hashes[d] *= 1099511628211
				}
			})
		}
		end := g.Run()
		if g.Messages() != 0 {
			t.Fatalf("shards=%d: %d messages delivered, want 0", shards, g.Messages())
		}
		h := uint64(14695981039346656037)
		for _, v := range hashes {
			h ^= v
			h *= 1099511628211
		}
		return h, g.Windows(), end
	}
	baseH, _, baseEnd := run(1, true)
	for _, shards := range []int{1, 2, 3, 6} {
		for _, adaptive := range []bool{false, true} {
			h, windows, end := run(shards, adaptive)
			if h != baseH || end != baseEnd {
				t.Errorf("shards=%d adaptive=%v: trace %x end %v, want %x end %v",
					shards, adaptive, h, end, baseH, baseEnd)
			}
			if windows == 0 {
				t.Errorf("shards=%d adaptive=%v: zero windows", shards, adaptive)
			}
			// Domains on distinct shards never overlap in time here, so
			// adaptive mode must let the momentary-min shard sprint: a
			// handful of windows, never the ~era/lookahead lock-step count.
			if adaptive && windows > int64(4*shards) {
				t.Errorf("shards=%d adaptive: %d windows for a message-free run, want <= %d",
					shards, windows, 4*shards)
			}
		}
	}
}

// TestShardHeapDrainsBeforeBarrier covers a shard whose event heap
// empties mid-run: it must go inactive, then wake again when a message
// for it arrives at a later barrier, and the delivery must land at the
// exact requested time.
func TestShardHeapDrainsBeforeBarrier(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		g := NewShardGroup(2, time.Microsecond, 3)
		g.fixed = !adaptive
		var got []time.Duration
		// Shard 1 has one early event, then its heap drains completely.
		g.Shard(1).Spawn("early", func(p *Proc) {
			p.Sleep(500 * time.Nanosecond)
		})
		// Shard 0 keeps working long past shard 1's drain, then messages it.
		g.Shard(0).Spawn("late", func(p *Proc) {
			p.Sleep(40 * time.Microsecond)
			g.Send(0, 1, p.Now()+time.Microsecond, 7, 1, func() {
				got = append(got, g.Shard(1).Now())
				// The revived shard may itself answer.
				g.Send(1, 0, g.Shard(1).Now()+time.Microsecond, 8, 1, func() {
					got = append(got, g.Shard(0).Now())
				})
			})
		})
		g.Run()
		want := []time.Duration{41 * time.Microsecond, 42 * time.Microsecond}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("adaptive=%v: deliveries %v, want %v", adaptive, got, want)
		}
		if g.Messages() != 2 {
			t.Errorf("adaptive=%v: Messages() = %d, want 2", adaptive, g.Messages())
		}
	}
}

// TestShardAdaptiveWindowReduction pins the mechanism the swarm's
// wall-clock win rides on: under sparse cross-shard traffic, adaptive
// lookahead must need far fewer synchronization windows than the classic
// fixed horizon, with the trace unchanged.
func TestShardAdaptiveWindowReduction(t *testing.T) {
	run := func(adaptive bool) (int64, time.Duration) {
		g := NewShardGroup(4, time.Microsecond, 5)
		g.fixed = !adaptive
		for s := 0; s < 4; s++ {
			s := s
			g.Shard(s).Spawn("busy", func(p *Proc) {
				// Disjoint per-shard eras of dense local work: the fixed
				// horizon lock-steps every era at lookahead width, adaptive
				// lets the era's owner sprint through it.
				p.Sleep(time.Duration(s) * 150 * time.Microsecond)
				for i := 0; i < 400; i++ {
					p.Sleep(time.Duration(200+s*17) * time.Nanosecond)
				}
				// One late cross-shard message keeps the run honest.
				g.Send(s, (s+1)%4, p.Now()+time.Microsecond, uint64(s), 1, func() {})
			})
		}
		end := g.Run()
		return g.Windows(), end
	}
	fixedW, fixedEnd := run(false)
	adaptW, adaptEnd := run(true)
	if adaptEnd != fixedEnd {
		t.Fatalf("adaptive changed the virtual end time: %v vs %v", adaptEnd, fixedEnd)
	}
	if adaptW*10 > fixedW {
		t.Errorf("adaptive windows %d, fixed windows %d: want >= 10x reduction on sparse traffic",
			adaptW, fixedW)
	}
}

// BenchmarkShardSyncSparse measures barrier overhead under sparse
// cross-shard traffic with diverged shard timelines — the regime the
// swarm runs in once racks drift apart. Each shard works through a
// dense local era offset from the others and exchanges one message per
// kiloevent; adaptive lookahead collapses the lock-step window count.
func BenchmarkShardSyncSparse(b *testing.B) {
	for _, mode := range []struct {
		name     string
		adaptive bool
	}{{"adaptive", true}, {"fixed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var windows, events int64
			for i := 0; i < b.N; i++ {
				g := NewShardGroup(4, time.Microsecond, 11)
				g.fixed = !mode.adaptive
				for s := 0; s < 4; s++ {
					s := s
					env := g.Shard(s)
					var step func()
					n := 0
					step = func() {
						n++
						if n%1000 == 0 {
							g.Send(s, (s+1)%4, env.Now()+time.Microsecond, uint64(s), uint64(n), func() {})
						}
						if n < 2000 {
							env.After(200*time.Nanosecond, step)
						}
					}
					env.After(time.Duration(s)*500*time.Microsecond, step)
				}
				g.Run()
				windows += g.Windows()
				events += g.Events()
			}
			b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
