package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardDomain is one isolated simulation domain (think: rack) in the
// shard determinism tests. All of its state — RNG, trace hash, send
// counter — is touched only by its owning shard, which is the contract
// ShardGroup demands of its callers.
type shardDomain struct {
	id    int
	shard int
	rng   *rand.Rand
	hash  uint64
	seq   uint64
}

func (d *shardDomain) fold(vs ...int64) {
	for _, v := range vs {
		d.hash ^= uint64(v)
		d.hash *= 1099511628211
	}
}

func (d *shardDomain) nextSeq() uint64 {
	d.seq++
	return d.seq
}

// shardTrace runs a fixed token-passing workload over `domains` domains
// partitioned round-robin across `shards` shards and returns a
// fingerprint of every domain's full event trace. The workload mixes
// domain-local sleeps (driven by per-domain RNGs) with cross-domain
// messages that spawn responders on the receiving shard, so the trace is
// sensitive to event order within each domain and to message delivery
// order across domains.
func shardTrace(domains, shards int) uint64 {
	return shardTraceMode(domains, shards, true)
}

// withProcs runs f with runtime.GOMAXPROCS set to procs, the one control
// of how many shards a window runs concurrently, and restores the
// previous value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func shardTraceMode(domains, shards int, adaptive bool) uint64 {
	const lookahead = 5 * time.Microsecond
	g := NewShardGroup(shards, lookahead, 42)
	g.fixed = !adaptive
	ds := make([]*shardDomain, domains)
	for i := range ds {
		ds[i] = &shardDomain{
			id:    i,
			shard: i % shards,
			rng:   rand.New(rand.NewSource(int64(1000 + i))),
			hash:  14695981039346656037,
		}
	}
	var deliver func(dst *shardDomain, from, hop int) func()
	deliver = func(dst *shardDomain, from, hop int) func() {
		return func() {
			env := g.Shard(dst.shard)
			dst.fold(int64(env.Now()), int64(from), int64(hop))
			if hop >= 3 {
				return
			}
			env.Spawn("resp", func(p *Proc) {
				p.Sleep(time.Duration(dst.rng.Intn(2000)) * time.Nanosecond)
				to := ds[dst.rng.Intn(len(ds))]
				at := p.Now() + lookahead + time.Duration(dst.rng.Intn(1000))*time.Nanosecond
				g.Send(dst.shard, to.shard, at, uint64(dst.id), dst.nextSeq(),
					deliver(to, dst.id, hop+1))
			})
		}
	}
	for _, d := range ds {
		d := d
		env := g.Shard(d.shard)
		env.Spawn(fmt.Sprintf("domain%d", d.id), func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.Sleep(time.Duration(d.rng.Intn(3000)) * time.Nanosecond)
				d.fold(int64(p.Now()), int64(d.id), -1)
				to := ds[(d.id*7+i*3+1)%len(ds)]
				g.Send(d.shard, to.shard, p.Now()+lookahead, uint64(d.id), d.nextSeq(),
					deliver(to, d.id, 1))
			}
		})
	}
	end := g.Run()
	h := uint64(14695981039346656037)
	fold := func(v uint64) { h ^= v; h *= 1099511628211 }
	fold(uint64(end))
	for _, d := range ds {
		fold(d.hash)
	}
	return h
}

func TestShardGroupDeterminismAcrossShardCounts(t *testing.T) {
	// The event trace must be a pure function of the workload: identical
	// whether the 8 domains share one heap or are spread over 2 or 4, and
	// regardless of how many workers (GOMAXPROCS) execute each window.
	var base uint64
	withProcs(1, func() { base = shardTrace(8, 1) })
	for _, shards := range []int{2, 4} {
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() {
				if got := shardTrace(8, shards); got != base {
					t.Errorf("shards=%d GOMAXPROCS=%d fingerprint %x, want %x (shards=1)",
						shards, procs, got, base)
				}
			})
		}
	}
	if again := shardTrace(8, 1); again != base {
		t.Errorf("shards=1 not reproducible: %x vs %x", again, base)
	}
}

func TestShardGroupWorkerAndGOMAXPROCSInvariance(t *testing.T) {
	var serial, parallel uint64
	withProcs(1, func() { serial = shardTrace(8, 4) })
	withProcs(4, func() { parallel = shardTrace(8, 4) })
	if serial != parallel {
		t.Errorf("fingerprint depends on workers/GOMAXPROCS: %x vs %x", serial, parallel)
	}
}

func TestShardGroupDeliveryTiming(t *testing.T) {
	// A message sent at lookahead distance lands at exactly the requested
	// virtual time on the destination shard.
	g := NewShardGroup(2, time.Microsecond, 1)
	var deliveredAt time.Duration
	g.Shard(0).Spawn("sender", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		g.Send(0, 1, p.Now()+time.Microsecond, 0, 1, func() {
			deliveredAt = g.Shard(1).Now()
		})
	})
	g.Run()
	if want := 4 * time.Microsecond; deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if g.Messages() != 1 {
		t.Errorf("Messages() = %d, want 1", g.Messages())
	}
	if g.Windows() == 0 {
		t.Error("Windows() = 0, want at least one window")
	}
}

func TestShardGroupLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2, 10*time.Microsecond, 1)
	g.Shard(0).Spawn("bad", func(p *Proc) {
		g.Send(0, 1, p.Now()+time.Microsecond, 0, 1, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	g.Run()
}

func TestShardGroupValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero shards", func() { NewShardGroup(0, time.Microsecond, 1) }},
		{"zero lookahead", func() { NewShardGroup(2, 0, 1) }},
		{"nil callback", func() {
			g := NewShardGroup(1, time.Microsecond, 1)
			g.Send(0, 0, time.Millisecond, 0, 1, nil)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestShardGroupProcessPanicPropagates(t *testing.T) {
	g := NewShardGroup(2, time.Microsecond, 1)
	g.Shard(1).Spawn("boom", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaboom")
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "kaboom") {
			t.Fatalf("want process panic to propagate, got %v", r)
		}
	}()
	withProcs(4, func() { g.Run() })
}
