package sim

// Conservative parallel DES: a ShardGroup partitions a simulation into
// per-shard Envs (one event heap each) and advances them in lock-step
// time windows. The window protocol is the classic conservative
// ("null-message-free barrier") scheme:
//
//	tmin    = min over shards of the next pending event time
//	horizon = tmin + lookahead
//
// where lookahead is the minimum cross-shard propagation latency: a
// message sent from a shard at local time s is delivered no earlier than
// s + lookahead >= tmin + lookahead = horizon. Every shard can therefore
// run its events in [tmin, horizon) without ever receiving a message
// that lands inside the window, so shards execute windows concurrently
// with no rollback and no locks on simulation state.
//
// Determinism is stronger than "no data races": the event trace is
// identical for any shard count and any worker count, because
//
//   - cross-shard messages are buffered in per-sender outboxes and merged
//     into each destination's inbox at window barriers in the canonical
//     (delivery time, sender key, sender sequence) order — an order
//     derived purely from sender-local state, not from shard placement,
//     goroutine timing, or which barrier happened to carry the message;
//   - inbox messages dispatch before same-instant heap events, so the
//     interleaving of a delivery with local work at the same virtual
//     nanosecond does not depend on when the message was injected;
//   - shards share no mutable state between barriers (the caller's
//     contract: per-shard domains are disjoint and all cross-domain
//     interaction goes through Send, even when two domains happen to be
//     placed on the same shard).
//
// A single-shard group runs the exact same barrier protocol, which is
// what makes the shards=1 trace the reference for shards=K.
//
// # Adaptive lookahead
//
// The classic horizon tmin + lookahead makes every shard stop where the
// globally earliest shard might interfere with it. That is pessimistic
// when cross-shard traffic is sparse: shards drift apart in virtual
// time, and the laggard forces everyone through tiny lock-step windows.
// The adaptive mode (on by default, SetAdaptive(false) reverts) widens
// each shard's window to what conservativeness actually requires:
//
//	horizon(i) = min over j != i of next(j) + lookahead
//
// where next(j) is shard j's earliest pending activity (heap or inbox).
// Shard j cannot send before next(j), so nothing can reach shard i
// before next(j) + lookahead. For every shard except the unique
// earliest one this degenerates to the classic tmin + lookahead; the
// earliest shard runs ahead to the second-earliest's time plus
// lookahead — unboundedly, when it is the only shard with work. When
// traffic is dense the per-shard next times cluster, the widened
// horizons collapse to the classic ones, and the protocol behaves
// exactly like the lock-step original — the adaptivity is free.
//
// The widened horizon is a statement about the *other shards' current
// pending work*; the running shard's own sends create new hazards the
// barrier-time computation could not see, so Send dynamically caps the
// sender's window at the earliest possible consequence of the send:
//
//   - a self-send (destination domain on the same shard) is delivered at
//     the next barrier, so the window must end just below the delivery
//     time for the message not to be skipped;
//   - a send to another shard can reflect — the receiver executes the
//     delivery at `at` and may answer with a message landing back at
//     at + lookahead, inside the widened window — so the sender stops at
//     at + lookahead - 1. Longer chains (through any number of shards)
//     only push the reflection later, so the two-hop bound is the tight
//     one.
//
// Under the classic fixed horizon both caps sit at or beyond the window
// end and never bind. Because the trace order is (time, class, canonical
// key) — never "which barrier injected this" — reshaping the window
// sequence cannot reshape the trace, which is what
// TestShardAdaptiveLookaheadStress pins across shard and worker counts
// with adaptivity on and off.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// crossMsg is one buffered cross-shard delivery.
type crossMsg struct {
	at  int64  // delivery time, virtual ns
	key uint64 // sender domain (e.g. rack id) — first tie-break
	seq uint64 // per-key monotone counter — second tie-break
	dst int
	fn  func()
}

// msgBefore is the canonical cross-shard delivery order: (time, sender
// key, sender seq). key/seq pairs are unique per sender, so this is a
// total order independent of shard placement and barrier timing.
func msgBefore(a, b *crossMsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// ShardGroup coordinates a set of shard Envs under conservative
// time-window synchronization.
type ShardGroup struct {
	shards    []*Env
	lookahead int64
	workers   int
	adaptive  bool

	// outbox[i] is appended only by code running on shard i during a
	// window and drained only by the coordinator between windows, so it
	// needs no lock.
	outbox  [][]crossMsg
	pending []crossMsg
	inject  [][]crossMsg // per-destination splice batches, reused
	next    []int64      // per-shard earliest pending activity
	limits  []int64      // per-shard window limit (inclusive)
	active  []int
	fails   []any
	sem     chan struct{}

	windows  int64
	messages int64
	running  bool
}

// NewShardGroup creates n shard environments coordinated with the given
// lookahead (the minimum cross-shard delivery latency; every Send must
// respect it). Shard i's random stream is seeded seed+i; workloads that
// must be shard-count-invariant should keep their own per-domain RNGs
// instead of using Env.Rand. Adaptive lookahead is on; SetAdaptive(false)
// restores the fixed-horizon protocol (the trace is identical either way).
func NewShardGroup(n int, lookahead time.Duration, seed int64) *ShardGroup {
	if n < 1 {
		panic("sim: ShardGroup needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: ShardGroup lookahead must be positive")
	}
	g := &ShardGroup{
		shards:    make([]*Env, n),
		lookahead: int64(lookahead),
		workers:   1,
		adaptive:  true,
		outbox:    make([][]crossMsg, n),
		inject:    make([][]crossMsg, n),
		next:      make([]int64, n),
		limits:    make([]int64, n),
		fails:     make([]any, n),
	}
	for i := range g.shards {
		g.shards[i] = New(seed + int64(i))
	}
	return g
}

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's environment. Processes and timers for a
// domain must all live on its owning shard.
func (g *ShardGroup) Shard(i int) *Env { return g.shards[i] }

// Lookahead returns the group's synchronization lookahead.
func (g *ShardGroup) Lookahead() time.Duration { return time.Duration(g.lookahead) }

// SetWorkers bounds how many shards execute concurrently inside a
// window (default 1, i.e. serial). Any value yields the identical event
// trace; more workers only buy wall-clock time on multi-core hosts.
func (g *ShardGroup) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	g.workers = n
	g.sem = nil
}

// SetAdaptive toggles adaptive lookahead (per-shard widened windows; see
// the package comment). Both settings produce byte-identical traces;
// adaptive off forces the classic lock-step horizon, which is mostly
// useful for comparing window counts and in invariance tests.
func (g *ShardGroup) SetAdaptive(on bool) { g.adaptive = on }

// Adaptive reports whether adaptive lookahead is enabled.
func (g *ShardGroup) Adaptive() bool { return g.adaptive }

// Windows returns how many synchronization windows have run.
func (g *ShardGroup) Windows() int64 { return g.windows }

// Messages returns how many cross-shard messages have been delivered.
func (g *ShardGroup) Messages() int64 { return g.messages }

// Events returns the total events dispatched across all shards.
func (g *ShardGroup) Events() int64 {
	var n int64
	for _, e := range g.shards {
		n += e.Events()
	}
	return n
}

// Now returns the maximum virtual time reached across shards.
func (g *ShardGroup) Now() time.Duration {
	var max time.Duration
	for _, e := range g.shards {
		if n := e.Now(); n > max {
			max = n
		}
	}
	return max
}

// Send schedules fn to run on shard dst at virtual time at. It must be
// called from code executing on shard src (a process or callback timer),
// and at must be at least src's current time plus the lookahead — the
// conservative contract that lets windows run without rollback. key and
// seq order same-instant deliveries: key identifies the sending domain,
// seq is a counter the sender increments per message, so the pair is
// unique and shard-placement-independent.
func (g *ShardGroup) Send(src, dst int, at time.Duration, key, seq uint64, fn func()) {
	if fn == nil {
		panic("sim: ShardGroup.Send with nil callback")
	}
	e := g.shards[src]
	if int64(at) < e.now+g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send at %v from shard %d (now %v) violates lookahead %v",
			at, src, e.Now(), time.Duration(g.lookahead)))
	}
	// Sending obligates the sender to stop early. A self-send can land
	// inside an adaptively widened window, so the window must end just
	// below the delivery for the message to take the barrier-merge path.
	// A send to another shard can *reflect*: the receiver executes the
	// delivery at `at` in a later window and may answer with a message
	// landing back here at at + lookahead — inside a widened window that
	// assumed only the other shards' *current* pending work could reach
	// us. Capping at the earliest possible consequence keeps the widened
	// windows conservative over arbitrary send chains (any path back to
	// the sender is at least two hops, i.e. at + lookahead at the
	// earliest). Under the classic fixed horizon both caps sit at or
	// beyond the window end and never bind.
	c := int64(at) - 1
	if dst != src {
		c += g.lookahead
	}
	if c < e.windowCap {
		e.windowCap = c
	}
	g.outbox[src] = append(g.outbox[src], crossMsg{at: int64(at), key: key, seq: seq, dst: dst, fn: fn})
}

// Run drives every shard until all heaps, inboxes, and outboxes drain,
// then returns the final virtual time (the maximum across shards). Like
// Env.Run it re-raises the first process panic.
func (g *ShardGroup) Run() time.Duration {
	if g.running {
		panic("sim: ShardGroup.Run called re-entrantly")
	}
	g.running = true
	defer func() {
		g.running = false
		for _, e := range g.shards {
			e.releasePool()
		}
	}()
	for {
		// Barrier: gather every message produced in the last window and
		// splice each destination's share into its inbox — one sorted
		// batch per shard per window instead of per-message heap pushes.
		for i := range g.outbox {
			g.pending = append(g.pending, g.outbox[i]...)
			g.outbox[i] = g.outbox[i][:0]
		}
		if len(g.pending) > 0 {
			slices.SortFunc(g.pending, func(a, b crossMsg) int {
				if msgBefore(&a, &b) {
					return -1
				}
				return 1
			})
			for i := range g.inject {
				g.inject[i] = g.inject[i][:0]
			}
			for i := range g.pending {
				m := &g.pending[i]
				g.inject[m.dst] = append(g.inject[m.dst], *m)
				g.pending[i].fn = nil
			}
			for d := range g.inject {
				if len(g.inject[d]) > 0 {
					g.shards[d].spliceMsgs(g.inject[d])
				}
			}
			g.messages += int64(len(g.pending))
			g.pending = g.pending[:0]
		}
		// Per-shard earliest activity, plus the two global minima the
		// adaptive horizon needs.
		tmin, m2 := int64(math.MaxInt64), int64(math.MaxInt64)
		minCount := 0
		for i, e := range g.shards {
			n := int64(math.MaxInt64)
			if e.q.Len() > 0 {
				n = e.q.minTime()
			}
			if e.msgHead < len(e.msgs) && e.msgs[e.msgHead].at < n {
				n = e.msgs[e.msgHead].at
			}
			g.next[i] = n
			switch {
			case n < tmin:
				tmin, m2, minCount = n, tmin, 1
			case n == tmin:
				minCount++
			case n < m2:
				m2 = n
			}
		}
		if tmin == math.MaxInt64 {
			break // fully drained
		}
		// Window limits. Classic: every shard runs [tmin, tmin+lookahead).
		// Adaptive: shard i runs to (min over j != i of next(j)) +
		// lookahead — only the unique earliest shard differs, extending to
		// m2 + lookahead (unbounded when it is alone).
		g.active = g.active[:0]
		for i := range g.shards {
			if g.next[i] == math.MaxInt64 {
				continue
			}
			horizon := tmin + g.lookahead
			if g.adaptive && g.next[i] == tmin && minCount == 1 {
				if m2 == math.MaxInt64 {
					horizon = math.MaxInt64
				} else {
					horizon = m2 + g.lookahead
				}
			}
			if g.next[i] >= horizon {
				continue
			}
			g.limits[i] = horizon - 1
			g.active = append(g.active, i)
		}
		g.windows++
		g.runShards()
	}
	return g.Now()
}

// runShards executes the active shards up to their per-shard limits,
// serially in shard order or on up to g.workers goroutines. Shard
// domains are disjoint, so concurrent windows touch no shared state;
// panics are collected and the lowest-shard one is re-raised so failure
// identity does not depend on goroutine timing.
func (g *ShardGroup) runShards() {
	if g.workers <= 1 || len(g.active) <= 1 {
		for _, i := range g.active {
			g.shards[i].run(g.limits[i])
		}
		return
	}
	if g.sem == nil {
		g.sem = make(chan struct{}, g.workers)
	}
	var wg sync.WaitGroup
	for _, i := range g.active {
		wg.Add(1)
		g.sem <- struct{}{}
		go func(i int) {
			defer func() {
				g.fails[i] = recover()
				<-g.sem
				wg.Done()
			}()
			g.shards[i].run(g.limits[i])
		}(i)
	}
	wg.Wait()
	for _, f := range g.fails {
		if f != nil {
			panic(f)
		}
	}
}

// spliceMsgs merges a batch of cross-shard deliveries — already in
// canonical (at, key, seq) order — into the env's inbox with one linear
// splice. Undelivered leftovers from earlier barriers (deliveries beyond
// a past window's end) keep their canonical position, so the final inbox
// order never depends on which barrier carried which message. Runs on the
// coordinator between windows; the two backing slices are reused.
func (e *Env) spliceMsgs(batch []crossMsg) {
	rem := e.msgs[e.msgHead:]
	if len(rem) == 0 {
		e.msgs = append(e.msgs[:0], batch...)
		e.msgHead = 0
		return
	}
	out := e.msgSpare[:0]
	i, j := 0, 0
	for i < len(rem) && j < len(batch) {
		if msgBefore(&rem[i], &batch[j]) {
			out = append(out, rem[i])
			i++
		} else {
			out = append(out, batch[j])
			j++
		}
	}
	out = append(out, rem[i:]...)
	out = append(out, batch[j:]...)
	e.msgSpare = e.msgs[:0]
	e.msgs = out
	e.msgHead = 0
}
