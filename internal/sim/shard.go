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
// identical for any shard count and any worker count (GOMAXPROCS, read
// when Run starts), because
//
//   - every message lands in its destination's inbox at its canonical
//     (delivery time, sender key, sender sequence) position — an order
//     derived purely from sender-local state, not from shard placement,
//     goroutine timing, or which barrier happened to carry the message.
//     A send to the sender's own shard is inserted there at once; a send
//     to another shard is buffered in the sender's outbox and merged at
//     the next window barrier, which is always before the receiver's
//     clock can reach it (it lands at or beyond the receiver's horizon);
//   - inbox messages dispatch before same-instant heap events, so the
//     interleaving of a delivery with local work at the same virtual
//     nanosecond does not depend on when the message was injected;
//   - shards share no mutable state between barriers (the caller's
//     contract: per-shard domains are disjoint and all cross-domain
//     interaction goes through Send, even when two domains happen to be
//     placed on the same shard).
//
// So a single-shard group needs no barrier after its first: it runs as
// one window, and its trace is the reference for shards=K.
//
// # Workers
//
// Run starts W - 1 worker goroutines, W = min(GOMAXPROCS, shards), once
// and stops them before it returns, panics included. Shard i always runs
// on goroutine i mod W; the coordinator (the goroutine that called Run)
// is goroutine 0, and runs the barriers and its own shards. Hand-offs go
// over channels: the coordinator sends a worker its window, the worker
// answers once its shards have run. A receive may spin for a bounded
// number of checks (spinChecks) before it blocks.
//
// # Adaptive lookahead
//
// The classic horizon tmin + lookahead makes every shard stop where the
// globally earliest shard might interfere with it. That is pessimistic
// when cross-shard traffic is sparse: shards drift apart in virtual
// time, and the laggard forces everyone through tiny lock-step windows.
// The group always runs adaptive: it widens each shard's window to what
// conservativeness actually requires:
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
// pending work*; the running shard's own sends to another shard create a
// hazard the barrier-time computation could not see. Such a send can
// reflect — the receiver executes the delivery at `at` and may answer
// with a message landing back at at + lookahead, inside the widened
// window — so Send caps the sender's window at at + lookahead - 1.
// Longer chains (through any number of shards) only push the reflection
// later, so the two-hop bound is the tight one. A send to the sender's
// own shard needs no cap: it is already in the inbox, where the running
// window dispatches it in order. Under the classic fixed horizon the cap
// sits at or beyond the window end and never binds. Because the trace
// order is (time, class, canonical key) — never "which barrier injected
// this" — reshaping the window sequence cannot reshape the trace. The
// fixed horizon survives only as a test oracle (the unexported
// ShardGroup.fixed), and TestShardAdaptiveLookaheadStress pins the
// adaptive trace to it across shard and worker counts.

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// crossMsg is one ShardGroup.Send delivery, to another shard or the
// sender's own.
type crossMsg struct {
	at  int64  // delivery time, virtual ns
	key uint64 // sender domain (e.g. rack id) — first tie-break
	seq uint64 // per-key monotone counter — second tie-break
	dst int
	fn  func()
}

// msgCmp is the canonical delivery order: (time, sender key, sender
// seq). key/seq pairs are unique per sender, so this is a total order
// independent of shard placement and barrier timing.
func msgCmp(a, b *crossMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// ShardGroup coordinates a set of shard Envs under conservative
// time-window synchronization.
type ShardGroup struct {
	shards    []*Env
	lookahead int64
	// fixed selects the classic lock-step horizon instead of the adaptive
	// one. Only tests set it, as the oracle the adaptive trace must match.
	fixed bool

	// outbox[i] is appended only by code running on shard i during a
	// window and drained only by the coordinator between windows, so it
	// needs no lock.
	outbox  [][]crossMsg
	pending []crossMsg
	inject  [][]crossMsg // per-destination splice batches, reused
	next    []int64      // per-shard earliest pending activity
	limits  []int64      // per-shard window limit (inclusive)
	live    []bool       // shard runs in the current window
	fails   []any        // per-shard panic of the current window

	// start[w-1] hands goroutine w a window while Run runs; calls lists the
	// workers with a live shard in the current window, and done is where
	// each of them answers once its shards have run. spin is set when the
	// current window runs shards on more than one goroutine (the
	// coordinator is goroutine 0): then the receives after it spin before
	// they block.
	start  []chan struct{}
	calls  []int
	done   chan struct{}
	spin   bool
	exited sync.WaitGroup

	windows int64
	running bool
}

// A receive of a hand-off spins for up to spinChecks checks before it
// blocks, yielding its P every yieldEvery checks so that a goroutine just
// woken onto that P is not held up behind the spin. It spins only after a
// window that ran shards on more than one goroutine: then a hand-off costs
// a cache-line transfer, and each shard keeps its thread's caches. After a
// window that ran on one goroutine alone (the fleet's overloaded swarm is
// a chain of those, alternating between shards), it blocks at once, and
// the scheduler runs the woken goroutine on the waker's thread: the chain
// stays on one CPU instead of moving its messages between two.
const (
	spinChecks = 1 << 16
	yieldEvery = 1 << 8
)

// recv receives from ch, spinning first if spin is set, and reports
// whether ch was still open.
func recv(ch <-chan struct{}, spin bool) bool {
	for i := 1; spin && i <= spinChecks; i++ {
		select {
		case _, ok := <-ch:
			return ok
		default:
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	_, ok := <-ch
	return ok
}

// NewShardGroup creates n shard environments coordinated with the given
// lookahead (the minimum cross-shard delivery latency; every Send must
// respect it). Shard i's random stream is seeded seed+i; workloads that
// must be shard-count-invariant should keep their own per-domain RNGs
// instead of using Env.Rand. Windows use adaptive lookahead.
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
		outbox:    make([][]crossMsg, n),
		inject:    make([][]crossMsg, n),
		next:      make([]int64, n),
		limits:    make([]int64, n),
		live:      make([]bool, n),
		fails:     make([]any, n),
		done:      make(chan struct{}, n),
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

// Windows returns how many synchronization windows have run.
func (g *ShardGroup) Windows() int64 { return g.windows }

// Messages returns how many messages Send has delivered, to the sender's
// own shard or another.
func (g *ShardGroup) Messages() int64 {
	var n int64
	for _, e := range g.shards {
		n += e.delivered
	}
	return n
}

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
	m := crossMsg{at: int64(at), key: key, seq: seq, dst: dst, fn: fn}
	if dst == src {
		e.pushMsg(m)
		return
	}
	// A send to another shard can *reflect*: the receiver executes the
	// delivery at `at` in a later window and may answer with a message
	// landing back here at at + lookahead — inside a widened window that
	// assumed only the other shards' *current* pending work could reach
	// us. Capping at the earliest possible consequence keeps the widened
	// windows conservative over arbitrary send chains (any path back to
	// the sender is at least two hops, i.e. at + lookahead at the
	// earliest). Under the classic fixed horizon the cap sits at or
	// beyond the window end and never binds.
	if c := int64(at) + g.lookahead - 1; c < e.windowCap {
		e.windowCap = c
	}
	g.outbox[src] = append(g.outbox[src], m)
}

// Run drives every shard until all heaps, inboxes, and outboxes drain,
// then returns the final virtual time (the maximum across shards). Up to
// GOMAXPROCS shards execute each window concurrently; any value yields
// the identical event trace. Like Env.Run it re-raises a process panic:
// the lowest shard's, when several panic in one window.
func (g *ShardGroup) Run() time.Duration {
	if g.running {
		panic("sim: ShardGroup.Run called re-entrantly")
	}
	g.running = true
	g.startWorkers()
	defer func() {
		g.stopWorkers()
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
			slices.SortFunc(g.pending, func(a, b crossMsg) int { return msgCmp(&a, &b) })
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
			if len(e.hooks) > 0 && e.now < n {
				// Hooks registered outside a window still owe their instant.
				n = e.now
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
		g.windows++
		stride := len(g.start) + 1
		g.calls = g.calls[:0]
		own := false
		for i := range g.shards {
			g.live[i] = false
			if g.next[i] == math.MaxInt64 {
				continue
			}
			horizon := tmin + g.lookahead
			if !g.fixed && g.next[i] == tmin && minCount == 1 {
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
			g.live[i] = true
			// Shards i and i+stride share a goroutine, so a worker is
			// called once, by its first live shard.
			if w := i % stride; w == 0 {
				own = true
			} else if !slices.Contains(g.calls, w) {
				g.calls = append(g.calls, w)
			}
		}
		g.spin = len(g.calls) > 1 || len(g.calls) == 1 && own
		g.runWindow()
	}
	return g.Now()
}

// startWorkers starts min(GOMAXPROCS, shards) - 1 workers; goroutine w
// runs shards w, w+W, ... for the whole run.
func (g *ShardGroup) startWorkers() {
	n := min(runtime.GOMAXPROCS(0), len(g.shards))
	for w := 1; w < n; w++ {
		start := make(chan struct{}, 1)
		g.start = append(g.start, start)
		g.exited.Add(1)
		go g.work(w, n, start)
	}
}

// stopWorkers closes every worker's start channel and returns once they
// have exited.
func (g *ShardGroup) stopWorkers() {
	for _, start := range g.start {
		close(start)
	}
	g.exited.Wait()
	clear(g.start)
	g.start = g.start[:0]
}

// work is worker goroutine w's loop (of stride goroutines): receive a
// window, run its live shards, answer on done.
func (g *ShardGroup) work(w, stride int, start <-chan struct{}) {
	defer g.exited.Done()
	spin := false
	for recv(start, spin) {
		g.runOwn(w, stride)
		spin = g.spin // read before done lets the coordinator move on
		g.done <- struct{}{}
	}
}

// runWindow executes the live shards up to their per-shard limits: the
// called workers theirs, the coordinator its own, then the coordinator
// waits for the workers. Each called worker answers once per window, so
// an answer always belongs to the window that is waiting for it. Shard
// domains are disjoint, so concurrent shards touch no shared state;
// panics are collected and the lowest-shard one is re-raised so failure
// identity does not depend on goroutine timing.
func (g *ShardGroup) runWindow() {
	for _, w := range g.calls {
		g.start[w-1] <- struct{}{}
	}
	g.runOwn(0, len(g.start)+1)
	for range g.calls {
		recv(g.done, g.spin)
	}
	for _, f := range g.fails {
		if f != nil {
			clear(g.fails)
			panic(f)
		}
	}
}

// runOwn runs goroutine w's live shards in shard order.
func (g *ShardGroup) runOwn(w, stride int) {
	for i := w; i < len(g.shards); i += stride {
		if g.live[i] {
			g.runShard(i)
		}
	}
}

// runShard runs shard i to its window limit, recording a panic instead
// of unwinding so the window still completes on every goroutine. A
// callback's panic keeps the stack it was raised on, which the
// coordinator's re-panic would otherwise replace; a process's failure
// already names its process.
func (g *ShardGroup) runShard(i int) {
	defer func() {
		r := recover()
		if r != nil && r != g.shards[i].failure {
			r = fmt.Errorf("%v\n\n%s", r, debug.Stack())
		}
		g.fails[i] = r
	}()
	g.shards[i].run(g.limits[i])
}

// pushMsg inserts a delivery from the env's own shard at its canonical
// (at, key, seq) position; it runs mid-window on the shard's goroutine.
// The dispatched prefix is dropped before the backing array would grow,
// so a shard that only messages itself keeps a bounded inbox.
func (e *Env) pushMsg(m crossMsg) {
	if len(e.msgs) == cap(e.msgs) && e.msgHead > 0 && e.msgHead >= len(e.msgs)/2 {
		n := copy(e.msgs, e.msgs[e.msgHead:])
		clear(e.msgs[n:])
		e.msgs, e.msgHead = e.msgs[:n], 0
	}
	rem := e.msgs[e.msgHead:]
	i := len(rem)
	if i > 0 && msgCmp(&m, &rem[i-1]) < 0 {
		i, _ = slices.BinarySearchFunc(rem, m, func(a, b crossMsg) int { return msgCmp(&a, &b) })
	}
	e.msgs = slices.Insert(e.msgs, e.msgHead+i, m)
}

// spliceMsgs merges a batch of cross-shard deliveries — already in
// canonical (at, key, seq) order — into the env's inbox with one linear
// splice. Undelivered leftovers (deliveries beyond a past window's end,
// and the shard's own sends) keep their canonical position, so the final
// inbox order never depends on which barrier carried which message. Runs
// on the coordinator between windows; the two backing slices are reused.
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
		if msgCmp(&rem[i], &batch[j]) < 0 {
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
