// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives an arbitrary number of cooperating processes over a
// virtual clock. Exactly one process runs at any instant: the event loop
// pops the earliest pending event, advances the clock, and hands control to
// the process that owns the event; the process runs until it yields (by
// sleeping or blocking on a synchronization primitive). Events with equal
// timestamps fire in FIFO order, so a simulation is bit-reproducible for a
// given seed regardless of GOMAXPROCS.
//
// Each process is a coroutine (iter.Pull): the goroutine that called Run
// resumes it, and control comes back through a direct coroutine switch — no
// channel, no run queue, no thread wake-up. There is one event loop,
// advance, and whoever has control runs it. A process that yields runs it on
// its own stack: callback timers, cross-shard deliveries and stale wakes
// dispatch inline there, and when the next live wake is its own (a lone
// client sleeping through an RPC) yield returns without switching at all.
// Otherwise it names its successor and switches once to the Run goroutine,
// which resumes that successor. Only one of them ever executes, so process
// code needs no locking to touch shared simulation state.
//
// Events live in a flat indexed 4-ary heap with a slot free list (scheduling
// allocates nothing in steady state, cancellation is an O(log n) removal and
// Reschedule moves a live timer in place, see heap.go); one-shot deferred
// work can run as an inline callback timer (At, After) with no process at
// all; and finished shells park in a pool that Spawn reuses, so process
// churn inside a run creates no coroutines.
//
// An instant ends when nothing more is due at the current time: every heap
// event and cross-shard delivery at that time has been dispatched, including
// ones scheduled while the instant ran. AtEndOfInstant hooks run there,
// before the clock moves, a shard window closes, or Run returns. An owner
// that sees many state changes in one instant (a rack's flow solver under a
// burst of arrivals) registers one hook and settles them all at once.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Env is a simulation environment: a virtual clock plus the event queue and
// the set of live processes. Create one with New, start processes with
// Spawn, and drive everything with Run.
type Env struct {
	now   int64 // virtual time in nanoseconds
	seq   uint64
	q     eventQueue
	rng   *rand.Rand
	procs map[*Proc]struct{}
	// pool holds idle shells (parked coroutines) for Spawn to reuse; released
	// when a run returns, so a drained environment pins no goroutines.
	pool    []*Proc
	failure any // value from a panicking process, re-raised by Run
	running bool
	// events counts queue pops (process wakes + callback timers) over the
	// environment's lifetime — the cost metric flow-level modeling is
	// judged by. See Events.
	events int64
	// switches counts hand-offs from a process to the Run goroutine, for the
	// kernel tests that pin which yields switch and which do not.
	switches int64
	// Cross-shard delivery inbox, used only when the env belongs to a
	// ShardGroup: msgs[msgHead:] holds pending deliveries in canonical
	// (time, sender key, sender seq) order and msgSpare is the merge double
	// buffer (see shard.go).
	msgs     []crossMsg
	msgHead  int
	msgSpare []crossMsg
	// windowCap is the inclusive time limit of the run in progress:
	// RunUntil's limit, or a shard window's end (lowered mid-window by
	// ShardGroup.Send).
	windowCap int64
	// hooks are the AtEndOfInstant callbacks waiting for the current
	// instant to end, in registration order.
	hooks []func()
}

// New returns an empty environment whose clock starts at zero. The seed
// fixes the environment's random stream; equal seeds give identical runs.
func New(seed int64) *Env {
	return &Env{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time as a duration since the start of the
// simulation.
func (e *Env) Now() time.Duration { return time.Duration(e.now) }

// Rand returns the environment's deterministic random stream.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Pending returns the number of scheduled events: process wakes plus
// callback timers. Cancelled timers leave the queue immediately, so a
// workload that keeps cancelling timed waits sees a bounded count here.
func (e *Env) Pending() int { return e.q.Len() }

// Events returns the cumulative number of events dispatched since the
// environment was created: every process wake and callback timer popped
// from the queue, including stale wakes. It is the kernel-work metric
// benchmarks use to compare packet-level and flow-level data paths.
func (e *Env) Events() int64 { return e.events }

// Proc is a simulation process. A Proc value is only valid inside the
// function passed to Spawn (and functions it calls); it is the handle
// through which the process sleeps and blocks.
type Proc struct {
	env  *Env
	name string
	// next, called on the Run goroutine, switches to the shell's coroutine;
	// it returns when some process calls its handoff, with the successor
	// that process named (nil: the run is over). stop ends a parked shell.
	next    func() (*Proc, bool)
	handoff func(*Proc) bool
	stop    func()
	// body is the current incarnation's function; shells are reused across
	// Spawn calls, so it is set per incarnation and cleared on return.
	body func(p *Proc)
	// gen counts incarnations of this shell. Scheduled wakes record the
	// generation they target, so a wake that outlives its process can never
	// resume a later incarnation by mistake.
	gen  uint32
	wake wakeReason // reason of the wake that last resumed the process
	done bool
	// blocked marks a process that yielded without a scheduled wake; a
	// synchronization primitive is responsible for waking it.
	blocked bool
	inLoop  bool // the process is inside yield: its stack runs the event loop
}

type wakeReason int

const (
	wakeEvent wakeReason = iota
	wakeTimeout
)

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Env returns the environment that owns the process.
func (p *Proc) Env() *Env { return p.env }

// Now is shorthand for p.Env().Now().
func (p *Proc) Now() time.Duration { return p.env.Now() }

// scheduleProc enqueues a wake for p's current incarnation.
func (e *Env) scheduleProc(t int64, p *Proc, r wakeReason) Timer {
	seq := e.seq
	e.seq++
	return e.q.push(t, seq, p, p.gen, nil, r)
}

// At schedules fn to run at virtual time t (clamped to the current time),
// inline in the event loop: no process, no coroutine, no switch. Callbacks
// must not call blocking process operations — they have no Proc, and may
// be running on the stack of whichever process yielded last — but may
// Spawn, Trigger events, schedule further timers, and touch any simulation
// state. A callback that panics aborts the run with that panic. The
// returned Timer cancels the callback via Cancel.
func (e *Env) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	ti := int64(t)
	if ti < e.now {
		ti = e.now
	}
	seq := e.seq
	e.seq++
	return e.q.push(ti, seq, nil, 0, fn, wakeEvent)
}

// After schedules fn to run d of virtual time from now; see At.
func (e *Env) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(time.Duration(e.now)+d, fn)
}

// Cancel revokes a scheduled callback or timed wake before it fires,
// reporting whether it was still pending. Cancelling the zero Timer or one
// that already fired is a no-op.
func (e *Env) Cancel(tm Timer) bool { return e.q.cancel(tm) }

// Reschedule moves a pending callback or timed wake to virtual time t
// (clamped to the current time), reporting whether it was still pending.
// The event is re-keyed where it sits in the queue and takes a fresh
// sequence number, so it fires exactly where Cancel followed by At would
// have put it, and tm stays its handle. On the zero Timer, or one that
// already fired or was cancelled, it reports false and does nothing.
func (e *Env) Reschedule(tm Timer, t time.Duration) bool {
	sl := e.q.lookup(tm)
	if sl == nil {
		return false
	}
	ti := int64(t)
	if ti < e.now {
		ti = e.now
	}
	e.q.rekey(sl, ti, e.seq)
	e.seq++
	return true
}

// AtEndOfInstant registers fn to run once the current instant ends: after
// every event and cross-shard delivery due at the current time has been
// dispatched, including those scheduled while it was dispatching, and
// before the clock moves on, a shard window closes, or Run/RunUntil
// returns. Hooks run in registration order, inline in the event loop like
// callback timers (same rules, and a panic aborts the run the same way).
// A hook is not an event: it takes no sequence number and is not counted
// by Events or Pending. Events a hook schedules at the current time, and
// hooks it registers, run before the instant is over.
func (e *Env) AtEndOfInstant(fn func()) {
	if fn == nil {
		panic("sim: AtEndOfInstant with nil callback")
	}
	e.hooks = append(e.hooks, fn)
}

// endInstant runs the registered end-of-instant hooks, including any a
// hook registers.
func (e *Env) endInstant() {
	for i := 0; i < len(e.hooks); i++ {
		fn := e.hooks[i]
		e.hooks[i] = nil
		fn()
	}
	e.hooks = e.hooks[:0]
}

// Spawn starts a new process executing fn. It may be called before Run or
// from inside a running process; in both cases the new process begins at
// the current virtual time, after already-scheduled same-time events.
// Spawn reuses an idle shell from the pool when one is available, so
// steady-state process churn creates no coroutines.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.pool) - 1; n >= 0 {
		p = e.pool[n]
		e.pool[n] = nil
		e.pool = e.pool[:n]
		p.done = false
	} else {
		p = e.newShell()
	}
	p.name = name
	p.body = fn
	e.procs[p] = struct{}{}
	e.scheduleProc(e.now, p, wakeEvent)
	return p
}

// newShell creates a reusable process shell: a coroutine that runs one
// process body per incarnation. When a body returns, the shell keeps the
// event loop going; if the next live wake is its own (a callback re-Spawned
// it from the pool) it runs the new body in place, otherwise it hands over
// the successor and parks until resumed as a new incarnation or stopped.
func (e *Env) newShell() *Proc {
	p := &Proc{env: e}
	p.next, p.stop = iter.Pull(func(handoff func(*Proc) bool) {
		p.handoff = handoff
		for {
			e.runBody(p)
			var q *Proc
			if e.failure == nil {
				if q = e.advance(); q == p {
					continue
				}
			}
			e.switches++
			if !handoff(q) {
				return
			}
		}
	})
	return p
}

// runBody executes one process incarnation on the shell's coroutine, then
// retires the shell to the pool.
func (e *Env) runBody(p *Proc) {
	defer func() {
		if p.inLoop {
			// The panic came from a callback that p's yield was dispatching,
			// not from p: let it unwind to the Run goroutine untouched.
			return
		}
		if r := recover(); r != nil {
			e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		}
		p.done = true
		p.gen++ // invalidate wakes aimed at this incarnation
		p.body = nil
		delete(e.procs, p)
		e.pool = append(e.pool, p)
	}()
	p.body(p)
}

// releasePool stops idle shells so a drained environment keeps no parked
// goroutines alive. Shells are cheap to re-create; pooling only needs to
// pay off within a run, where the churn is.
func (e *Env) releasePool() {
	for i, p := range e.pool {
		p.stop()
		e.pool[i] = nil
	}
	e.pool = e.pool[:0]
}

// Run executes the simulation until no events remain, then returns the
// final virtual time. If any process panicked, Run panics with that value.
// Processes still blocked on primitives when the event queue drains are
// left blocked; Deadlocked reports them.
func (e *Env) Run() time.Duration { return e.RunUntil(-1) }

// RunUntil executes the simulation until no events remain or the clock
// would pass limit (limit < 0 means no limit). Events at exactly limit
// still fire. Events beyond it keep their sequence numbers, so FIFO order
// holds across calls.
func (e *Env) RunUntil(limit time.Duration) time.Duration {
	defer e.releasePool()
	if limit < 0 {
		limit = math.MaxInt64
	}
	e.run(int64(limit))
	return e.Now()
}

// run drives the simulation up to and including virtual time limit. The
// caller becomes the Run goroutine: it resumes one process after another,
// each named by its predecessor, until one reports nothing left to do.
func (e *Env) run(limit int64) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.windowCap = limit
	for p := e.advance(); p != nil; {
		p, _ = p.next()
		if e.failure != nil {
			panic(e.failure)
		}
	}
}

// advance is the event loop. It dispatches cross-shard deliveries (ahead of
// heap events at the same instant), callback timers and stale wakes inline
// on the caller's stack, runs the end-of-instant hooks once nothing more is
// due at the current time, and returns the first live process whose wake
// it pops, or nil when nothing is pending up to windowCap.
func (e *Env) advance() *Proc {
	for {
		t, msg := int64(math.MaxInt64), false
		if e.msgHead < len(e.msgs) {
			t, msg = e.msgs[e.msgHead].at, true
		}
		if e.q.Len() > 0 {
			if ht := e.q.minTime(); ht < t {
				t, msg = ht, false
			}
		}
		if len(e.hooks) > 0 && (t > e.now || t > e.windowCap) {
			// The instant is over (or the run stops inside it): hooks may
			// schedule more work at now, so look again afterwards.
			e.endInstant()
			continue
		}
		if t == math.MaxInt64 {
			return nil
		}
		// windowCap can shrink mid-window (a cross-shard send), so it is
		// re-read every round. The clock stops at the cap but never runs
		// backwards when the cap is already in the past.
		if t > e.windowCap {
			if e.windowCap > e.now {
				e.now = e.windowCap
			}
			return nil
		}
		if t > e.now {
			e.now = t
		}
		if msg {
			m := &e.msgs[e.msgHead]
			e.msgHead++
			fn := m.fn
			m.fn = nil
			e.events++
			fn()
			continue
		}
		// Every heap event at t, including ones scheduled at t while
		// dispatching, drains here without re-deriving t.
		for e.q.Len() > 0 && e.q.minTime() == t {
			p, pgen, fn, reason := e.q.pop()
			e.events++
			if fn != nil {
				fn()
				continue
			}
			if p.done || p.gen != pgen {
				continue // wake outlived its process incarnation
			}
			p.blocked = false
			p.wake = reason
			return p
		}
	}
}

// Deadlocked returns the names of processes that are blocked on a
// synchronization primitive with no pending event that could wake them.
// Useful in tests to assert clean termination.
func (e *Env) Deadlocked() []string {
	var names []string
	for p := range e.procs {
		if p.blocked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// yield suspends the process until its next wake and returns the reason.
// The process runs the event loop itself; only if some other process is due
// first does it switch away, to the Run goroutine, naming that process.
func (p *Proc) yield() wakeReason {
	p.inLoop = true
	if q := p.env.advance(); q != p {
		p.env.switches++
		p.handoff(q)
	}
	p.inLoop = false
	return p.wake
}

// block yields without a scheduled wake; some primitive must call unblock.
func (p *Proc) block() wakeReason {
	p.blocked = true
	return p.yield()
}

// unblock schedules p to resume at the current virtual time.
func (p *Proc) unblock(r wakeReason) {
	p.env.scheduleProc(p.env.now, p, r)
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process re-queues behind same-time events).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleProc(p.env.now+int64(d), p, wakeEvent)
	p.yield()
}
