// Package orchestrator is the burst-buffer lifecycle layer: it hands out
// buffer instances (core.Instance) from a pool's brick inventory the way a
// batch system hands out nodes. Jobs submit capacity requests; a scheduler
// places them immediately or queues them (FCFS or FCFS-with-backfill),
// stage-in runs before an allocation turns ready, and release overlaps
// stage-out with teardown so the next queued job starts while the old
// job's dirty data drains to Lustre. The model follows the data-acc burst
// buffer lifecycle (Wang et al., PAPERS.md): allocate → stage-in → run →
// stage-out → free.
package orchestrator

import (
	"fmt"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/core"
	"hbb/internal/metrics"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// Mode selects how an allocation's bricks map onto buffer servers.
type Mode int

const (
	// Striped spreads the bricks evenly across as many servers as the
	// request can fill, maximizing aggregate ingest bandwidth (every
	// server's pipe works for the job).
	Striped Mode = iota
	// Private packs the bricks onto as few servers as possible, isolating
	// the job from other tenants' server CPU and ingest contention at the
	// cost of aggregate bandwidth.
	Private
)

func (m Mode) String() string {
	switch m {
	case Striped:
		return "striped"
	case Private:
		return "private"
	default:
		return "invalid"
	}
}

// SchedPolicy selects the capacity scheduler's queue discipline.
type SchedPolicy int

const (
	// FCFS places requests strictly in arrival order: a head request that
	// does not fit blocks everything behind it (no starvation, worst
	// utilization).
	FCFS SchedPolicy = iota
	// Backfill scans past a blocked head and places any later request
	// that fits the current free bricks — smaller jobs jump the queue,
	// trading head-of-line queue wait for utilization.
	Backfill
)

func (sp SchedPolicy) String() string {
	switch sp {
	case FCFS:
		return "fcfs"
	case Backfill:
		return "backfill"
	default:
		return "invalid"
	}
}

// ParseSchedPolicy resolves a queue-discipline name ("fcfs", "backfill").
func ParseSchedPolicy(name string) (SchedPolicy, error) {
	switch name {
	case "", "fcfs":
		return FCFS, nil
	case "backfill":
		return Backfill, nil
	default:
		return 0, fmt.Errorf("orchestrator: unknown scheduling policy %q", name)
	}
}

// StagePair names one stage-in copy: a Lustre source object imported into
// the allocation's namespace at Dst and prefetched into the buffer.
type StagePair struct {
	Src, Dst string
}

// Request describes one buffer allocation.
type Request struct {
	// Name labels the allocation; it becomes the instance name and the
	// metrics namespace ("bb.<name>.*"). Must be unique among live
	// allocations.
	Name string
	// Bricks is the capacity ask in pool bricks (core.BrickSize each).
	Bricks int
	// Mode maps bricks to servers (striped vs. private placement).
	Mode Mode
	// Persistent keeps the instance (and its bricks) alive across
	// Release: stage-out drains dirty data but the buffered files remain
	// for a successor job. Free returns the bricks for real.
	Persistent bool
	// Client is the compute node that drives stage-in RPCs.
	Client netsim.NodeID
	// StageIn lists Lustre objects to import and prefetch before the
	// allocation turns ready.
	StageIn []StagePair
}

// Times records an allocation's lifecycle timestamps (virtual time).
type Times struct {
	Submitted time.Duration // request entered the queue
	Placed    time.Duration // bricks granted, instance created
	Ready     time.Duration // stage-in complete; job may start
	Released  time.Duration // job done; stage-out began
	Freed     time.Duration // stage-out drained (bricks returned unless persistent)
}

// QueueWait is the time the request sat unplaced.
func (t Times) QueueWait() time.Duration { return t.Placed - t.Submitted }

// StageOut is the drain window between release and free.
func (t Times) StageOut() time.Duration { return t.Freed - t.Released }

// Allocation is one granted (or queued) buffer request.
type Allocation struct {
	req      Request
	sched    *Scheduler
	inst     *core.Instance
	shares   []int
	err      error
	ready    *sim.Event
	freed    *sim.Event
	released bool
	staged   int
	Times    Times
}

// Request returns the originating request.
func (a *Allocation) Request() Request { return a.req }

// FS returns the allocation's buffer instance (nil until placed).
func (a *Allocation) FS() *core.Instance { return a.inst }

// Err reports a placement or stage-in failure (checked after Await).
func (a *Allocation) Err() error { return a.err }

// StagedBlocks returns how many blocks stage-in pulled into the buffer.
func (a *Allocation) StagedBlocks() int { return a.staged }

// Await blocks until the allocation is placed and staged (or failed).
func (a *Allocation) Await(p *sim.Proc) error {
	a.ready.Wait(p)
	return a.err
}

// AwaitFreed blocks until the allocation's stage-out has drained.
func (a *Allocation) AwaitFreed(p *sim.Proc) {
	a.freed.Wait(p)
}

// Scheduler is the capacity scheduler: it owns the submit queue and places
// requests against the pool's brick inventory.
type Scheduler struct {
	cl     *cluster.Cluster
	pool   *core.BurstFS
	policy SchedPolicy
	queue  []*Allocation
	m      *metrics.View
}

// New builds a scheduler over the pool. Metrics land in the pool registry
// under "orch.".
func New(cl *cluster.Cluster, pool *core.BurstFS, policy SchedPolicy) *Scheduler {
	return &Scheduler{
		cl:     cl,
		pool:   pool,
		policy: policy,
		m:      pool.Metrics().View("orch."),
	}
}

// Policy returns the queue discipline.
func (s *Scheduler) Policy() SchedPolicy { return s.policy }

// QueueLen returns the number of unplaced requests.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Submit enqueues a buffer request and tries to place it (and, under
// backfill, anything else that now fits). Callback-safe: placement and
// instance creation charge no virtual time; stage-in runs in a spawned
// process.
func (s *Scheduler) Submit(req Request) *Allocation {
	a := &Allocation{
		req:   req,
		sched: s,
		ready: &sim.Event{},
		freed: &sim.Event{},
	}
	a.Times.Submitted = s.cl.Env.Now()
	if req.Bricks <= 0 {
		a.fail(fmt.Errorf("orchestrator: request %q asks for %d bricks", req.Name, req.Bricks))
		return a
	}
	if req.Bricks > s.pool.TotalBricks() {
		a.fail(fmt.Errorf("orchestrator: request %q asks for %d bricks, pool has %d",
			req.Name, req.Bricks, s.pool.TotalBricks()))
		return a
	}
	s.queue = append(s.queue, a)
	s.m.Counter("submitted").Inc()
	s.dispatch()
	return a
}

// fail finishes an allocation without placing it.
func (a *Allocation) fail(err error) {
	a.err = err
	a.ready.Trigger()
	a.freed.Trigger()
}

// dispatch walks the queue placing what fits. FCFS stops at the first
// request that does not fit; backfill keeps scanning past it.
func (s *Scheduler) dispatch() {
	i := 0
	for i < len(s.queue) {
		a := s.queue[i]
		shares := s.place(a.req)
		if shares == nil {
			if s.policy == FCFS {
				return
			}
			i++
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.admit(a, shares)
	}
}

// minShare is the smallest per-server brick grant whose watermarked bytes
// admit one block (NewInstance rejects anything smaller).
func (s *Scheduler) minShare() int {
	cfg := s.pool.Config()
	n := 1
	for int64(float64(int64(n)*core.BrickSize)*core.HighWatermark) < cfg.BlockSize {
		n++
	}
	return n
}

// place maps a request onto the current free bricks, returning per-server
// shares or nil when it does not fit now. Placement is deterministic:
// ties break on server index.
func (s *Scheduler) place(req Request) []int {
	free := s.pool.FreeBricksPerServer()
	minShare := s.minShare()
	// Candidate servers that could hold at least a minimal share,
	// most-free first (index breaks ties).
	var cand []int
	for i, f := range free {
		if f >= minShare {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	byFree := append([]int(nil), cand...)
	for x := 1; x < len(byFree); x++ {
		for y := x; y > 0 && (free[byFree[y]] > free[byFree[y-1]] ||
			(free[byFree[y]] == free[byFree[y-1]] && byFree[y] < byFree[y-1])); y-- {
			byFree[y], byFree[y-1] = byFree[y-1], byFree[y]
		}
	}
	switch req.Mode {
	case Private:
		// Fewest servers: fill the most-free servers first, never leaving
		// an un-admittable tail smaller than minShare.
		shares := make([]int, len(free))
		left := req.Bricks
		for _, i := range byFree {
			if left == 0 {
				break
			}
			take := free[i]
			if take > left {
				take = left
			}
			if rem := left - take; rem > 0 && rem < minShare {
				take = left - minShare
			}
			if take < minShare {
				continue
			}
			shares[i] = take
			left -= take
		}
		if left > 0 {
			return nil
		}
		return shares
	default: // Striped
		// Widest even spread: as many servers as the ask can cover with
		// admittable shares, shrinking until the spread fits.
		maxN := req.Bricks / minShare
		if maxN > len(cand) {
			maxN = len(cand)
		}
		for n := maxN; n >= 1; n-- {
			chosen := append([]int(nil), byFree[:n]...)
			// Deterministic share order: lower index gets the remainder.
			for x := 1; x < len(chosen); x++ {
				for y := x; y > 0 && chosen[y] < chosen[y-1]; y-- {
					chosen[y], chosen[y-1] = chosen[y-1], chosen[y]
				}
			}
			base, extra := req.Bricks/n, req.Bricks%n
			shares := make([]int, len(free))
			ok := true
			for k, i := range chosen {
				want := base
				if k < extra {
					want++
				}
				if free[i] < want {
					ok = false
					break
				}
				shares[i] = want
			}
			if ok {
				return shares
			}
		}
		return nil
	}
}

// admit grants an allocation: the instance is created against the pool's
// brick inventory, then stage-in (if any) runs before ready fires.
func (s *Scheduler) admit(a *Allocation, shares []int) {
	inst, err := s.pool.NewInstance(core.InstanceSpec{
		Name:            a.req.Name,
		BricksPerServer: shares,
	})
	if err != nil {
		a.fail(err)
		return
	}
	a.inst = inst
	a.shares = shares
	a.Times.Placed = s.cl.Env.Now()
	s.m.Counter("placed").Inc()
	s.m.Histogram("queue.wait.s").ObserveDuration(a.Times.QueueWait())
	if len(a.req.StageIn) == 0 {
		a.Times.Ready = a.Times.Placed
		a.ready.Trigger()
		return
	}
	s.cl.Env.Spawn(fmt.Sprintf("orch.%s.stagein", a.req.Name), func(p *sim.Proc) {
		for _, pair := range a.req.StageIn {
			n, err := inst.StageInFile(p, a.req.Client, pair.Src, pair.Dst)
			a.staged += n
			if err != nil {
				a.err = fmt.Errorf("orchestrator: stage-in %q: %w", pair.Src, err)
				break
			}
		}
		s.m.Counter("stagein.blocks").Add(int64(a.staged))
		a.Times.Ready = p.Now()
		a.ready.Trigger()
	})
}

// Release ends the allocation's job phase and begins stage-out: dirty data
// drains to Lustre in a background process while the caller moves on —
// teardown overlaps whatever runs next. Non-persistent allocations return
// their bricks (and wake the queue) once drained; persistent ones keep
// instance and bricks for a successor. Safe to call once per allocation;
// later calls are no-ops.
func (s *Scheduler) Release(a *Allocation) {
	if a.released || a.inst == nil {
		return
	}
	a.released = true
	a.Times.Released = s.cl.Env.Now()
	s.cl.Env.Spawn(fmt.Sprintf("orch.%s.stageout", a.req.Name), func(p *sim.Proc) {
		a.inst.DrainFlushers(p)
		if !a.req.Persistent {
			a.inst.Release()
		}
		a.Times.Freed = p.Now()
		s.m.Histogram("stageout.s").ObserveDuration(a.Times.StageOut())
		a.freed.Trigger()
		if !a.req.Persistent {
			s.dispatch()
		}
	})
}

// Free fully releases a persistent allocation: its instance is torn down
// and the bricks return to the pool. For non-persistent allocations
// Release already does this.
func (s *Scheduler) Free(a *Allocation) {
	if a.inst == nil {
		return
	}
	if !a.released {
		s.Release(a)
	}
	if !a.req.Persistent {
		return
	}
	inst := a.inst
	s.cl.Env.Spawn(fmt.Sprintf("orch.%s.free", a.req.Name), func(p *sim.Proc) {
		a.freed.Wait(p) // let the drain finish first
		inst.Release()
		s.dispatch()
	})
}
