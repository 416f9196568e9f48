package netsim

// Fleet is the datacenter-scale, memory-lean sibling of Network: a
// rack-structured topology whose nodes carry only what the max-min flow
// solver needs. Where a Network iface is a heap record holding up to four
// lazily-built flowLinks behind pointers, a fleet node is two inline
// maxmin.Link records — 96 bytes with the solver's state (remaining
// capacity, list head, stamps) — so a 10,000-node topology costs
// megabytes of heap, not gigabytes. There are no RPCs, no per-node
// service tables, and the solver scratch is one per-rack maxmin.Solver
// shared across all of the rack's interfaces.
//
// The fleet is also the unit of kernel sharding: racks are partitioned
// across a sim.ShardGroup (round-robin), each rack's flow state is owned
// exclusively by its shard, and all cross-rack traffic is carried by
// ShardGroup.Send messages, ordered by (delivery time, sending rack,
// rack sequence). A message between two shards crosses at a window
// barrier; one between racks that share a shard goes straight into the
// shard's inbox. Either way it dispatches at the same canonical
// position, so the event trace is independent of the shard count.
//
// Bandwidth model: each node has full-duplex NIC links (egress, ingress)
// at the profile bandwidth, and each rack has an uplink and a downlink
// to a non-blocking core at UplinkBandwidth. An intra-rack transfer is
// one flow over (src.egress, dst.ingress). A cross-rack transfer is
// store-and-forward at the core: phase one drains (src.egress,
// rack.uplink) in the source rack, a message carries the handoff one
// CrossRackLatency later to the destination shard, phase two drains
// (rack.downlink, dst.ingress), and a completion ack travels back to
// wake the writer. Each rack solves max-min fairness over its own links
// only — the decoupling that keeps racks independent between barriers.
//
// Rate events are settled once per rack per instant. A leg's arrival or
// completion updates its bundle's member heap and weight at once, records
// the bundle's two links as seeds and registers the rack's settle as an
// end-of-instant hook (sim.Env.AtEndOfInstant) if it is not pending yet.
// When nothing more is due at that instant, the settle runs one Resolve
// over every seed, books progress at the rates in force before the
// instant, and moves (sim.Env.Reschedule) only the completion timers whose
// rate or head member changed. A burst of same-instant arrivals into a
// rack therefore costs one re-solve, not one per leg; since max-min rates
// are a function of the final bundle set alone, the rates and completion
// instants are those per-event re-solving would reach.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hbb/internal/maxmin"
	"hbb/internal/sim"
)

// FleetTopology describes a rack-structured fleet.
type FleetTopology struct {
	Racks        int
	NodesPerRack int
	// Profile supplies the per-node NIC bandwidth and intra-rack latency.
	Profile Profile
	// CrossRackLatency is the one-way rack-to-rack propagation latency;
	// it is also the shard group's synchronization lookahead, so it must
	// be positive.
	CrossRackLatency time.Duration
	// UplinkBandwidth is each rack's uplink (and downlink) capacity in
	// bytes/sec.
	UplinkBandwidth float64
	// Shards is the number of kernel shards racks are partitioned across
	// (default 1; must not exceed Racks).
	Shards int
	// Seed feeds the shard environments' random streams.
	Seed int64
}

// Validate reports the first configuration error, so a bad 10k-node spec
// fails fast instead of mis-sharding.
func (t FleetTopology) Validate() error {
	if t.Racks < 1 {
		return fmt.Errorf("netsim: fleet needs at least 1 rack, got %d", t.Racks)
	}
	if t.NodesPerRack < 1 {
		return fmt.Errorf("netsim: fleet needs at least 1 node per rack, got %d", t.NodesPerRack)
	}
	if t.CrossRackLatency <= 0 {
		return fmt.Errorf("netsim: fleet cross-rack latency must be positive, got %v", t.CrossRackLatency)
	}
	if t.Profile.Bandwidth <= 0 {
		return fmt.Errorf("netsim: fleet NIC bandwidth must be positive, got %g", t.Profile.Bandwidth)
	}
	if t.UplinkBandwidth <= 0 {
		return fmt.Errorf("netsim: fleet uplink bandwidth must be positive, got %g", t.UplinkBandwidth)
	}
	if t.Shards < 1 {
		return fmt.Errorf("netsim: fleet needs at least 1 shard, got %d", t.Shards)
	}
	if t.Shards > t.Racks {
		return fmt.Errorf("netsim: %d shards exceed %d racks", t.Shards, t.Racks)
	}
	return nil
}

// fleetLink is one direction of one NIC or rack trunk as seen by the
// per-rack flow solver.
type fleetLink = maxmin.Link[*fleetBundle]

// fleetNode is a fleet member's entire network state.
type fleetNode struct {
	eg fleetLink
	in fleetLink
}

// fleetMember is one transfer leg riding a bundle: the bundle-service
// value at which its last byte lands, an arrival tie-break, and its
// completion callback.
type fleetMember struct {
	tag float64
	seq uint64
	fn  func()
}

// fleetBundle aggregates every concurrently draining transfer leg that
// crosses the same (a, b) link pair into one solver entity of weight
// len(members). Max-min fairness gives same-pair flows identical rates,
// so the solver only needs the count — under a 20x oversubscribed swarm
// the backlog grows the member heaps, not the water-filling working set,
// which stays bounded by the topology's distinct pair count.
//
// Members are tracked in virtual service units: the bundle's cumulative
// per-member service is S(t) = anchorS + rate*(t-anchorT)/1e9, a member
// arriving at t with n bytes finishes when S reaches S(t)+n, and only
// the member with the smallest such tag holds a completion timer. Rate
// changes re-anchor S (at the rack's settle, with the rate in force before
// the instant); tags never change, so backlogged members cost nothing
// until they reach the heap head.
type fleetBundle struct {
	rack *fleetRack
	// ent is the bundle's solver entity over (a, b); ent.Rate is the
	// per-member fair-share rate and ent.Weight tracks len(members).
	ent maxmin.Entity[*fleetBundle]

	members []fleetMember // min-heap by (tag, seq)
	memSeq  uint64

	anchorS float64 // cumulative per-member service at anchorT
	anchorT int64   // virtual ns of the last rate change

	timer    sim.Timer
	timerSet bool
	// headMoved marks a member that became the heap head since the timer
	// was armed: the settle must move the timer even if the rate holds.
	headMoved bool
	finishFn  func()
}

// serviceAt returns the bundle's cumulative per-member service at now
// without moving the anchor.
func (bu *fleetBundle) serviceAt(now int64) float64 {
	if bu.ent.Rate <= 0 || now <= bu.anchorT {
		return bu.anchorS
	}
	return bu.anchorS + bu.ent.Rate*float64(now-bu.anchorT)/1e9
}

// advanceAnchor books the service accumulated at the given rate since
// the last anchor. Like Flow.advanceAt, it runs only when a settle finds
// the bundle's rate changed (or its timer needs re-arming), so progress
// accounting is a function of the rate-change instants alone.
func (bu *fleetBundle) advanceAnchor(now int64, rate float64) {
	if dt := now - bu.anchorT; dt > 0 && rate > 0 {
		bu.anchorS += rate * float64(dt) / 1e9
	}
	bu.anchorT = now
}

// memberBefore is the member heap order: (tag, arrival seq).
func (bu *fleetBundle) memberBefore(x, y fleetMember) bool {
	if x.tag != y.tag {
		return x.tag < y.tag
	}
	return x.seq < y.seq
}

// pushMember inserts a leg into the member heap, reporting whether it
// became the head (its completion now precedes the armed timer's).
func (bu *fleetBundle) pushMember(m fleetMember) bool {
	bu.members = append(bu.members, m)
	i := len(bu.members) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !bu.memberBefore(m, bu.members[p]) {
			break
		}
		bu.members[i] = bu.members[p]
		i = p
	}
	bu.members[i] = m
	return i == 0
}

// popHead removes the earliest-finishing member and returns its
// completion callback.
func (bu *fleetBundle) popHead() func() {
	fn := bu.members[0].fn
	n := len(bu.members) - 1
	v := bu.members[n]
	bu.members[n] = fleetMember{}
	bu.members = bu.members[:n]
	if n > 0 {
		i := 0
		for {
			min, c0 := i, i*4+1
			for c := c0; c < c0+4 && c < n; c++ {
				if min == i {
					if bu.memberBefore(bu.members[c], v) {
						min = c
					}
				} else if bu.memberBefore(bu.members[c], bu.members[min]) {
					min = c
				}
			}
			if min == i {
				break
			}
			bu.members[i] = bu.members[min]
			i = min
		}
		bu.members[i] = v
	}
	return fn
}

// fleetRack owns one rack's nodes, trunk links and max-min solver (the
// active bundle set and its scratch). Exactly one shard ever touches a
// rack, so none of this needs locking even when windows execute
// concurrently.
type fleetRack struct {
	fl    *Fleet
	id    int
	shard int
	env   *sim.Env
	nodes []fleetNode
	up    fleetLink
	down  fleetLink

	solver maxmin.Solver[*fleetBundle]
	pool   []*fleetBundle
	xfers  []*fleetXfer // StartTransfer record pool
	seq    uint64       // cross-shard send ordering counter

	// seeds are the links of this instant's rate events, waiting for the
	// settle; settleFn is the cached hook, pending while settling is set.
	seeds    []*maxmin.Link[*fleetBundle]
	settling bool
	settleFn func()

	sent         int64
	recv         int64
	started      int64
	resolves     int64
	linksTouched int64
}

func (r *fleetRack) nextSeq() uint64 {
	r.seq++
	return r.seq
}

// Fleet is the memory-lean rack-sharded fabric.
type Fleet struct {
	topo  FleetTopology
	group *sim.ShardGroup
	racks []*fleetRack
}

// NewFleet builds a fleet from a validated topology.
func NewFleet(topo FleetTopology) (*Fleet, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	fl := &Fleet{
		topo:  topo,
		group: sim.NewShardGroup(topo.Shards, topo.CrossRackLatency, topo.Seed),
		racks: make([]*fleetRack, topo.Racks),
	}
	for i := range fl.racks {
		r := &fleetRack{fl: fl, id: i, shard: i % topo.Shards}
		r.env = fl.group.Shard(r.shard)
		r.nodes = make([]fleetNode, topo.NodesPerRack)
		for n := range r.nodes {
			r.nodes[n].eg.Cap = topo.Profile.Bandwidth
			r.nodes[n].in.Cap = topo.Profile.Bandwidth
		}
		r.up.Cap = topo.UplinkBandwidth
		r.down.Cap = topo.UplinkBandwidth
		r.settleFn = r.settle
		fl.racks[i] = r
	}
	return fl, nil
}

// Topology returns the fleet's topology.
func (fl *Fleet) Topology() FleetTopology { return fl.topo }

// Group returns the shard group driving the fleet. Call its Run after
// spawning workload processes on the shard environments.
func (fl *Fleet) Group() *sim.ShardGroup { return fl.group }

// Nodes returns the total node count.
func (fl *Fleet) Nodes() int { return fl.topo.Racks * fl.topo.NodesPerRack }

// Racks returns the rack count.
func (fl *Fleet) Racks() int { return fl.topo.Racks }

// RackOf returns the rack a node belongs to.
func (fl *Fleet) RackOf(node int) int { return node / fl.topo.NodesPerRack }

// ShardOf returns the shard that owns a node's rack.
func (fl *Fleet) ShardOf(node int) int { return fl.racks[fl.RackOf(node)].shard }

// Env returns the shard environment owning a node's rack; processes that
// call Transfer from this node must be spawned on it.
func (fl *Fleet) Env(node int) *sim.Env { return fl.racks[fl.RackOf(node)].env }

func (fl *Fleet) checkNode(node int) (*fleetRack, int) {
	if node < 0 || node >= fl.Nodes() {
		panic(fmt.Sprintf("netsim: unknown fleet node %d", node))
	}
	r := fl.racks[node/fl.topo.NodesPerRack]
	return r, node % fl.topo.NodesPerRack
}

// ErrFleetShard reports a Transfer issued from the wrong shard.
var ErrFleetShard = errors.New("netsim: transfer issued off the source node's shard")

// fleetXfer is one in-flight StartTransfer: a pooled record that walks
// the transfer's phases through one cached callback, step, built once at
// pool miss and reused for every transfer the record carries, so the
// swarm's arrival hot path starts transfers without allocating. The
// record is written on the source shard before any message departs and
// released back to the source-rack pool on the source shard, so the
// destination shard's reads and writes of it are ordered by the shard
// group's message hand-off and need no locking.
type fleetXfer struct {
	sr, dr *fleetRack
	di     int
	n      int64
	done   func()
	phase  xferPhase // what the next step call does
	stepFn func()    // cached x.step method value
}

// xferPhase is the fleetXfer step a callback runs next. An intra-rack
// transfer goes xferLanded → xferFinish; a cross-rack one is
// store-and-forward through the core: xferHandoff → xferDownlink →
// xferAck → xferFinish.
type xferPhase uint8

const (
	xferLanded   xferPhase = iota // intra-rack flow drained (src shard)
	xferHandoff                   // egress leg drained (src shard)
	xferDownlink                  // payload arrived (dst shard)
	xferAck                       // downlink leg drained (dst shard)
	xferFinish                    // ack arrived, or NIC latency passed (src shard)
)

// step runs the transfer's current phase and sets up the next.
func (x *fleetXfer) step() {
	switch x.phase {
	case xferLanded:
		// The writer sees the last byte one NIC latency after the flow
		// drains.
		x.phase = xferFinish
		x.sr.env.After(x.sr.fl.topo.Profile.Latency, x.stepFn)
	case xferHandoff:
		// Hand the payload to the destination rack one cross-rack latency
		// later. This always rides the shard group's Send — even when both
		// racks share a shard, where it skips the barrier — so delivery
		// order is identical at any shard count.
		x.phase = xferDownlink
		s := x.sr
		s.fl.group.Send(s.shard, x.dr.shard, s.env.Now()+s.fl.topo.CrossRackLatency, uint64(s.id), s.nextSeq(), x.stepFn)
	case xferDownlink:
		x.phase = xferAck
		d := x.dr
		d.recv += x.n
		d.startFlow(int64(d.env.Now()), &d.down, &d.nodes[x.di].in, x.n, x.stepFn)
	case xferAck:
		// Completion ack back to the writer's shard.
		x.phase = xferFinish
		d := x.dr
		d.fl.group.Send(d.shard, x.sr.shard, d.env.Now()+d.fl.topo.CrossRackLatency, uint64(d.id), d.nextSeq(), x.stepFn)
	case xferFinish:
		done := x.done
		sr := x.sr
		x.done = nil
		x.dr = nil
		sr.xfers = append(sr.xfers, x)
		done()
	}
}

// StartTransfer begins moving n payload bytes from src to dst and
// arranges for done to run on src's shard when the last byte lands (for
// an intra-rack transfer: one NIC latency after the flow drains, the
// same instant Transfer unblocks its caller). It must be called from
// code executing on src's shard — a process, callback timer, or
// delivered message. Loopback and empty transfers complete inline,
// invoking done before returning. The machinery is fully pooled: steady
// state starts transfers with zero allocations.
func (fl *Fleet) StartTransfer(src, dst int, n int64, done func()) error {
	sr, si := fl.checkNode(src)
	dr, di := fl.checkNode(dst)
	if done == nil {
		panic("netsim: StartTransfer with nil done")
	}
	if n <= 0 || src == dst {
		done()
		return nil
	}
	var x *fleetXfer
	if k := len(sr.xfers) - 1; k >= 0 {
		x = sr.xfers[k]
		sr.xfers[k] = nil
		sr.xfers = sr.xfers[:k]
	} else {
		x = &fleetXfer{sr: sr}
		x.stepFn = x.step
	}
	x.dr, x.di, x.n, x.done = dr, di, n, done
	now := int64(sr.env.Now())
	sr.sent += n
	if sr == dr {
		dr.recv += n
		x.phase = xferLanded
		sr.startFlow(now, &sr.nodes[si].eg, &dr.nodes[di].in, n, x.stepFn)
		return nil
	}
	x.phase = xferHandoff
	sr.startFlow(now, &sr.nodes[si].eg, &sr.up, n, x.stepFn)
	return nil
}

// Transfer moves n payload bytes from src to dst, blocking the calling
// process until the last byte lands. The caller must be running on src's
// shard environment. Loopback is free, like Network's packet path.
func (fl *Fleet) Transfer(p *sim.Proc, src, dst int, n int64) error {
	sr, _ := fl.checkNode(src)
	if p.Env() != sr.env {
		return fmt.Errorf("%w: node %d lives on shard %d", ErrFleetShard, src, sr.shard)
	}
	var sig sim.Signal
	if err := fl.StartTransfer(src, dst, n, sig.Fire); err != nil {
		return err
	}
	sig.Wait(p)
	return nil
}

// startFlow begins draining n bytes across two of the rack's links and
// arranges for done to run (on the rack's shard) when the last byte
// lands. It must run on the rack's shard. The leg joins the existing
// bundle for its (a, b) pair when one is draining, so concurrent
// same-pair legs cost a member-heap push, not a new solver entity; the
// rates follow at the rack's settle.
func (r *fleetRack) startFlow(now int64, a, b *fleetLink, n int64, done func()) {
	r.started++
	var bu *fleetBundle
	for e := a.First(); e != nil; e = e.Next(a) {
		if e.A == a && e.B == b {
			bu = e.Owner
			break
		}
	}
	fresh := bu == nil
	if fresh {
		bu = r.getBundle(a, b, now)
	}
	bu.memSeq++
	m := fleetMember{tag: bu.serviceAt(now) + float64(n), seq: bu.memSeq, fn: done}
	if bu.pushMember(m) && !fresh {
		// The new leg finishes before the armed head: the settle moves
		// the timer even if the rate is unchanged.
		bu.headMoved = true
	}
	bu.ent.Weight = len(bu.members)
	r.touch(a, b)
}

// getBundle takes a pooled (or new) bundle for the (a, b) pair and
// activates it in the rack's solver.
func (r *fleetRack) getBundle(a, b *fleetLink, now int64) *fleetBundle {
	var bu *fleetBundle
	if k := len(r.pool) - 1; k >= 0 {
		bu = r.pool[k]
		r.pool[k] = nil
		r.pool = r.pool[:k]
	} else {
		bu = &fleetBundle{rack: r}
		bu.ent.Owner = bu
		bu.finishFn = bu.finish
	}
	bu.ent.A, bu.ent.B = a, b
	bu.anchorS, bu.anchorT = 0, now
	bu.memSeq = 0
	bu.timerSet, bu.headMoved = false, false
	r.solver.Add(&bu.ent)
	return bu
}

// rearm moves the completion timer to match the current rate and head
// member, in place when one is armed. Call only with the anchor at now.
func (bu *fleetBundle) rearm(now int64) {
	bu.headMoved = false
	env := bu.rack.env
	if bu.ent.Rate <= 0 || len(bu.members) == 0 {
		if bu.timerSet {
			env.Cancel(bu.timer)
			bu.timerSet = false
		}
		return
	}
	ns := math.Ceil((bu.members[0].tag - bu.anchorS) / bu.ent.Rate * 1e9)
	if ns < 0 {
		ns = 0
	}
	at := time.Duration(now) + time.Duration(ns)
	if bu.timerSet {
		env.Reschedule(bu.timer, at)
		return
	}
	bu.timer = env.At(at, bu.finishFn)
	bu.timerSet = true
}

// finish runs as a callback timer when the head member's last byte
// drains: pop it, record the rate event (the bundle lost one unit of
// weight — or disappeared) for the settle, then deliver the completion.
func (bu *fleetBundle) finish() {
	bu.timerSet = false
	r := bu.rack
	fn := bu.popHead()
	a, b := bu.ent.A, bu.ent.B
	bu.ent.Weight = len(bu.members)
	if len(bu.members) == 0 {
		r.solver.Remove(&bu.ent)
		bu.ent.A, bu.ent.B = nil, nil
		r.pool = append(r.pool, bu)
	}
	r.touch(a, b)
	fn()
}

// touch records a rate event on links a and b and makes sure the rack
// settles before its instant ends.
func (r *fleetRack) touch(a, b *fleetLink) {
	r.seeds = append(r.seeds, a, b)
	if !r.settling {
		r.settling = true
		r.env.AtEndOfInstant(r.settleFn)
	}
}

// settle runs once per instant with rate events, as an end-of-instant
// hook: one Resolve over the component(s) reachable from every event's
// links, counted (also when the component came back empty) with the links
// it water-filled. Bundles book their progress at PrevRate — the rate in
// force before the instant — and only those whose rate or head member
// changed move their timer.
func (r *fleetRack) settle() {
	r.settling = false
	now := int64(r.env.Now())
	comp, links := r.solver.Resolve(r.seeds...)
	r.seeds = r.seeds[:0]
	r.resolves++
	r.linksTouched += int64(links)
	for _, e := range comp {
		bu := e.Owner
		if bu.timerSet && !bu.headMoved && e.Rate == e.PrevRate {
			continue
		}
		bu.advanceAnchor(now, e.PrevRate)
		bu.rearm(now)
	}
}

// FleetStats aggregates per-rack counters; read it after Group().Run()
// returns (racks are only mutated by their shards mid-run).
type FleetStats struct {
	BytesSent     int64
	BytesReceived int64
	Flows         int64
	// Resolves counts settles — one solver invocation per rack per
	// instant with rate events; LinksTouched the links those invocations
	// water-filled. LinksTouched/Flows is the O(affected) figure:
	// constant-bounded when concurrent flows share no links, regardless
	// of how many are active.
	Resolves     int64
	LinksTouched int64
	Windows      int64
	Messages     int64
	Events       int64
}

// Stats sums the per-rack counters and the shard group's window/event
// totals.
func (fl *Fleet) Stats() FleetStats {
	var s FleetStats
	for _, r := range fl.racks {
		s.BytesSent += r.sent
		s.BytesReceived += r.recv
		s.Flows += r.started
		s.Resolves += r.resolves
		s.LinksTouched += r.linksTouched
	}
	s.Windows = fl.group.Windows()
	s.Messages = fl.group.Messages()
	s.Events = fl.group.Events()
	return s
}

// RackTraffic returns cumulative sent/received payload bytes for a rack.
func (fl *Fleet) RackTraffic(rack int) (sent, recv int64) {
	r := fl.racks[rack]
	return r.sent, r.recv
}
