package netsim

// Fleet is the datacenter-scale, memory-lean sibling of Network: a
// rack-structured topology whose nodes carry only what the max-min flow
// solver needs. Where a Network iface owns two to four sim.Pipes (chunk
// trains, name strings) plus lazily-built flowLinks behind a pointer, a
// fleet node is two inline maxmin.Link records — 96 bytes with the
// solver's state (remaining capacity, list head, stamps) — so a
// 10,000-node topology costs megabytes of heap, not gigabytes. There are
// no packet pipes, no per-node service tables, and the solver scratch is
// one per-rack maxmin.Solver shared across all of the rack's interfaces.
//
// The fleet is also the unit of kernel sharding: racks are partitioned
// across a sim.ShardGroup (round-robin), each rack's flow state is owned
// exclusively by its shard, and all cross-rack traffic is carried by
// cross-shard messages at window barriers — even when the two racks
// happen to share a shard, so the event trace is independent of the
// shard count.
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
// changes re-anchor S; tags never change, so backlogged members cost
// nothing until they reach the heap head.
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
	finishFn func()
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
// the last anchor. Like Flow.advanceAt, it runs only when the bundle's
// rate changes (or its timer needs re-arming), so progress accounting is
// a function of the rate-change instants alone.
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

// fleetXfer is one in-flight StartTransfer: a pooled record whose phase
// closures are built once (at pool miss) and reused for every transfer
// the record carries, so the swarm's arrival hot path starts transfers
// without allocating. The record is written on the source shard before
// any message departs and released back to the source-rack pool on the
// source shard, so the destination shard's phase-two reads are ordered
// by the barrier protocol and need no locking.
type fleetXfer struct {
	sr, dr *fleetRack
	di     int
	n      int64
	done   func()
	// Cached phases of the cross-rack store-and-forward protocol.
	handoff    func() // egress leg drained (src shard): message the dst rack
	phase2     func() // payload arrived (dst shard): drain downlink leg
	phase2Done func() // downlink leg drained (dst shard): ack the writer
	ackFn      func() // ack arrived (src shard): complete
	// Cached intra-rack completion pair: flow finish schedules finish one
	// NIC latency later.
	intraDone func()
	finishFn  func()
}

func (x *fleetXfer) finish() {
	done := x.done
	sr := x.sr
	x.done = nil
	x.dr = nil
	sr.xfers = append(sr.xfers, x)
	done()
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
		x.finishFn = x.finish
		x.intraDone = func() {
			x.sr.env.After(x.sr.fl.topo.Profile.Latency, x.finishFn)
		}
		x.handoff = func() {
			// Hand the payload to the destination rack one cross-rack
			// latency later. This always rides the shard group — even
			// when both racks share a shard — so delivery order is
			// identical at any shard count.
			s, lat := x.sr, x.sr.fl.topo.CrossRackLatency
			s.fl.group.Send(s.shard, x.dr.shard, s.env.Now()+lat, uint64(s.id), s.nextSeq(), x.phase2)
		}
		x.phase2 = func() {
			d := x.dr
			d.recv += x.n
			d.startFlow(int64(d.env.Now()), &d.down, &d.nodes[x.di].in, x.n, x.phase2Done)
		}
		x.phase2Done = func() {
			// Completion ack back to the writer's shard.
			d, lat := x.dr, x.sr.fl.topo.CrossRackLatency
			d.fl.group.Send(d.shard, x.sr.shard, d.env.Now()+lat, uint64(d.id), d.nextSeq(), x.ackFn)
		}
		x.ackFn = x.finishFn
	}
	x.dr, x.di, x.n, x.done = dr, di, n, done
	now := int64(sr.env.Now())
	sr.sent += n
	if sr == dr {
		dr.recv += n
		sr.startFlow(now, &sr.nodes[si].eg, &dr.nodes[di].in, n, x.intraDone)
		return nil
	}
	sr.startFlow(now, &sr.nodes[si].eg, &sr.up, n, x.handoff)
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
// same-pair legs cost a member-heap push, not a new solver entity.
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
	if bu.pushMember(m) && !fresh && bu.timerSet {
		// The new leg finishes before the armed head: invalidate the
		// timer so the re-solve re-arms it even if the rate is unchanged.
		r.env.Cancel(bu.timer)
		bu.timerSet = false
	}
	bu.ent.Weight = len(bu.members)
	r.resolve(now, a, b)
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
	bu.timerSet = false
	r.solver.Add(&bu.ent)
	return bu
}

// rearm replaces the completion timer to match the current rate and
// head member. Call only with the anchor at now.
func (bu *fleetBundle) rearm(now int64) {
	if bu.timerSet {
		bu.rack.env.Cancel(bu.timer)
		bu.timerSet = false
	}
	if bu.ent.Rate <= 0 || len(bu.members) == 0 {
		return
	}
	ns := math.Ceil((bu.members[0].tag - bu.anchorS) / bu.ent.Rate * 1e9)
	if ns < 0 {
		ns = 0
	}
	bu.timer = bu.rack.env.At(time.Duration(now)+time.Duration(ns), bu.finishFn)
	bu.timerSet = true
}

// finish runs as a callback timer when the head member's last byte
// drains: pop it, re-solve the affected component (the bundle lost one
// unit of weight — or disappeared), then deliver the completion.
func (bu *fleetBundle) finish() {
	bu.timerSet = false
	r := bu.rack
	now := int64(r.env.Now())
	fn := bu.popHead()
	a, b := bu.ent.A, bu.ent.B
	bu.ent.Weight = len(bu.members)
	if len(bu.members) == 0 {
		r.solver.Remove(&bu.ent)
		bu.ent.A, bu.ent.B = nil, nil
		r.pool = append(r.pool, bu)
	}
	r.resolve(now, a, b)
	fn()
}

// resolve re-solves the component(s) of the bundle/link graph reachable
// from a rate event's two links, counts the pass (also when the
// component came back empty) and the links it water-filled, and re-arms
// timers only for bundles whose rate — or head member — changed.
func (r *fleetRack) resolve(now int64, a, b *fleetLink) {
	comp, links := r.solver.Resolve(a, b)
	r.resolves++
	r.linksTouched += int64(links)
	for _, e := range comp {
		bu := e.Owner
		if bu.timerSet && e.Rate == e.PrevRate {
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
	// Resolves counts solver invocations; LinksTouched the links those
	// invocations water-filled. LinksTouched/Resolves is the O(affected)
	// figure: constant-bounded when concurrent flows share no links,
	// regardless of how many are active.
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
