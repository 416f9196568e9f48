package netsim

// Flow-level fast path: instead of pushing bulk payloads through the
// packet-train pipes (one Reserve+Sleep per chunk), a Flow claims a
// max-min fair share of the sender-egress and receiver-ingress NICs and
// computes its completion time analytically. The share solver re-runs
// only when a flow starts, ends, or a node fails, and each re-solve is
// incremental: max-min shares decompose over connected components of
// the flow/link graph, so only the component containing the event's
// links is water-filled (see DESIGN.md "Incremental flow solver"). A
// transfer therefore costs O(flow transitions x its component), not
// O(bytes/chunk) events or O(all flows) solver work.
//
// Model notes:
//   - Flow capacity is the NIC bandwidth shared among *flows only*;
//     packet-mode pipe traffic on the same NIC is not subtracted. Mixed
//     flow/packet workloads on one NIC therefore overbook it slightly —
//     acceptable because a given data plane runs entirely in one mode.
//   - Software overhead (Profile.SWOverhead) is a per-message cost; the
//     one-shot wrappers charge it once per transfer, and Flow.Write
//     charges none, amortizing it away exactly as flow-level simulators
//     do.
//   - Completion timers are armed at now + ceil(remaining/rate); for a
//     lone flow this reproduces the closed-form n/bandwidth time to
//     within 1 ns of float rounding.

import (
	"fmt"
	"math"
	"time"

	"hbb/internal/sim"
)

// flowLink is one direction of one NIC as seen by the flow solver.
// remCap/nflows are water-filling scratch, valid only while gen matches
// the network's current solve generation. head anchors the intrusive
// list of draining flows crossing the link (membership only — the
// solver orders flows by arrival seq, not list position), and compGen
// marks links already visited by the current component BFS.
type flowLink struct {
	cap     float64
	gen     uint64
	remCap  float64
	nflows  int
	compGen uint64
	head    *Flow
}

// attach prepends f to the link's draining-flow list.
func (l *flowLink) attach(f *Flow) {
	n := l.head
	l.head = f
	f.setPrev(l, nil)
	f.setNext(l, n)
	if n != nil {
		n.setPrev(l, f)
	}
}

// detach unlinks f from the link's draining-flow list.
func (l *flowLink) detach(f *Flow) {
	p, n := f.prevOn(l), f.nextOn(l)
	if p != nil {
		p.setNext(l, n)
	} else {
		l.head = n
	}
	if n != nil {
		n.setPrev(l, p)
	}
	f.setPrev(l, nil)
	f.setNext(l, nil)
}

func (f *iface) flowLinks(prof Profile, legacy bool) (eg, in *flowLink) {
	if legacy {
		if f.flLegEg == nil {
			f.flLegEg = &flowLink{cap: prof.Bandwidth}
			f.flLegIn = &flowLink{cap: prof.Bandwidth}
		}
		return f.flLegEg, f.flLegIn
	}
	if f.flEg == nil {
		f.flEg = &flowLink{cap: prof.Bandwidth}
		f.flIn = &flowLink{cap: prof.Bandwidth}
	}
	return f.flEg, f.flIn
}

// Flow is an open bulk-transfer session between two nodes. A Flow is
// owned by one simulated process at a time: Write blocks its caller
// until the bytes drain, so there is never more than one transfer in
// flight per Flow.
type Flow struct {
	nw     *Network
	src    NodeID
	dst    NodeID
	legacy bool
	prof   Profile
	eg, in *flowLink

	remaining float64 // bytes still to deliver in the current Write
	rate      float64 // current fair-share rate, bytes/sec
	prevRate  float64 // rate before the current re-solve (re-arm skip)
	lastUpd   int64   // virtual ns of the last rate change (progress anchor)
	frozen    bool    // water-filling scratch

	// Intrusive membership in eg's and in's draining-flow lists, plus
	// the arrival sequence that fixes solver iteration order and the
	// BFS visit mark.
	egNext, egPrev *Flow
	inNext, inPrev *Flow
	seq            uint64
	compGen        uint64

	timer    sim.Timer
	timerSet bool
	finishFn func()     // cached f.finish method value, one alloc per Flow
	drained  sim.Signal // wakes the blocked writer, allocation-free
	err      error      // sticky abort error (ErrNodeDown)
	closed   bool
}

// nextOn/prevOn/setNext/setPrev address the intrusive list slot for
// whichever of the flow's two links l is. eg and in are always distinct
// (loopback writes never enter the solver).
func (f *Flow) nextOn(l *flowLink) *Flow {
	if l == f.eg {
		return f.egNext
	}
	return f.inNext
}

func (f *Flow) prevOn(l *flowLink) *Flow {
	if l == f.eg {
		return f.egPrev
	}
	return f.inPrev
}

func (f *Flow) setNext(l *flowLink, g *Flow) {
	if l == f.eg {
		f.egNext = g
	} else {
		f.inNext = g
	}
}

func (f *Flow) setPrev(l *flowLink, g *Flow) {
	if l == f.eg {
		f.egPrev = g
	} else {
		f.inPrev = g
	}
}

// StartFlow opens a flow session from src to dst on the native
// transport. Starting is free in virtual time; bandwidth is claimed only
// while a Write is draining.
func (nw *Network) StartFlow(src, dst NodeID) (*Flow, error) {
	return nw.startFlow(src, dst, false)
}

// StartFlowLegacy is StartFlow over the legacy (socket) transport when
// one is configured.
func (nw *Network) StartFlowLegacy(src, dst NodeID) (*Flow, error) {
	return nw.startFlow(src, dst, true)
}

func (nw *Network) startFlow(src, dst NodeID, legacy bool) (*Flow, error) {
	if err := nw.checkLink(src, dst); err != nil {
		return nil, err
	}
	useLeg := legacy && nw.legacy != nil
	var f *Flow
	if n := len(nw.flowPool); n > 0 {
		f = nw.flowPool[n-1]
		nw.flowPool = nw.flowPool[:n-1]
		*f = Flow{nw: nw, finishFn: f.finishFn} // finishFn stays bound to f
		f.src, f.dst, f.legacy, f.prof = src, dst, useLeg, nw.chooseTransport(legacy)
	} else {
		f = &Flow{nw: nw, src: src, dst: dst, legacy: useLeg, prof: nw.chooseTransport(legacy)}
		f.finishFn = f.finish
	}
	if src != dst {
		f.eg, _ = nw.ifaces[src].flowLinks(f.prof, useLeg)
		_, f.in = nw.ifaces[dst].flowLinks(f.prof, useLeg)
	}
	nw.flowsStarted.Inc()
	return f, nil
}

// Write delivers n payload bytes over the flow, blocking until the last
// byte lands (fair bandwidth share plus one propagation latency). If a
// node on the path fails mid-drain the call returns ErrNodeDown with the
// bytes transmitted so far already delivered; the flow stays failed.
func (f *Flow) Write(p *sim.Proc, n int64) error {
	if f.closed {
		panic("netsim: Write on closed flow")
	}
	if f.err != nil {
		return f.err
	}
	if n <= 0 {
		return nil
	}
	nw := f.nw
	if err := nw.checkLink(f.src, f.dst); err != nil {
		return err
	}
	nw.ifaces[f.src].sent += n
	nw.ifaces[f.dst].recv += n
	nw.bytesMoved(f.legacy).Add(n)
	if f.src == f.dst {
		return nil // loopback: no fabric time, as in packet mode
	}
	now := int64(p.Now())
	f.lastUpd = now
	f.remaining = float64(n)
	f.rate = 0
	f.prevRate = 0
	nw.flowSeq++
	f.seq = nw.flowSeq
	nw.flows = append(nw.flows, f)
	f.eg.attach(f)
	f.in.attach(f)
	nw.resolveAffected(now, f.eg, f.in)
	f.drained.Wait(p)
	if f.err != nil {
		return f.err
	}
	p.Sleep(f.prof.Latency)
	return nil
}

// Close ends the session. The sticky abort error, if any, is returned so
// callers that only check Close still observe a mid-flow failure.
func (f *Flow) Close(p *sim.Proc) error {
	_ = p
	f.closed = true
	return f.err
}

// advanceAt books the bytes transmitted at the given rate since the last
// anchor. Progress is only booked when a flow's rate changes (or it is
// aborted) — between rate changes the armed completion timer is already
// exact — so `remaining` is a function of the rate-change instants alone,
// independent of how many re-solves other components ran in between.
func (f *Flow) advanceAt(now int64, rate float64) {
	if dt := now - f.lastUpd; dt > 0 && rate > 0 {
		f.remaining -= rate * float64(dt) / 1e9
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastUpd = now
}

// rearm replaces the completion timer to match the current rate.
func (f *Flow) rearm(now int64) {
	if f.timerSet {
		f.nw.env.Cancel(f.timer)
		f.timerSet = false
	}
	if f.rate <= 0 {
		return // starved; the next flow transition re-solves
	}
	ns := math.Ceil(f.remaining / f.rate * 1e9)
	f.timer = f.nw.env.At(time.Duration(now)+time.Duration(ns), f.finishFn)
	f.timerSet = true
}

// finish runs as a callback timer when the flow's last byte drains: it
// removes the flow, re-solves the survivors (who speed up at this very
// instant), and wakes the blocked writer.
func (f *Flow) finish() {
	f.timerSet = false
	now := int64(f.nw.env.Now())
	f.lastUpd = now
	f.remaining = 0
	f.rate = 0
	f.eg.detach(f)
	f.in.detach(f)
	f.nw.deactivate(f)
	f.nw.resolveAffected(now, f.eg, f.in)
	f.drained.Fire()
}

func (nw *Network) deactivate(f *Flow) {
	for i, g := range nw.flows {
		if g == f {
			nw.flows = append(nw.flows[:i], nw.flows[i+1:]...)
			return
		}
	}
}

// resolveAffected re-solves the connected component(s) of the flow/link
// graph reachable from the seed links. Max-min shares decompose over
// connected components — a rate event (arrival, completion, abort) can
// only change shares inside the component its links belong to — so the
// BFS-collected subset water-fills to exactly the rates a full re-solve
// would assign, and every flow outside it keeps its rate and armed
// timer. The collected flows are ordered by arrival seq, so within the
// component the bottleneck scan sees links in the same first-appearance
// order as the full solver and tie-breaks identically.
func (nw *Network) resolveAffected(now int64, seeds ...*flowLink) {
	if nw.refSolver {
		nw.solve(now, nw.flows)
		return
	}
	nw.compGen++
	gen := nw.compGen
	nw.compLinks = nw.compLinks[:0]
	nw.compFlows = nw.compFlows[:0]
	for _, l := range seeds {
		if l.compGen != gen {
			l.compGen = gen
			nw.compLinks = append(nw.compLinks, l)
		}
	}
	nw.collectComponent(gen)
	sortFlowsBySeq(nw.compFlows)
	nw.solve(now, nw.compFlows)
}

// collectComponent expands the BFS frontier in compLinks across the
// intrusive per-link flow lists, gathering every transitively connected
// flow into compFlows.
func (nw *Network) collectComponent(gen uint64) {
	for i := 0; i < len(nw.compLinks); i++ {
		l := nw.compLinks[i]
		for f := l.head; f != nil; f = f.nextOn(l) {
			if f.compGen == gen {
				continue
			}
			f.compGen = gen
			nw.compFlows = append(nw.compFlows, f)
			for _, o := range [2]*flowLink{f.eg, f.in} {
				if o.compGen != gen {
					o.compGen = gen
					nw.compLinks = append(nw.compLinks, o)
				}
			}
		}
	}
}

// solve recomputes the given flows' max-min fair shares by water filling
// — repeatedly freeze the flows crossing the tightest link at that
// link's equal share — then re-arms completion timers for the flows
// whose rate changed. It runs only on flow transitions (Write arrival,
// completion, node failure) over the affected component, so its cost is
// O(component x its links). All state it touches is mutated only by code
// the kernel serializes (processes and callbacks of one Env), keeping runs
// bit-reproducible regardless of GOMAXPROCS.
func (nw *Network) solve(now int64, flows []*Flow) {
	nw.flowResolves.Inc()
	nw.flowActive.Observe(float64(len(nw.flows)))
	if len(flows) == 0 {
		return
	}
	nw.solveGen++
	gen := nw.solveGen
	nw.linkScratch = nw.linkScratch[:0]
	for _, f := range flows {
		f.prevRate = f.rate
		f.frozen = false
		for _, l := range [2]*flowLink{f.eg, f.in} {
			if l.gen != gen {
				l.gen = gen
				l.remCap = l.cap
				l.nflows = 0
				nw.linkScratch = append(nw.linkScratch, l)
			}
			l.nflows++
		}
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		var bottleneck *flowLink
		share := math.Inf(1)
		for _, l := range nw.linkScratch {
			if l.nflows == 0 {
				continue
			}
			// Strict < keeps ties on the earliest link in arrival
			// order — deterministic across runs.
			if s := l.remCap / float64(l.nflows); s < share {
				share, bottleneck = s, l
			}
		}
		if bottleneck == nil {
			break
		}
		for _, f := range flows {
			if f.frozen || (f.eg != bottleneck && f.in != bottleneck) {
				continue
			}
			f.frozen = true
			f.rate = share
			unfrozen--
			for _, l := range [2]*flowLink{f.eg, f.in} {
				l.remCap -= share
				if l.remCap < 0 {
					l.remCap = 0
				}
				l.nflows--
			}
		}
	}
	for _, f := range flows {
		// A flow whose share didn't change keeps its timer and its
		// progress anchor: the armed completion instant is still exact,
		// and skipping the cancel+insert pair keeps steady states
		// O(changed flows) in heap work instead of O(all flows).
		if f.timerSet && f.rate == f.prevRate {
			continue
		}
		f.advanceAt(now, f.prevRate)
		f.rearm(now)
	}
}

// sortFlowsBySeq orders flows by arrival sequence in place (heapsort:
// zero allocations, O(n log n) worst case). seq values are unique, so
// the order is total and deterministic.
func sortFlowsBySeq(fs []*Flow) {
	n := len(fs)
	for i := n/2 - 1; i >= 0; i-- {
		siftFlowSeq(fs, i, n)
	}
	for i := n - 1; i > 0; i-- {
		fs[0], fs[i] = fs[i], fs[0]
		siftFlowSeq(fs, 0, i)
	}
}

func siftFlowSeq(fs []*Flow, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && fs[c+1].seq > fs[c].seq {
			c++
		}
		if fs[i].seq >= fs[c].seq {
			return
		}
		fs[i], fs[c] = fs[c], fs[i]
		i = c
	}
}

// abortFlows fails every draining flow touching node id: bytes already
// transmitted stay delivered, the blocked writer wakes with ErrNodeDown,
// and any survivors sharing capacity with the casualties are re-solved at
// the failure instant. Survivors on disjoint links keep their rates and
// armed timers untouched: max-min shares decompose over connected
// components of the flow/link graph, so a failure in one component cannot
// change shares in another. At fleet scale this turns a node failure from
// an O(all flows x all links) re-solve into work proportional to the
// failed node's own traffic.
func (nw *Network) abortFlows(id NodeID) {
	if len(nw.flows) == 0 {
		return
	}
	now := int64(nw.env.Now())
	var hit []*Flow
	for _, f := range nw.flows {
		if f.src == id || f.dst == id {
			hit = append(hit, f)
		}
	}
	if len(hit) == 0 {
		return
	}
	for _, f := range hit {
		f.advanceAt(now, f.rate)
		f.err = fmt.Errorf("%w: node %d failed mid-flow", ErrNodeDown, id)
		if f.timerSet {
			nw.env.Cancel(f.timer)
			f.timerSet = false
		}
		f.rate = 0
		f.eg.detach(f)
		f.in.detach(f)
		nw.deactivate(f)
		nw.flowAborts.Inc()
	}
	// One re-solve over the union of components the casualties touched:
	// freed capacity can cascade through transitively shared links, so
	// the BFS from every aborted flow's links collects exactly the
	// survivors whose shares can change. Survivors in other components
	// keep their rates and armed timers untouched; if no survivor shares
	// a component the solve (and its counter) is skipped entirely.
	nw.compGen++
	gen := nw.compGen
	nw.compLinks = nw.compLinks[:0]
	nw.compFlows = nw.compFlows[:0]
	for _, f := range hit {
		for _, l := range [2]*flowLink{f.eg, f.in} {
			if l.compGen != gen {
				l.compGen = gen
				nw.compLinks = append(nw.compLinks, l)
			}
		}
	}
	nw.collectComponent(gen)
	if len(nw.compFlows) > 0 || len(nw.flows) == 0 {
		if nw.refSolver {
			nw.solve(now, nw.flows)
		} else {
			sortFlowsBySeq(nw.compFlows)
			nw.solve(now, nw.compFlows)
		}
	}
	for _, f := range hit {
		f.drained.Fire()
	}
}

// TransferFlow is the flow-mode Send: software overhead on both hosts
// around one analytic bulk transfer on the native transport.
func (nw *Network) TransferFlow(p *sim.Proc, src, dst NodeID, n int64) error {
	return nw.transferFlowVia(p, src, dst, n, false)
}

// TransferFlowLegacy is TransferFlow over the legacy transport.
func (nw *Network) TransferFlowLegacy(p *sim.Proc, src, dst NodeID, n int64) error {
	return nw.transferFlowVia(p, src, dst, n, true)
}

func (nw *Network) transferFlowVia(p *sim.Proc, src, dst NodeID, n int64, legacy bool) error {
	f, err := nw.startFlow(src, dst, legacy)
	if err != nil {
		return err
	}
	p.Sleep(f.prof.SWOverhead)
	err = f.Write(p, n)
	if err == nil && src != dst {
		p.Sleep(f.prof.SWOverhead) // receive-side processing
	}
	nw.putFlow(f)
	return err
}

// RDMAWriteFlow is RDMAWrite's flow-mode counterpart: same software
// overheads, one analytic transfer instead of the chunk train.
func (nw *Network) RDMAWriteFlow(p *sim.Proc, local, remote NodeID, n int64) error {
	f, err := nw.startFlow(local, remote, false)
	if err != nil {
		return err
	}
	p.Sleep(nw.prof.SWOverhead)
	err = f.Write(p, n)
	if err == nil && !nw.prof.OneSided {
		p.Sleep(nw.prof.SWOverhead)
	}
	nw.putFlow(f)
	return err
}

// RDMAReadFlow is RDMARead's flow-mode counterpart.
func (nw *Network) RDMAReadFlow(p *sim.Proc, local, remote NodeID, n int64) error {
	f, err := nw.startFlow(remote, local, false)
	if err != nil {
		return err
	}
	if nw.prof.OneSided {
		p.Sleep(nw.prof.SWOverhead + nw.prof.Latency) // request descriptor
		err = f.Write(p, n)
	} else {
		p.Sleep(nw.prof.SWOverhead + nw.prof.Latency + nw.prof.SWOverhead)
		err = f.Write(p, n)
		if err == nil {
			p.Sleep(nw.prof.SWOverhead)
		}
	}
	nw.putFlow(f)
	return err
}

// putFlow recycles a one-shot wrapper's flow. Only the wrappers may call
// it: they never leak the *Flow, so no caller can touch the recycled
// session. Single-threaded like all netsim state (the sim runs one
// process at a time), so no lock is needed.
func (nw *Network) putFlow(f *Flow) {
	f.closed = true
	nw.flowPool = append(nw.flowPool, f)
}

// EnableFlowBulk makes BulkLegacy ride the flow fast path. It is the
// network-wide knob for bulk users that have no config of their own
// (e.g. the MapReduce shuffle).
func (nw *Network) EnableFlowBulk() { nw.flowBulk = true }

// FlowBulk reports whether EnableFlowBulk was called.
func (nw *Network) FlowBulk() bool { return nw.flowBulk }

// BulkLegacy moves a bulk payload over the legacy transport: packet-mode
// SendLegacy by default, one analytic flow when EnableFlowBulk is set.
// Control-plane messages should call SendLegacy or Call directly.
func (nw *Network) BulkLegacy(p *sim.Proc, src, dst NodeID, n int64) error {
	if nw.flowBulk {
		return nw.TransferFlowLegacy(p, src, dst, n)
	}
	return nw.SendLegacy(p, src, dst, n)
}
