package netsim

// Bulk payload: a Flow claims a max-min fair share of the sender-egress
// and receiver-ingress NICs and computes its completion time
// analytically. The share solver re-runs only when a flow starts, ends,
// or a node fails, and each re-solve is incremental: max-min shares
// decompose over connected components of the flow/link graph, so only
// the component containing the event's links is water-filled. The solver
// itself is internal/maxmin (a Flow is an entity of weight 1); this file
// owns what the solver does not: byte accounting, completion timers,
// aborts and the blocking API. A transfer costs O(flow transitions x its
// component) work, independent of its size.
//
// Model notes:
//   - Flow capacity is the NIC bandwidth shared among flows. RPC
//     envelopes on the same NIC read the flows' count to price their own
//     bytes (netsim.go, envelope) but take no capacity from them.
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

	"hbb/internal/maxmin"
	"hbb/internal/sim"
)

// flowLink is one direction of one NIC as seen by the flow solver.
type flowLink = maxmin.Link[*Flow]

// links returns the NIC's egress and ingress links for a resolved
// transport, creating them on first use.
func (f *iface) links(t Transport, prof Profile) (eg, in *flowLink) {
	if f.eg[t] == nil {
		f.eg[t] = &flowLink{Cap: prof.Bandwidth}
		f.in[t] = &flowLink{Cap: prof.Bandwidth}
	}
	return f.eg[t], f.in[t]
}

// Flow is an open bulk-transfer session between two nodes. A Flow is
// owned by one simulated process at a time: Write blocks its caller
// until the bytes drain, so there is never more than one transfer in
// flight per Flow.
type Flow struct {
	nw   *Network
	src  NodeID
	dst  NodeID
	tr   Transport // resolved: Legacy only when the network has one
	prof Profile
	// ent is the flow's solver entity: weight 1 over (src egress, dst
	// ingress), both nil for a loopback flow, which never enters the
	// solver. It carries the current fair-share rate.
	ent maxmin.Entity[*Flow]

	remaining float64 // bytes still to deliver in the current Write
	lastUpd   int64   // virtual ns of the last rate change (progress anchor)

	timer    sim.Timer
	timerSet bool
	finishFn func()     // cached f.finish method value, one alloc per Flow
	drained  sim.Signal // wakes the blocked writer, allocation-free
	err      error      // sticky abort error (ErrNodeDown)
	closed   bool
}

// StartFlow opens a flow session from src to dst over transport tr.
// Starting is free in virtual time; bandwidth is claimed only while a
// Write is draining.
func (nw *Network) StartFlow(src, dst NodeID, tr Transport) (*Flow, error) {
	if err := nw.checkLink(src, dst); err != nil {
		return nil, err
	}
	t := nw.transport(tr)
	var f *Flow
	if n := len(nw.flowPool); n > 0 {
		f = nw.flowPool[n-1]
		nw.flowPool = nw.flowPool[:n-1]
		*f = Flow{nw: nw, finishFn: f.finishFn} // finishFn stays bound to f
	} else {
		f = &Flow{nw: nw}
		f.finishFn = f.finish
	}
	f.src, f.dst, f.tr, f.prof = src, dst, t, nw.profs[t]
	f.ent.Owner, f.ent.Weight = f, 1
	if src != dst {
		f.ent.A, _ = nw.ifaces[src].links(t, f.prof)
		_, f.ent.B = nw.ifaces[dst].links(t, f.prof)
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
	nw.bulkBytes[f.tr].Add(n)
	if f.src == f.dst {
		return nil // loopback: no fabric time
	}
	now := int64(p.Now())
	f.lastUpd = now
	f.remaining = float64(n)
	nw.solver.Add(&f.ent)
	nw.resolve(now, &f.ent)
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

// rearm moves the completion timer to match the current rate, in place
// when one is armed.
func (f *Flow) rearm(now int64) {
	if f.ent.Rate <= 0 {
		// Starved; the next flow transition re-solves.
		if f.timerSet {
			f.nw.env.Cancel(f.timer)
			f.timerSet = false
		}
		return
	}
	at := time.Duration(now) + time.Duration(math.Ceil(f.remaining/f.ent.Rate*1e9))
	if f.timerSet {
		f.nw.env.Reschedule(f.timer, at)
		return
	}
	f.timer = f.nw.env.At(at, f.finishFn)
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
	f.nw.solver.Remove(&f.ent)
	f.nw.resolve(now, &f.ent)
	f.drained.Fire()
}

// resolve re-solves the component(s) of the flow/link graph reachable
// from the links of the flow that just arrived or left, and counts the
// pass — also when the component came back empty, which goldens and the
// harness read as "one solve per flow transition".
func (nw *Network) resolve(now int64, e *maxmin.Entity[*Flow]) {
	comp, _ := nw.solver.Resolve(e.A, e.B)
	nw.settle(now, comp)
}

// settle counts one solver pass and re-arms completion timers across the
// component it re-solved. A flow whose share didn't change keeps its
// timer and its progress anchor: the armed completion instant is still
// exact, and skipping the cancel+insert pair keeps steady states
// O(changed flows) in heap work instead of O(component). All state
// touched here and in the solver is mutated only by code the kernel
// serializes (processes and callbacks of one Env), keeping runs
// bit-reproducible regardless of GOMAXPROCS.
func (nw *Network) settle(now int64, comp []*maxmin.Entity[*Flow]) {
	nw.flowResolves.Inc()
	nw.flowActive.Observe(float64(len(nw.solver.Active())))
	for _, e := range comp {
		f := e.Owner
		if f.timerSet && e.Rate == e.PrevRate {
			continue
		}
		f.advanceAt(now, e.PrevRate)
		f.rearm(now)
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
	// Every casualty crosses one of the failed node's own links, so their
	// lists are the hit set — no scan of the whole fabric. Arrival order,
	// which the solver hands them back in, fixes the order writers wake in.
	ifc := nw.ifaces[id]
	var links []*flowLink
	for _, l := range [4]*flowLink{ifc.eg[Native], ifc.in[Native], ifc.eg[Legacy], ifc.in[Legacy]} {
		if l != nil {
			links = append(links, l)
		}
	}
	hit := append([]*maxmin.Entity[*Flow](nil), nw.solver.Crossing(links...)...)
	if len(hit) == 0 {
		return
	}
	now := int64(nw.env.Now())
	seeds := make([]*flowLink, 0, 2*len(hit))
	for _, e := range hit {
		f := e.Owner
		f.advanceAt(now, e.Rate)
		f.err = fmt.Errorf("%w: node %d failed mid-flow", ErrNodeDown, id)
		if f.timerSet {
			nw.env.Cancel(f.timer)
			f.timerSet = false
		}
		nw.solver.Remove(e)
		nw.flowAborts.Inc()
		seeds = append(seeds, e.A, e.B)
	}
	// One re-solve over the union of components the casualties touched:
	// freed capacity can cascade through transitively shared links, so
	// the BFS from every aborted flow's links collects exactly the
	// survivors whose shares can change. If survivors exist but none
	// shares a component, the pass is not counted.
	if comp, _ := nw.solver.Resolve(seeds...); len(comp) > 0 || len(nw.solver.Active()) == 0 {
		nw.settle(now, comp)
	}
	for _, e := range hit {
		e.Owner.drained.Fire()
	}
}

// Transfer is a two-sided send of n bytes from src to dst over transport
// tr: software overhead on both hosts around one flow. It blocks until
// delivery.
func (nw *Network) Transfer(p *sim.Proc, src, dst NodeID, n int64, tr Transport) error {
	f, err := nw.StartFlow(src, dst, tr)
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

// TransferFlow is Transfer on the native transport, kept because the
// benchmark harness calls it.
func (nw *Network) TransferFlow(p *sim.Proc, src, dst NodeID, n int64) error {
	return nw.Transfer(p, src, dst, n, Native)
}

// RDMAWriteFlow performs a one-sided write of n bytes from the caller into
// remote memory over the native transport. On a transport without
// one-sided semantics the remote host pays receive-side overhead too.
func (nw *Network) RDMAWriteFlow(p *sim.Proc, local, remote NodeID, n int64) error {
	f, err := nw.StartFlow(local, remote, Native)
	if err != nil {
		return err
	}
	prof := f.prof
	p.Sleep(prof.SWOverhead)
	err = f.Write(p, n)
	if err == nil && !prof.OneSided {
		p.Sleep(prof.SWOverhead)
	}
	nw.putFlow(f)
	return err
}

// RDMAReadFlow performs a one-sided read of n bytes from remote into the
// caller: one request latency, then the payload flows remote→local
// without remote CPU involvement. On a transport without one-sided
// semantics it degenerates to a request/response pair with software
// overhead on both sides.
func (nw *Network) RDMAReadFlow(p *sim.Proc, local, remote NodeID, n int64) error {
	f, err := nw.StartFlow(remote, local, Native)
	if err != nil {
		return err
	}
	prof := f.prof
	if prof.OneSided {
		p.Sleep(prof.SWOverhead + prof.Latency) // request descriptor
		err = f.Write(p, n)
	} else {
		p.Sleep(prof.SWOverhead + prof.Latency + prof.SWOverhead)
		err = f.Write(p, n)
		if err == nil {
			p.Sleep(prof.SWOverhead)
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
