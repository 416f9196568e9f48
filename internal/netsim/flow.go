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
//   - Every blocking operation (Flow.Write, Transfer, RDMAWriteFlow,
//     RDMAReadFlow) is one Op: its steps run as callbacks at the instants
//     a process would wake between its sleeps, and the last one resumes a
//     continuation. The blocking form starts the Op with its caller's
//     continuation and parks.
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
// until the bytes drain, so there is never more than one write in flight
// per Flow.
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
	finishFn func() // cached f.finish method value, one alloc per Flow
	op       *Op    // the write draining on the flow, told when it ends
	err      error  // sticky abort error (ErrNodeDown)
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
	o := f.nw.getOp()
	o.f, o.n, o.post, o.k = f, n, noPost, p.Cont()
	if o.write() {
		p.Park()
	}
	return f.nw.putOp(o)
}

// begin starts a write of n bytes for o: the bytes are booked and the
// flow joins the solver. It reports false when the write is over at once:
// the flow failed earlier, there is nothing to send, a node on the path is
// down, or the flow is a loopback, which takes no fabric time.
func (f *Flow) begin(o *Op, n int64) (draining bool, err error) {
	if f.closed {
		panic("netsim: Write on closed flow")
	}
	if f.err != nil {
		return false, f.err
	}
	if n <= 0 {
		return false, nil
	}
	nw := f.nw
	if err := nw.checkLink(f.src, f.dst); err != nil {
		return false, err
	}
	nw.ifaces[f.src].sent += n
	nw.ifaces[f.dst].recv += n
	nw.bulkBytes[f.tr].Add(n)
	if f.src == f.dst {
		return false, nil
	}
	now := int64(nw.env.Now())
	f.op = o
	f.lastUpd = now
	f.remaining = float64(n)
	nw.solver.Add(&f.ent)
	nw.resolve(now, &f.ent)
	return true, nil
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
	o := f.op
	f.op = nil
	o.drained()
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
		o := e.Owner.op
		e.Owner.op = nil
		o.drained()
	}
}

// Transfer is a two-sided send of n bytes from src to dst over transport
// tr: software overhead on both hosts around one flow. It blocks until
// delivery.
func (nw *Network) Transfer(p *sim.Proc, src, dst NodeID, n int64, tr Transport) error {
	o := nw.getOp()
	if o.transfer(src, dst, n, tr, p.Cont()) {
		p.Park()
	}
	return nw.putOp(o)
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
	o := nw.getOp()
	if o.RDMAWrite(local, remote, n, p.Cont()) {
		p.Park()
	}
	return nw.putOp(o)
}

// RDMAReadFlow performs a one-sided read of n bytes from remote into the
// caller: one request latency, then the payload flows remote→local
// without remote CPU involvement. On a transport without one-sided
// semantics it degenerates to a request/response pair with software
// overhead on both sides.
func (nw *Network) RDMAReadFlow(p *sim.Proc, local, remote NodeID, n int64) error {
	o := nw.getOp()
	if o.rdmaRead(local, remote, n, p.Cont()) {
		p.Park()
	}
	return nw.putOp(o)
}

// Op is one bulk operation in flight as a chain of callbacks: the steps a
// blocking caller would sleep between, each run at the instant and
// sequence number where that caller would wake, the last one resuming the
// continuation the operation was started with. The blocking
// forms run one from the network's pool with their caller's continuation;
// a caller that never blocks (a closed-loop client written as callbacks)
// keeps its own, from NewOp, and starts one operation on it at a time.
type Op struct {
	nw   *Network
	f    *Flow
	n    int64
	own  bool          // the Op opened f and recycles it when it completes
	post time.Duration // receive-side overhead after a clean write, or noPost
	k    sim.Cont
	err  error
	// stage is the step the next callback runs; step is o.advance, bound
	// once, so a warm Op starts an operation without allocating.
	stage opStage
	step  func()
}

type opStage uint8

const (
	opWrite   opStage = iota // the overhead before the write is over: start it
	opDrained                // the writer's wake at the instant its last byte left
	opLanded                 // one latency later: the write is over
	opDone                   // nothing left: resume the continuation
)

// noPost marks an operation with no receive-side overhead after its write.
const noPost time.Duration = -1

// NewOp returns an Op for a caller that starts operations on it itself.
func (nw *Network) NewOp() *Op {
	o := &Op{nw: nw}
	o.step = o.advance
	return o
}

// Err returns the outcome of the Op's last operation: nil, or why it
// failed (ErrNodeDown when a node on the path was or went down).
func (o *Op) Err() error { return o.err }

// getOp takes a pooled Op for a blocking form.
func (nw *Network) getOp() *Op {
	if n := len(nw.opPool) - 1; n >= 0 {
		o := nw.opPool[n]
		nw.opPool = nw.opPool[:n]
		return o
	}
	return nw.NewOp()
}

// putOp recycles a blocking form's Op and returns its outcome.
func (nw *Network) putOp(o *Op) error {
	err := o.err
	o.err, o.k = nil, sim.Cont{}
	nw.opPool = append(nw.opPool, o)
	return err
}

// RDMAWrite starts RDMAWriteFlow's steps on o, ending in k; Err then
// reports the outcome. It returns false when the write failed before it
// began (a node down): k does not run and the caller carries on itself.
func (o *Op) RDMAWrite(local, remote NodeID, n int64, k sim.Cont) bool {
	prof := o.nw.profs[Native]
	post := noPost
	if !prof.OneSided {
		post = prof.SWOverhead
	}
	return o.open(local, remote, Native, n, prof.SWOverhead, post, k)
}

// rdmaRead starts RDMAReadFlow's steps on o; see RDMAWrite.
func (o *Op) rdmaRead(local, remote NodeID, n int64, k sim.Cont) bool {
	prof := o.nw.profs[Native]
	if prof.OneSided {
		return o.open(remote, local, Native, n, prof.SWOverhead+prof.Latency, noPost, k) // request descriptor
	}
	return o.open(remote, local, Native, n, prof.SWOverhead+prof.Latency+prof.SWOverhead, prof.SWOverhead, k)
}

// transfer starts Transfer's steps on o; see RDMAWrite.
func (o *Op) transfer(src, dst NodeID, n int64, tr Transport, k sim.Cont) bool {
	sw := o.nw.profs[o.nw.transport(tr)].SWOverhead
	post := sw // receive-side processing
	if src == dst {
		post = noPost
	}
	return o.open(src, dst, tr, n, sw, post, k)
}

// open starts an operation on a fresh flow from src to dst: pre of
// software overhead, then the write, then post after a clean write. It
// reports false, with Err set, when the flow cannot open.
func (o *Op) open(src, dst NodeID, tr Transport, n int64, pre, post time.Duration, k sim.Cont) bool {
	f, err := o.nw.StartFlow(src, dst, tr)
	if err != nil {
		o.err = err
		return false
	}
	o.f, o.own, o.n, o.post, o.k, o.err = f, true, n, post, k, nil
	o.then(pre, opWrite)
	return true
}

// advance is every callback of the chain: it runs the step the Op is at.
func (o *Op) advance() {
	switch o.stage {
	case opWrite:
		if !o.write() {
			o.nw.env.Complete(o.k) // the caller would have carried on here
		}
	case opDrained:
		next := opLanded
		if o.post == noPost {
			next = opDone
		}
		o.then(o.f.prof.Latency, next)
	case opLanded:
		o.then(o.post, opDone)
	}
}

// write starts the write of o.n bytes on o.f and reports whether the Op
// is still pending: the bytes are draining, or the write ended at once and
// the receive-side overhead follows. If not, the Op is over.
func (o *Op) write() bool {
	draining, err := o.f.begin(o, o.n)
	if draining {
		return true
	}
	o.err = err
	if err == nil && o.post != noPost {
		o.then(o.post, opDone)
		return true
	}
	o.finish()
	return false
}

// drained runs when o's write stops draining: its last byte left (the
// writer wakes at this instant, then waits one latency for the byte to
// land) or a node on the path failed (the writer wakes with the error).
func (o *Op) drained() {
	if err := o.f.err; err != nil {
		o.err = err
		o.then(0, opDone)
		return
	}
	o.then(0, opDrained)
}

// then schedules the Op's next step d from now; when the step is opDone,
// the Op ends and its continuation is the event, resumed directly.
func (o *Op) then(d time.Duration, next opStage) {
	env := o.nw.env
	at := env.Now() + max(d, 0)
	if next == opDone {
		o.finish()
		env.Resume(at, o.k)
		return
	}
	o.stage = next
	env.At(at, o.step)
}

// finish releases the Op's flow, recycling it when the Op opened it. The
// outcome stays in the Op.
func (o *Op) finish() {
	if o.own {
		o.nw.putFlow(o.f)
	}
	o.f, o.own = nil, false
}

// putFlow recycles a flow an Op opened. Only Ops may call it: they never
// leak the *Flow, so no caller can touch the recycled session.
// Single-threaded like all netsim state (the sim runs one process at a
// time), so no lock is needed.
func (nw *Network) putFlow(f *Flow) {
	f.closed = true
	nw.flowPool = append(nw.flowPool, f)
}
