// Package netsim models a cluster interconnect: per-node NICs with egress
// and ingress bandwidth, a non-blocking switch fabric, per-message latency,
// and transport profiles for RDMA verbs, IPoIB, and Ethernet. It provides
// raw transfers, request/response RPC, one-way casts, and one-sided
// RDMA-style reads and writes, all on the sim kernel's virtual clock.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"hbb/internal/maxmin"
	"hbb/internal/metrics"
	"hbb/internal/sim"
)

// NodeID identifies a node on the fabric.
type NodeID int

// Profile describes a transport's characteristics.
type Profile struct {
	Name string
	// Latency is the one-way propagation plus per-message software latency.
	Latency time.Duration
	// Bandwidth is per-NIC in bytes/sec (full-duplex: egress and ingress
	// each get this much; the switch core is non-blocking).
	Bandwidth float64
	// OneSided is true for transports with RDMA read/write semantics; a
	// one-sided op does not involve the remote CPU and skips the remote
	// software latency.
	OneSided bool
	// SWOverhead is the per-message software/CPU cost on each involved
	// host (copies, socket processing). RDMA verbs make this ~0.
	SWOverhead time.Duration
}

// Standard transport profiles, calibrated to the paper's era: FDR
// InfiniBand with native verbs, IPoIB on the same fabric, and 10/1 GbE.
var (
	RDMA = Profile{Name: "rdma-fdr", Latency: 2 * time.Microsecond,
		Bandwidth: 6e9, OneSided: true, SWOverhead: 300 * time.Nanosecond}
	IPoIB = Profile{Name: "ipoib-fdr", Latency: 20 * time.Microsecond,
		Bandwidth: 3e9, OneSided: false, SWOverhead: 8 * time.Microsecond}
	TenGigE = Profile{Name: "10gige", Latency: 50 * time.Microsecond,
		Bandwidth: 1.25e9, OneSided: false, SWOverhead: 15 * time.Microsecond}
	GigE = Profile{Name: "1gige", Latency: 80 * time.Microsecond,
		Bandwidth: 125e6, OneSided: false, SWOverhead: 20 * time.Microsecond}
)

// ErrNodeDown reports a message sent to or from a failed node.
var ErrNodeDown = errors.New("netsim: node down")

// ErrNoService reports an RPC to an unregistered service.
var ErrNoService = errors.New("netsim: no such service")

// Msg is a request or one-way message. Size is the wire size in bytes;
// Payload carries simulation-level metadata and costs nothing on the wire.
type Msg struct {
	From    NodeID
	To      NodeID
	Service string
	Op      string
	Size    int64
	Payload any
	// Legacy routes the message over the socket transport (when one is
	// configured) instead of native verbs.
	Legacy bool
}

// Reply is an RPC response.
type Reply struct {
	Size    int64
	Payload any
	Err     error
}

// Handler serves an RPC or cast. It runs on the simulated destination node;
// for Call it executes within the caller's process (time it spends is part
// of the call), for Cast it runs in a fresh process.
type Handler func(p *sim.Proc, m *Msg) Reply

type iface struct {
	id NodeID
	// Packet-train pipes, materialized on first use (RPC envelopes, casts,
	// SendLegacy, packet-form RDMA ops). Flows never touch them, so a node
	// that only ever rides the flow solver carries no pipe state — the
	// difference between MBs and GBs of heap on a 10k-node topology.
	egress  *sim.Pipe
	ingress *sim.Pipe
	// legacy pipes model a socket-based transport (IPoIB/TCP) sharing the
	// physical port but with its own lower software-limited bandwidth.
	legEgress  *sim.Pipe
	legIngress *sim.Pipe
	// flow-solver capacity records, created lazily on first use.
	flEg, flIn       *flowLink
	flLegEg, flLegIn *flowLink
	down             bool
	sent             int64
	recv             int64
}

// service is one registered handler plus its precomputed cast process
// name, so per-message delivery formats nothing.
type service struct {
	h        Handler
	castName string
}

// Network is the fabric.
type Network struct {
	env      *sim.Env
	prof     Profile
	legacy   *Profile
	ifaces   []*iface
	services map[NodeID]map[string]*service

	// Flow fast-path state (see flow.go): the max-min solver holding the
	// currently draining flows, native and legacy alike.
	solver maxmin.Solver[*Flow]
	// flowPool recycles one-shot wrapper flows (see putFlow).
	flowPool []*Flow

	reg          *metrics.Registry
	bytesNative  *metrics.Counter
	bytesLegacy  *metrics.Counter
	flowsStarted *metrics.Counter
	flowResolves *metrics.Counter
	flowAborts   *metrics.Counter
	flowActive   *metrics.Histogram
}

// New returns a fabric with n nodes using the given transport profile.
func New(env *sim.Env, prof Profile, n int) *Network {
	nw := &Network{env: env, prof: prof, services: make(map[NodeID]map[string]*service)}
	nw.reg = metrics.NewRegistry()
	nw.bytesNative = nw.reg.Counter("net.bytes." + prof.Name)
	nw.flowsStarted = nw.reg.Counter("net.flows.started")
	nw.flowResolves = nw.reg.Counter("net.flow.resolves")
	nw.flowAborts = nw.reg.Counter("net.flow.aborts")
	nw.flowActive = nw.reg.Histogram("net.flows.active")
	for i := 0; i < n; i++ {
		nw.AddNode()
	}
	return nw
}

// Metrics returns the fabric's registry: per-transport bytes moved,
// flow counts, and solver re-solve counters. Counters cost no virtual
// time, so reading them never perturbs a run.
func (nw *Network) Metrics() *metrics.Registry { return nw.reg }

// bytesMoved picks the per-transport byte counter matching how
// chooseTransport resolves the legacy flag.
func (nw *Network) bytesMoved(legacy bool) *metrics.Counter {
	if legacy && nw.legacy != nil {
		return nw.bytesLegacy
	}
	return nw.bytesNative
}

// Env returns the owning environment.
func (nw *Network) Env() *sim.Env { return nw.env }

// Profile returns the transport profile.
func (nw *Network) Profile() Profile { return nw.prof }

// Nodes returns the number of nodes on the fabric.
func (nw *Network) Nodes() int { return len(nw.ifaces) }

// AddNode attaches a new node and returns its ID. The node starts as pure
// bookkeeping (~one cache line); pipes and flow-link records materialize
// lazily on first use, so idle or flow-only nodes stay memory-lean.
func (nw *Network) AddNode() NodeID {
	id := NodeID(len(nw.ifaces))
	nw.ifaces = append(nw.ifaces, &iface{id: id})
	return id
}

// SetLegacy installs a secondary socket-based transport (e.g. IPoIB for
// stock Hadoop while the burst buffer uses native verbs). It must be
// called before any node is added.
func (nw *Network) SetLegacy(prof Profile) {
	if len(nw.ifaces) != 0 {
		panic("netsim: SetLegacy after nodes were added")
	}
	nw.legacy = &prof
	nw.bytesLegacy = nw.reg.Counter("net.bytes." + prof.Name)
}

// HasLegacy reports whether a legacy transport is configured.
func (nw *Network) HasLegacy() bool { return nw.legacy != nil }

func (nw *Network) checkNode(id NodeID) *iface {
	if int(id) < 0 || int(id) >= len(nw.ifaces) {
		panic(fmt.Sprintf("netsim: unknown node %d", id))
	}
	return nw.ifaces[id]
}

// SetDown marks a node failed (true) or recovered (false). Messages to or
// from a failed node error with ErrNodeDown; flows touching it abort
// mid-drain with the bytes transmitted so far delivered.
func (nw *Network) SetDown(id NodeID, down bool) {
	nw.checkNode(id).down = down
	if down {
		nw.abortFlows(id)
	}
}

// Down reports whether a node is failed.
func (nw *Network) Down(id NodeID) bool { return nw.checkNode(id).down }

// Traffic returns cumulative sent/received bytes for a node.
func (nw *Network) Traffic(id NodeID) (sent, recv int64) {
	f := nw.checkNode(id)
	return f.sent, f.recv
}

// chooseTransport resolves the profile and pipe set for a message. Legacy
// selection silently falls back to the native transport when no legacy
// profile is configured.
func (nw *Network) chooseTransport(legacy bool) Profile {
	if legacy && nw.legacy != nil {
		return *nw.legacy
	}
	return nw.prof
}

// pipes returns the packet-train pipes for one transport, creating them
// on first use. Pipe construction is pure state (no kernel registration),
// so lazy creation is invisible to the simulation: the names and
// bandwidths match what eager construction produced.
func (f *iface) pipes(nw *Network, legacy bool) (eg, in *sim.Pipe) {
	if legacy && nw.legacy != nil {
		if f.legEgress == nil {
			f.legEgress = sim.NewPipe(fmt.Sprintf("node%d.leg-egress", f.id), nw.legacy.Bandwidth)
			f.legIngress = sim.NewPipe(fmt.Sprintf("node%d.leg-ingress", f.id), nw.legacy.Bandwidth)
		}
		return f.legEgress, f.legIngress
	}
	if f.egress == nil {
		f.egress = sim.NewPipe(fmt.Sprintf("node%d.egress", f.id), nw.prof.Bandwidth)
		f.ingress = sim.NewPipe(fmt.Sprintf("node%d.ingress", f.id), nw.prof.Bandwidth)
	}
	return f.egress, f.ingress
}

// transfer moves n bytes from src to dst, pipelined chunk-by-chunk through
// the source egress pipe and the destination ingress pipe so that a single
// flow achieves full NIC bandwidth while concurrent flows share each pipe
// fairly. It blocks until the last byte is received.
func (nw *Network) transfer(p *sim.Proc, src, dst NodeID, n int64) {
	nw.transferVia(p, src, dst, n, false)
}

func (nw *Network) transferVia(p *sim.Proc, src, dst NodeID, n int64, legacy bool) {
	if src == dst || n <= 0 {
		return
	}
	prof := nw.chooseTransport(legacy)
	e, _ := nw.ifaces[src].pipes(nw, legacy)
	_, in := nw.ifaces[dst].pipes(nw, legacy)
	nw.ifaces[src].sent += n
	nw.ifaces[dst].recv += n
	nw.bytesMoved(legacy).Add(n)
	chunk := e.Chunk()
	lat := int64(prof.Latency)
	var lastIngressEnd int64
	for n > 0 {
		c := n
		if c > chunk {
			c = chunk
		}
		endE := e.Reserve(int64(p.Now()), c)
		// The chunk reaches the far NIC one propagation delay after it
		// leaves; ingress service cannot start before that.
		endI := in.Reserve(endE+lat, c)
		if endI > lastIngressEnd {
			lastIngressEnd = endI
		}
		n -= c
		if n > 0 {
			// Pace the sender by its egress pipe so other local flows can
			// interleave. The final chunk skips this: its egress end is
			// always at or before the ingress tail awaited below, so the
			// extra wake-up would change nothing but cost an event —
			// one chunk (every RPC envelope) sleeps once.
			p.Sleep(time.Duration(endE - int64(p.Now())))
		}
	}
	if tail := lastIngressEnd - int64(p.Now()); tail > 0 {
		p.Sleep(time.Duration(tail))
	}
}

func (nw *Network) checkLink(src, dst NodeID) error {
	if nw.checkNode(src).down {
		return fmt.Errorf("%w: source node %d", ErrNodeDown, src)
	}
	if nw.checkNode(dst).down {
		return fmt.Errorf("%w: destination node %d", ErrNodeDown, dst)
	}
	return nil
}

// SendLegacy moves n bytes from src to dst with no service dispatch,
// blocking until delivery, over the legacy (socket) transport when one is
// configured (modelling stock-Hadoop traffic) and the native one otherwise.
//
// It is a packet-train primitive for control-plane messages (the HDFS
// end-of-block marker): latency-bound and cheap. Bulk payload rides the
// Flow API — StartFlowLegacy/TransferFlowLegacy.
func (nw *Network) SendLegacy(p *sim.Proc, src, dst NodeID, n int64) error {
	if err := nw.checkLink(src, dst); err != nil {
		return err
	}
	prof := nw.chooseTransport(true)
	p.Sleep(prof.SWOverhead)
	nw.transferVia(p, src, dst, n, true)
	if src != dst {
		p.Sleep(prof.SWOverhead) // receive-side processing
	}
	return nil
}

// RDMARead performs a one-sided read of n bytes from remote into the
// caller: one request latency, then the payload flows remote→local without
// remote CPU involvement. On non-one-sided transports it degenerates to a
// request/response pair with software overhead on both sides.
func (nw *Network) RDMARead(p *sim.Proc, local, remote NodeID, n int64) error {
	if err := nw.checkLink(local, remote); err != nil {
		return err
	}
	if nw.prof.OneSided {
		p.Sleep(nw.prof.SWOverhead + nw.prof.Latency) // request descriptor
		nw.transfer(p, remote, local, n)
		return nil
	}
	p.Sleep(nw.prof.SWOverhead + nw.prof.Latency + nw.prof.SWOverhead)
	nw.transfer(p, remote, local, n)
	p.Sleep(nw.prof.SWOverhead)
	return nil
}

// RDMAWrite performs a one-sided write of n bytes from the caller into
// remote memory.
func (nw *Network) RDMAWrite(p *sim.Proc, local, remote NodeID, n int64) error {
	if err := nw.checkLink(local, remote); err != nil {
		return err
	}
	p.Sleep(nw.prof.SWOverhead)
	nw.transfer(p, local, remote, n)
	if !nw.prof.OneSided {
		p.Sleep(nw.prof.SWOverhead)
	}
	return nil
}

// Register installs a service handler on a node. Registering the same
// service twice replaces the handler.
func (nw *Network) Register(node NodeID, name string, h Handler) {
	nw.checkNode(node)
	m := nw.services[node]
	if m == nil {
		m = make(map[string]*service)
		nw.services[node] = m
	}
	m[name] = &service{h: h, castName: fmt.Sprintf("cast:%s@%d", name, node)}
}

// Call performs a request/response RPC: the request travels src→dst, the
// handler runs, the reply travels back. The handler's virtual time is part
// of the call. Calls to self skip the fabric but still run the handler.
func (nw *Network) Call(p *sim.Proc, m *Msg) Reply {
	if err := nw.checkLink(m.From, m.To); err != nil {
		return Reply{Err: err}
	}
	svc := nw.services[m.To][m.Service]
	if svc == nil {
		return Reply{Err: fmt.Errorf("%w: %q on node %d", ErrNoService, m.Service, m.To)}
	}
	prof := nw.chooseTransport(m.Legacy)
	if m.From != m.To {
		p.Sleep(prof.SWOverhead + prof.Latency + prof.SWOverhead)
		nw.transferVia(p, m.From, m.To, m.Size, m.Legacy)
	}
	rep := svc.h(p, m)
	if m.From != m.To {
		// The destination may have failed while the handler "ran".
		if nw.ifaces[m.To].down {
			return Reply{Err: fmt.Errorf("%w: destination node %d", ErrNodeDown, m.To)}
		}
		p.Sleep(prof.SWOverhead + prof.Latency + prof.SWOverhead)
		nw.transferVia(p, m.To, m.From, rep.Size, m.Legacy)
	}
	return rep
}

// Cast delivers a one-way message and runs the handler in a process on the
// destination; the caller blocks only for the send. Handlers may block
// (sleep, transfer), so delivery cannot run as an inline callback timer;
// instead it rides the kernel's pooled spawn path with a name precomputed
// at Register time, so per-message delivery allocates no goroutine and
// formats no string.
func (nw *Network) Cast(p *sim.Proc, m *Msg) error {
	if err := nw.checkLink(m.From, m.To); err != nil {
		return err
	}
	svc := nw.services[m.To][m.Service]
	if svc == nil {
		return fmt.Errorf("%w: %q on node %d", ErrNoService, m.Service, m.To)
	}
	if m.From != m.To {
		prof := nw.chooseTransport(m.Legacy)
		p.Sleep(prof.SWOverhead + prof.Latency)
		nw.transferVia(p, m.From, m.To, m.Size, m.Legacy)
	}
	nw.env.Spawn(svc.castName, func(q *sim.Proc) {
		svc.h(q, m)
	})
	return nil
}
