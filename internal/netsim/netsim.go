// Package netsim models a cluster interconnect: per-node NICs with egress
// and ingress bandwidth, a non-blocking switch fabric, per-message latency,
// and transport profiles for RDMA verbs, IPoIB, and Ethernet. Each NIC
// direction is one capacity: bulk payload drains through it as max-min
// fair flows (flow.go), and request/response RPC envelopes cross it at the
// share the flows draining there leave them, all on the sim kernel's
// virtual clock.
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

// Transport selects which of a node's transports a message or flow rides.
type Transport uint8

const (
	// Native is the fabric's own profile (RDMA verbs on InfiniBand).
	Native Transport = iota
	// Legacy is the socket transport SetLegacy installs (IPoIB for stock
	// Hadoop); without one it falls back to Native.
	Legacy
)

// ErrNodeDown reports a message sent to or from a failed node.
var ErrNodeDown = errors.New("netsim: node down")

// ErrNoService reports an RPC to an unregistered service.
var ErrNoService = errors.New("netsim: no such service")

// Msg is a request. Size is the wire size in bytes; Payload carries
// simulation-level metadata and costs nothing on the wire.
type Msg struct {
	From      NodeID
	To        NodeID
	Service   string
	Op        string
	Size      int64
	Payload   any
	Transport Transport
}

// Reply is an RPC response.
type Reply struct {
	Size    int64
	Payload any
	Err     error
}

// Handler serves an RPC. It runs on the simulated destination node within
// the caller's process: time it spends is part of the call.
type Handler func(p *sim.Proc, m *Msg) Reply

type iface struct {
	// eg and in are this NIC's egress and ingress capacity per transport,
	// created on the first flow that crosses them, so an idle node or one
	// that only answers RPCs carries none.
	eg, in [2]*flowLink
	down   bool
	sent   int64
	recv   int64
}

// Network is the fabric.
type Network struct {
	env *sim.Env
	// profs is indexed by Transport; profs[Legacy] is meaningful only
	// when hasLegacy is set.
	profs     [2]Profile
	hasLegacy bool
	ifaces    []*iface
	services  map[NodeID]map[string]Handler

	// Flow state (see flow.go): the max-min solver holding the currently
	// draining flows, native and legacy alike.
	solver maxmin.Solver[*Flow]
	// flowPool recycles the flows Ops open (see putFlow), opPool the Ops
	// the blocking forms run.
	flowPool []*Flow
	opPool   []*Op

	reg *metrics.Registry
	// bulkBytes and envBytes count flow payload and RPC envelope bytes per
	// transport.
	bulkBytes, envBytes [2]*metrics.Counter
	flowsStarted        *metrics.Counter
	flowResolves        *metrics.Counter
	flowAborts          *metrics.Counter
	flowActive          *metrics.Histogram
}

// New returns a fabric with n nodes using the given transport profile.
func New(env *sim.Env, prof Profile, n int) *Network {
	nw := &Network{env: env, services: make(map[NodeID]map[string]Handler)}
	nw.profs[Native] = prof
	nw.reg = metrics.NewRegistry()
	nw.countBytes(Native)
	nw.flowsStarted = nw.reg.Counter("net.flows.started")
	nw.flowResolves = nw.reg.Counter("net.flow.resolves")
	nw.flowAborts = nw.reg.Counter("net.flow.aborts")
	nw.flowActive = nw.reg.Histogram("net.flows.active")
	for i := 0; i < n; i++ {
		nw.AddNode()
	}
	return nw
}

func (nw *Network) countBytes(t Transport) {
	name := nw.profs[t].Name
	nw.bulkBytes[t] = nw.reg.Counter("net.bytes.bulk." + name)
	nw.envBytes[t] = nw.reg.Counter("net.bytes.envelope." + name)
}

// Metrics returns the fabric's registry: per-transport bulk and envelope
// bytes moved, flow counts, and solver re-solve counters. Counters cost
// no virtual time, so reading them never perturbs a run.
func (nw *Network) Metrics() *metrics.Registry { return nw.reg }

// Env returns the owning environment.
func (nw *Network) Env() *sim.Env { return nw.env }

// Profile returns the native transport profile.
func (nw *Network) Profile() Profile { return nw.profs[Native] }

// Nodes returns the number of nodes on the fabric.
func (nw *Network) Nodes() int { return len(nw.ifaces) }

// AddNode attaches a new node and returns its ID. The node starts as pure
// bookkeeping; its flow links materialize on first use.
func (nw *Network) AddNode() NodeID {
	id := NodeID(len(nw.ifaces))
	nw.ifaces = append(nw.ifaces, &iface{})
	return id
}

// SetLegacy installs a secondary socket-based transport (e.g. IPoIB for
// stock Hadoop while the burst buffer uses native verbs). It must be
// called before any node is added.
func (nw *Network) SetLegacy(prof Profile) {
	if len(nw.ifaces) != 0 {
		panic("netsim: SetLegacy after nodes were added")
	}
	nw.profs[Legacy] = prof
	nw.hasLegacy = true
	nw.countBytes(Legacy)
}

// HasLegacy reports whether a legacy transport is configured.
func (nw *Network) HasLegacy() bool { return nw.hasLegacy }

// transport resolves the transport a message or flow actually rides:
// Legacy falls back to Native when no legacy profile is configured.
func (nw *Network) transport(tr Transport) Transport {
	if tr == Legacy && nw.hasLegacy {
		return Legacy
	}
	return Native
}

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

func (nw *Network) checkLink(src, dst NodeID) error {
	if nw.checkNode(src).down {
		return fmt.Errorf("%w: source node %d", ErrNodeDown, src)
	}
	if nw.checkNode(dst).down {
		return fmt.Errorf("%w: destination node %d", ErrNodeDown, dst)
	}
	return nil
}

// Register installs a service handler on a node. Registering the same
// service twice replaces the handler.
func (nw *Network) Register(node NodeID, name string, h Handler) {
	nw.checkNode(node)
	m := nw.services[node]
	if m == nil {
		m = make(map[string]Handler)
		nw.services[node] = m
	}
	m[name] = h
}

// Call performs a request/response RPC: the request envelope travels
// src→dst, the handler runs, the reply envelope travels back. The
// handler's virtual time is part of the call. Calls to self skip the
// fabric but still run the handler.
func (nw *Network) Call(p *sim.Proc, m *Msg) Reply {
	if err := nw.checkLink(m.From, m.To); err != nil {
		return Reply{Err: err}
	}
	h := nw.services[m.To][m.Service]
	if h == nil {
		return Reply{Err: fmt.Errorf("%w: %q on node %d", ErrNoService, m.Service, m.To)}
	}
	if m.From != m.To {
		nw.Envelope(m.From, m.To, m.Size, m.Transport, p.Cont())
		p.Park()
	}
	rep := h(p, m)
	if m.From != m.To {
		// The destination may have failed while the handler "ran".
		if nw.ifaces[m.To].down {
			return Reply{Err: fmt.Errorf("%w: destination node %d", ErrNodeDown, m.To)}
		}
		nw.Envelope(m.To, m.From, rep.Size, m.Transport, p.Cont())
		p.Park()
	}
	return rep
}

// Envelope carries one RPC envelope of n bytes from src to dst and
// resumes k when it lands, with no node or service check (Call makes
// those). The envelope takes one wait: software overhead on both hosts
// and the profile latency to post it, then — for a non-empty envelope —
// one more latency in flight and the bytes serialized onto the sender's
// egress and off the receiver's ingress. Each NIC direction serves the envelope at the share a newcomer
// gets beside the k flows draining through it, 1/(k+1) of line rate, so
// an RPC on a NIC saturated by bulk transfers is slowed by them. An
// envelope holds no capacity of its own: flows do not slow for it and
// envelopes never queue behind one another, because envelopes are 0.004%
// of the paper suite's fabric bytes (DESIGN.md, "Flow-level network
// model").
func (nw *Network) Envelope(src, dst NodeID, n int64, tr Transport, k sim.Cont) {
	t := nw.transport(tr)
	prof := nw.profs[t]
	d := prof.SWOverhead + prof.Latency + prof.SWOverhead
	if n > 0 {
		s, r := nw.ifaces[src], nw.ifaces[dst]
		s.sent += n
		r.recv += n
		nw.envBytes[t].Add(n)
		d += prof.Latency + serialize(n, prof.Bandwidth, s.eg[t]) + serialize(n, prof.Bandwidth, r.in[t])
	}
	nw.env.Resume(nw.env.Now()+d, k)
}

// serialize is how long n envelope bytes take through one NIC direction of
// line rate bw: the newcomer's equal share beside the flows draining on l
// (nil when no flow ever crossed it), never less than 1 ns.
func serialize(n int64, bw float64, l *flowLink) time.Duration {
	k := 1
	if l != nil {
		for e := l.First(); e != nil; e = e.Next(l) {
			k += e.Weight
		}
	}
	ns := int64(float64(n) * float64(k) / bw * 1e9)
	return time.Duration(max(ns, 1))
}
