// Package hdfs implements a Hadoop-Distributed-File-System-like storage
// substrate on the simulation kernel: a NameNode service (namespace, block
// map, rack-aware placement, re-replication), DataNodes with chunked
// replication pipelines over the fabric, streaming reads with replica
// fallback, heartbeats, and failure handling. Control-plane logic is real
// code; data-plane transfers charge virtual time on NICs and devices.
package hdfs

import (
	"fmt"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// nnService is the fabric service name of the NameNode.
const nnService = "hdfs.nn"

// Stats aggregates data-plane traffic for the file system.
type Stats struct {
	BytesWritten    int64
	BytesRead       int64
	BlocksWritten   int64
	BlocksRead      int64
	PipelineRetries int64
	ReplicaRetries  int64
	Rereplications  int64
}

// HDFS is the assembled file system. It implements dfs.FileSystem.
type HDFS struct {
	cfg    Config
	cl     *cluster.Cluster
	net    *netsim.Network
	NNNode netsim.NodeID
	nsys   *Namesystem
	dns    map[netsim.NodeID]*DataNode
	stop   *sim.Event
	stats  Stats
}

var _ dfs.FileSystem = (*HDFS)(nil)

// New assembles an HDFS over the cluster: one DataNode per compute node
// plus a dedicated NameNode host on the fabric. Call Start from outside
// the simulation run to launch heartbeats and the replication monitor.
// The configuration is validated up front so that a degenerate packet
// size or window fails loudly here instead of hanging mid-simulation.
func New(cl *cluster.Cluster, cfg Config) (*HDFS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	h := &HDFS{
		cfg:    cfg,
		cl:     cl,
		net:    cl.Net,
		NNNode: cl.Net.AddNode(),
		dns:    make(map[netsim.NodeID]*DataNode),
		stop:   &sim.Event{},
	}
	h.nsys = NewNamesystem(cfg, cl.Env.Rand())
	h.net.Register(h.NNNode, nnService, h.handleNN)
	for _, node := range cl.Nodes {
		dn := newDataNode(h, node)
		if len(dn.devices) == 0 {
			continue // no usable storage: node cannot run a DataNode
		}
		h.dns[node.ID] = dn
		h.nsys.RegisterDatanode(node.ID, node.Rack, dn.capacity(), 0)
	}
	return h, nil
}

// Name implements dfs.FileSystem.
func (h *HDFS) Name() string { return "hdfs" }

// Stats returns data-plane counters.
func (h *HDFS) Stats() Stats { return h.stats }

// Namesystem exposes the metadata layer (used by tests and the harness).
func (h *HDFS) Namesystem() *Namesystem { return h.nsys }

// DataNode returns the datanode running on a compute node, or nil.
func (h *HDFS) DataNode(id netsim.NodeID) *DataNode { return h.dns[id] }

// Start launches the heartbeat and replication-monitor daemons. They run
// until Shutdown.
func (h *HDFS) Start() {
	for _, dn := range h.dns {
		dn := dn
		h.cl.Env.Spawn(fmt.Sprintf("hdfs.dn%d.heartbeat", dn.id), dn.heartbeatLoop)
	}
	h.cl.Env.Spawn("hdfs.nn.monitor", h.monitorLoop)
}

// Shutdown stops the daemons so the simulation can drain.
func (h *HDFS) Shutdown() { h.stop.Trigger() }

// FailDataNode simulates a whole-node crash: the fabric port goes down and
// the datanode stops serving. The NameNode notices via missed heartbeats.
func (h *HDFS) FailDataNode(id netsim.NodeID) {
	if dn, ok := h.dns[id]; ok {
		dn.failed = true
	}
	h.net.SetDown(id, true)
}

// FailDataNodeProcess simulates a datanode daemon crash without taking the
// host's network down (clients and tasks on the node keep running).
func (h *HDFS) FailDataNodeProcess(id netsim.NodeID) {
	if dn, ok := h.dns[id]; ok {
		dn.failed = true
	}
}

// nn RPC payloads. Handlers run inline in the caller's process; payloads
// are passed by pointer and cost their Size on the wire.
type nnAddBlockReq struct {
	path    string
	writer  netsim.NodeID
	exclude []netsim.NodeID
}
type nnAddBlockResp struct {
	id      BlockID
	targets []netsim.NodeID
}
type nnCommitReq struct {
	path string
	id   BlockID
	size int64
}
type nnBlockReceivedReq struct {
	dn   netsim.NodeID
	id   BlockID
	size int64
}
type nnHeartbeatReq struct {
	dn   netsim.NodeID
	used int64
}
type nnAbandonReq struct {
	path    string
	id      BlockID
	targets []netsim.NodeID
}

const nnReqSize = 256 // nominal metadata request wire size

// handleNN is the NameNode service handler.
func (h *HDFS) handleNN(p *sim.Proc, m *netsim.Msg) netsim.Reply {
	p.Sleep(nnOpLatency)
	switch m.Op {
	case "create":
		return netsim.Reply{Size: 64, Err: h.nsys.CreateFile(m.Payload.(string))}
	case "mkdir":
		return netsim.Reply{Size: 64, Err: h.nsys.Mkdir(m.Payload.(string))}
	case "addBlock":
		req := m.Payload.(*nnAddBlockReq)
		id, targets, err := h.nsys.AddBlock(req.path, req.writer, req.exclude)
		return netsim.Reply{Size: 64 + int64(len(targets))*16, Payload: &nnAddBlockResp{id: id, targets: targets}, Err: err}
	case "commitBlock":
		req := m.Payload.(*nnCommitReq)
		return netsim.Reply{Size: 64, Err: h.nsys.CommitBlock(req.path, req.id, req.size)}
	case "abandonBlock":
		req := m.Payload.(*nnAbandonReq)
		h.nsys.AbandonBlock(req.path, req.id)
		h.nsys.UnscheduleBlock(req.targets)
		return netsim.Reply{Size: 64}
	case "complete":
		return netsim.Reply{Size: 64, Err: h.nsys.CompleteFile(m.Payload.(string))}
	case "getBlocks":
		blocks, err := h.nsys.FileBlocks(m.Payload.(string))
		return netsim.Reply{Size: 64 + int64(len(blocks))*48, Payload: blocks, Err: err}
	case "stat":
		fi, err := h.nsys.Stat(m.Payload.(string))
		return netsim.Reply{Size: 128, Payload: fi, Err: err}
	case "list":
		fis, err := h.nsys.List(m.Payload.(string))
		return netsim.Reply{Size: 64 + int64(len(fis))*64, Payload: fis, Err: err}
	case "delete":
		freed, err := h.nsys.Delete(m.Payload.(string))
		return netsim.Reply{Size: 64, Payload: freed, Err: err}
	case "blockReceived":
		req := m.Payload.(*nnBlockReceivedReq)
		h.nsys.BlockReceived(req.dn, req.id, req.size)
		return netsim.Reply{Size: 64}
	case "heartbeat":
		req := m.Payload.(*nnHeartbeatReq)
		h.nsys.Heartbeat(req.dn, req.used, p.Now())
		return netsim.Reply{Size: 64}
	default:
		return netsim.Reply{Err: fmt.Errorf("hdfs: unknown NN op %q", m.Op)}
	}
}

// callNN performs a metadata RPC from a client node.
func (h *HDFS) callNN(p *sim.Proc, from netsim.NodeID, op string, payload any) netsim.Reply {
	return h.net.Call(p, &netsim.Msg{
		From: from, To: h.NNNode, Service: nnService, Op: op,
		Size: nnReqSize, Payload: payload, Transport: netsim.Legacy,
	})
}

// monitorLoop is the NameNode's failure detector and replication driver.
func (h *HDFS) monitorLoop(p *sim.Proc) {
	for {
		if h.stop.WaitTimeout(p, heartbeatInterval) {
			return
		}
		h.nsys.CheckDatanodes(p.Now())
		for _, task := range h.nsys.ReplicationTasks(8) {
			task := task
			h.cl.Env.Spawn(fmt.Sprintf("hdfs.rerepl.b%d", task.Block), func(q *sim.Proc) {
				h.rereplicate(q, task)
			})
		}
	}
}

// rereplicate copies one block from a live source to the chosen target.
func (h *HDFS) rereplicate(p *sim.Proc, task ReplicationTask) {
	src := h.dns[task.Source]
	tgt := h.dns[task.Target]
	if src == nil || tgt == nil || src.failed || tgt.failed {
		h.nsys.UnscheduleBlock([]netsim.NodeID{task.Target})
		return
	}
	blk, ok := src.blocks[task.Block]
	if !ok {
		h.nsys.UnscheduleBlock([]netsim.NodeID{task.Target})
		return
	}
	dev := tgt.pickDevice(task.Size)
	if dev == nil {
		h.nsys.UnscheduleBlock([]netsim.NodeID{task.Target})
		return
	}
	if err := dev.Alloc(task.Size); err != nil {
		h.nsys.UnscheduleBlock([]netsim.NodeID{task.Target})
		return
	}
	// Background traffic: one flat read, one analytic flow, one flat write
	// for the whole block.
	blk.dev.ReadFlat(p, task.Size)
	if err := h.net.Transfer(p, src.id, tgt.id, task.Size, netsim.Legacy); err != nil {
		dev.Dealloc(task.Size)
		return
	}
	dev.WriteFlat(p, task.Size)
	tgt.addBlock(task.Block, task.Size, dev)
	h.stats.Rereplications++
	h.callNN(p, tgt.id, "blockReceived", &nnBlockReceivedReq{dn: tgt.id, id: task.Block, size: task.Size})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Mkdir implements dfs.FileSystem.
func (h *HDFS) Mkdir(p *sim.Proc, client netsim.NodeID, path string) error {
	return h.callNN(p, client, "mkdir", path).Err
}

// Stat implements dfs.FileSystem.
func (h *HDFS) Stat(p *sim.Proc, client netsim.NodeID, path string) (dfs.FileInfo, error) {
	rep := h.callNN(p, client, "stat", path)
	if rep.Err != nil {
		return dfs.FileInfo{}, rep.Err
	}
	return rep.Payload.(dfs.FileInfo), nil
}

// List implements dfs.FileSystem.
func (h *HDFS) List(p *sim.Proc, client netsim.NodeID, dir string) ([]dfs.FileInfo, error) {
	rep := h.callNN(p, client, "list", dir)
	if rep.Err != nil {
		return nil, rep.Err
	}
	return rep.Payload.([]dfs.FileInfo), nil
}

// Delete implements dfs.FileSystem. Freed replicas are released on their
// datanodes immediately (HDFS itself defers this to block reports; the
// simulation takes the shortcut since the capacity effect is what matters).
func (h *HDFS) Delete(p *sim.Proc, client netsim.NodeID, path string) error {
	rep := h.callNN(p, client, "delete", path)
	if rep.Err != nil {
		return rep.Err
	}
	if freed, ok := rep.Payload.(map[netsim.NodeID][]BlockID); ok {
		for id, blocks := range freed {
			dn := h.dns[id]
			if dn == nil {
				continue
			}
			for _, b := range blocks {
				dn.dropBlock(b)
			}
		}
	}
	return nil
}

// BlockLocations implements dfs.FileSystem.
func (h *HDFS) BlockLocations(p *sim.Proc, client netsim.NodeID, path string) ([]dfs.BlockLocation, error) {
	blocks, err := h.getBlocks(p, client, path)
	if err != nil {
		return nil, err
	}
	out := make([]dfs.BlockLocation, len(blocks))
	for i, b := range blocks {
		out[i] = dfs.BlockLocation{Offset: b.Offset, Length: b.Size, Hosts: b.Locations}
	}
	return out, nil
}

func (h *HDFS) getBlocks(p *sim.Proc, client netsim.NodeID, path string) ([]BlockInfo, error) {
	rep := h.callNN(p, client, "getBlocks", path)
	if rep.Err != nil {
		return nil, rep.Err
	}
	return rep.Payload.([]BlockInfo), nil
}
