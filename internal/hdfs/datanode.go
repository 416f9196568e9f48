package hdfs

import (
	"fmt"

	"hbb/internal/cluster"
	"hbb/internal/netsim"
	"hbb/internal/sim"
	"hbb/internal/storage"
)

// packet is the streaming unit flowing through pipelines and read fetches.
type packet struct {
	bytes int64
	last  bool
	err   bool
}

// packetHeader is the nominal wire overhead of a zero-payload packet (the
// end-of-block marker and acks).
const packetHeader = 64

// DataNode stores block replicas on a compute node's local devices and
// runs the receive/forward pipeline stages and read streamers.
type DataNode struct {
	fs      *HDFS
	node    *cluster.Node
	id      netsim.NodeID
	devices []*storage.Device
	blocks  map[BlockID]*dnBlock
	used    int64
	failed  bool
}

type dnBlock struct {
	size int64
	dev  *storage.Device
}

// newDataNode picks the node's data directories per config: stock HDFS
// uses persistent devices (SSD, then HDD); with UseRAMDiskForData the RAM
// disk is preferred. A node with no persistent device at all falls back to
// its RAM disk so that "HDFS on diskless nodes" is representable (with the
// tiny capacity the paper's motivation highlights).
func newDataNode(h *HDFS, node *cluster.Node) *DataNode {
	dn := &DataNode{fs: h, node: node, id: node.ID, blocks: make(map[BlockID]*dnBlock)}
	if h.cfg.UseRAMDiskForData && node.RAMDisk != nil {
		dn.devices = append(dn.devices, node.RAMDisk)
	}
	if node.SSD != nil {
		dn.devices = append(dn.devices, node.SSD)
	}
	if node.HDD != nil {
		dn.devices = append(dn.devices, node.HDD)
	}
	if len(dn.devices) == 0 && node.RAMDisk != nil {
		dn.devices = append(dn.devices, node.RAMDisk)
	}
	return dn
}

// ID returns the datanode's fabric node.
func (dn *DataNode) ID() netsim.NodeID { return dn.id }

// Used returns bytes of block data stored.
func (dn *DataNode) Used() int64 { return dn.used }

func (dn *DataNode) capacity() int64 {
	var total int64
	for _, d := range dn.devices {
		total += d.Capacity()
	}
	return total
}

// pickDevice returns the first (fastest) device with room for n more
// bytes, or nil.
func (dn *DataNode) pickDevice(n int64) *storage.Device {
	for _, d := range dn.devices {
		if d.Free() >= n {
			return d
		}
	}
	return nil
}

func (dn *DataNode) addBlock(id BlockID, size int64, dev *storage.Device) {
	dn.blocks[id] = &dnBlock{size: size, dev: dev}
	dn.used += size
}

// dropBlock discards a replica (abandoned pipeline or deletion), returning
// its space.
func (dn *DataNode) dropBlock(id BlockID) {
	b, ok := dn.blocks[id]
	if !ok {
		return
	}
	delete(dn.blocks, id)
	b.dev.Dealloc(b.size)
	dn.used -= b.size
}

// heartbeatLoop reports liveness and usage to the NameNode until the file
// system shuts down or the node fails.
func (dn *DataNode) heartbeatLoop(p *sim.Proc) {
	for {
		if dn.fs.stop.WaitTimeout(p, dn.fs.cfg.HeartbeatInterval) {
			return
		}
		if dn.failed {
			return
		}
		dn.fs.callNN(p, dn.id, "heartbeat", &nnHeartbeatReq{dn: dn.id, used: dn.used})
	}
}

// blockRecv is one pipeline stage's receive state for one block.
type blockRecv struct {
	dn   *DataNode
	blk  BlockID
	in   *sim.Store[packet]
	done *sim.Event
	ok   bool
	size int64
	dev  *storage.Device
}

// receiveBlock prepares this datanode to receive a block, reserving space
// and spawning the xceiver (receive/forward) and disk-writer processes.
// next is the downstream stage, or nil for the pipeline tail. It returns
// nil if the datanode cannot take the block (full or failed).
func (dn *DataNode) receiveBlock(blk BlockID, next *blockRecv) *blockRecv {
	if dn.failed {
		return nil
	}
	dev := dn.pickDevice(dn.fs.cfg.BlockSize)
	if dev == nil {
		return nil
	}
	if err := dev.Alloc(dn.fs.cfg.BlockSize); err != nil {
		return nil
	}
	r := &blockRecv{
		dn:   dn,
		blk:  blk,
		in:   sim.NewBounded[packet](dn.fs.cfg.WindowPackets),
		done: &sim.Event{},
		dev:  dev,
	}
	wstore := sim.NewBounded[packet](dn.fs.cfg.WindowPackets)
	writerDone := &sim.Event{}

	// Disk writer: drains segments to the device with one flat reservation
	// each, overlapped with the xceiver's network receive through wstore.
	dn.fs.cl.Env.Spawn(fmt.Sprintf("dn%d.write.b%d", dn.id, blk), func(p *sim.Proc) {
		defer writerDone.Trigger()
		for {
			pkt, ok := wstore.Get(p)
			if !ok {
				return
			}
			if dn.failed {
				continue // drain without effect
			}
			if pkt.bytes > 0 {
				dev.WriteFlat(p, pkt.bytes)
				r.size += pkt.bytes
			}
		}
	})

	// Xceiver: receives packets, hands them to the disk writer, forwards
	// downstream, and finalizes the replica on the last packet. The
	// downstream hop rides one flow for the whole block.
	dn.fs.cl.Env.Spawn(fmt.Sprintf("dn%d.xceiver.b%d", dn.id, blk), func(p *sim.Proc) {
		defer r.done.Trigger()
		downstreamUp := next != nil
		var fwd *netsim.Flow
		sawLast := false
		for {
			pkt, ok := r.in.Get(p)
			if !ok {
				break // aborted by the upstream stage or client
			}
			wstore.PutWait(p, pkt)
			if downstreamUp {
				var err error
				if fwd == nil {
					fwd, err = dn.fs.net.StartFlowLegacy(dn.id, next.dn.id)
				}
				if err == nil {
					err = fwd.Write(p, pkt.bytes+packetHeader)
				}
				if err != nil {
					// Downstream died: stop forwarding; its stage aborts.
					downstreamUp = false
					next.in.Close()
				} else if !next.in.PutWait(p, pkt) {
					downstreamUp = false
				}
			}
			if pkt.last {
				sawLast = true
				break
			}
		}
		if fwd != nil {
			fwd.Close(p)
		}
		wstore.Close()
		writerDone.Wait(p)
		if !sawLast || dn.failed {
			// Aborted: propagate downstream and discard the partial replica.
			if downstreamUp {
				next.in.Close()
			}
			dev.Dealloc(dn.fs.cfg.BlockSize)
			return
		}
		// Return the unused part of the upfront reservation.
		dev.Dealloc(dn.fs.cfg.BlockSize - r.size)
		dn.addBlock(blk, r.size, dev)
		r.ok = true
		dn.fs.callNN(p, dn.id, "blockReceived", &nnBlockReceivedReq{dn: dn.id, id: blk, size: r.size})
	})
	return r
}

// abort tears down an in-progress receive from the client side.
func (r *blockRecv) abort() {
	r.in.Close()
}

// streamBlock spawns a read streamer that delivers size bytes of a block
// to the client node through the bounded store: window-sized segments
// over one flow for the whole block, with flat device reads. Errors
// (missing replica, node failure) surface as a packet with err set.
func (dn *DataNode) streamBlock(blk BlockID, client netsim.NodeID, out *sim.Store[packet]) {
	dn.fs.cl.Env.Spawn(fmt.Sprintf("dn%d.read.b%d", dn.id, blk), func(p *sim.Proc) {
		b, ok := dn.blocks[blk]
		if !ok || dn.failed {
			out.PutWait(p, packet{err: true})
			return
		}
		seg := dn.fs.cfg.flowSegment()
		var fl *netsim.Flow
		if client != dn.id {
			var err error
			if fl, err = dn.fs.net.StartFlowLegacy(dn.id, client); err != nil {
				out.PutWait(p, packet{err: true})
				return
			}
			defer fl.Close(p)
		}
		remaining := b.size
		for remaining > 0 {
			if dn.failed {
				out.PutWait(p, packet{err: true})
				return
			}
			n := min64(remaining, seg)
			b.dev.ReadFlat(p, n)
			if fl != nil {
				if err := fl.Write(p, n+packetHeader); err != nil {
					out.PutWait(p, packet{err: true})
					return
				}
			}
			remaining -= n
			if !out.PutWait(p, packet{bytes: n, last: remaining == 0}) {
				return // reader abandoned the stream
			}
		}
	})
}
