package hdfs

import (
	"fmt"

	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// maxBlockRetries bounds pipeline re-establishment attempts per block.
const maxBlockRetries = 3

// Create implements dfs.FileSystem.
func (h *HDFS) Create(p *sim.Proc, client netsim.NodeID, path string) (dfs.Writer, error) {
	err := h.nn.Call(p, client, func(*sim.Proc) (int64, error) { return 64, h.nsys.CreateFile(path) })
	if err != nil {
		return nil, err
	}
	return &hdfsWriter{fs: h, client: client, path: path}, nil
}

// hdfsWriter streams a file into HDFS through replication pipelines.
type hdfsWriter struct {
	fs     *HDFS
	client netsim.NodeID
	path   string

	pl           *writePipeline
	blockWritten int64
	total        int64
	closed       bool
	// exclude accumulates datanodes that failed pipelines for this file.
	exclude []netsim.NodeID
}

type writePipeline struct {
	id      BlockID
	targets []netsim.NodeID
	recvs   []*blockRecv
	// flow is the client's first-hop flow; nil when the client hosts the
	// first replica.
	flow *netsim.Flow
}

// openPipeline allocates a block and sets up the receive chain, retrying
// with failed targets excluded.
func (w *hdfsWriter) openPipeline(p *sim.Proc) error {
	for attempt := 0; attempt < maxBlockRetries; attempt++ {
		pl := &writePipeline{}
		err := w.fs.nn.Call(p, w.client, func(*sim.Proc) (n int64, err error) {
			pl.id, pl.targets, err = w.fs.nsys.AddBlock(w.path, w.client, w.exclude)
			return 64 + 16*int64(len(pl.targets)), err
		})
		if err != nil {
			return err
		}
		// Build the chain tail-first so each stage knows its downstream.
		recvs := make([]*blockRecv, len(pl.targets))
		okAll := true
		var next *blockRecv
		for i := len(pl.targets) - 1; i >= 0; i-- {
			dn := w.fs.dns[pl.targets[i]]
			var r *blockRecv
			if dn != nil {
				r = dn.receiveBlock(pl.id, next)
			}
			if r == nil {
				okAll = false
				break
			}
			recvs[i] = r
			next = r
		}
		if okAll {
			pl.recvs = recvs
			if w.client != pl.targets[0] {
				fl, err := w.fs.net.StartFlow(w.client, pl.targets[0], netsim.Legacy)
				if err != nil {
					okAll = false // first hop died under us: retry below
				} else {
					pl.flow = fl
				}
			}
			if okAll {
				w.pl = pl
				w.blockWritten = 0
				return nil
			}
		}
		// A target could not take the block: tear down what we built and
		// retry with it excluded.
		for _, r := range recvs {
			if r != nil {
				r.abort()
			}
		}
		w.abandon(p, pl)
		w.exclude = append(w.exclude, pl.targets...)
		w.fs.stats.PipelineRetries++
	}
	return fmt.Errorf("%w: could not establish pipeline for %q", dfs.ErrNoSpace, w.path)
}

// abandon tells the NameNode a pipeline's block will not be written: the
// block leaves the file and its targets' scheduled space is returned.
func (w *hdfsWriter) abandon(p *sim.Proc, pl *writePipeline) {
	w.fs.nn.Call(p, w.client, func(*sim.Proc) (int64, error) {
		w.fs.nsys.AbandonBlock(w.path, pl.id)
		w.fs.nsys.UnscheduleBlock(pl.targets)
		return 64, nil
	})
}

// Write implements dfs.Writer: it streams n logical bytes, opening blocks
// as needed and recovering from first-hop failures by rewriting the
// current block through a fresh pipeline.
func (w *hdfsWriter) Write(p *sim.Proc, n int64) error {
	if w.closed {
		return dfs.ErrClosed
	}
	for n > 0 {
		if w.pl == nil {
			if err := w.openPipeline(p); err != nil {
				return err
			}
		}
		room := w.fs.cfg.BlockSize - w.blockWritten
		m := min(n, room)
		if err := w.streamBytes(p, m); err != nil {
			// First-hop failure: abandon and rewrite this block elsewhere.
			if err2 := w.recoverBlock(p); err2 != nil {
				return err2
			}
			continue // retry the same n bytes on the new pipeline
		}
		w.blockWritten += m
		n -= m
		if w.blockWritten == w.fs.cfg.BlockSize {
			if err := w.finishBlock(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamBytes pushes m bytes of the current block down the pipeline in
// window-sized segments, each delivered over the first-hop flow.
func (w *hdfsWriter) streamBytes(p *sim.Proc, m int64) error {
	first := w.pl.targets[0]
	seg := w.fs.cfg.flowSegment()
	for m > 0 {
		n := min(m, seg)
		if w.pl.flow != nil {
			if err := w.pl.flow.Write(p, n+packetHeader); err != nil {
				return err
			}
		} else if dn := w.fs.dns[first]; dn != nil && dn.failed {
			return netsim.ErrNodeDown
		}
		if !w.pl.recvs[0].in.PutWait(p, dfs.Packet{Bytes: n}) {
			return netsim.ErrNodeDown
		}
		w.fs.stats.BytesWritten += n
		m -= n
	}
	return nil
}

// recoverBlock abandons the current pipeline (data already streamed into
// this block is discarded) and rebuilds it excluding the failed first hop;
// the caller then rewrites the block's bytes.
func (w *hdfsWriter) recoverBlock(p *sim.Proc) error {
	pl := w.pl
	w.pl = nil
	if pl.flow != nil {
		pl.flow.Close(p) // already aborted or moot; the error is the reason we are here
	}
	pl.recvs[0].abort()
	for _, r := range pl.recvs {
		r.done.Wait(p)
	}
	for _, t := range pl.targets {
		if dn := w.fs.dns[t]; dn != nil {
			dn.dropBlock(pl.id)
		}
	}
	w.abandon(p, pl)
	w.exclude = append(w.exclude, pl.targets[0])
	w.fs.stats.PipelineRetries++
	// Rewind: the whole block must be rewritten by the caller.
	rewind := w.blockWritten
	w.blockWritten = 0
	if err := w.openPipeline(p); err != nil {
		return err
	}
	if rewind > 0 {
		if err := w.streamBytes(p, rewind); err != nil {
			return fmt.Errorf("hdfs: pipeline failed again during recovery: %w", err)
		}
		w.blockWritten = rewind
	}
	return nil
}

// finishBlock sends the end-of-block marker, waits for replica acks, and
// commits the block size at the NameNode.
func (w *hdfsWriter) finishBlock(p *sim.Proc) error {
	pl := w.pl
	if pl.flow != nil {
		// The marker is the stream's last, empty packet. It can fail if
		// the first hop just died; treat it like a data-packet failure.
		if err := pl.flow.Write(p, packetHeader); err != nil {
			if err2 := w.recoverBlock(p); err2 != nil {
				return err2
			}
			return w.finishBlock(p)
		}
	}
	pl.recvs[0].in.PutWait(p, dfs.Packet{Last: true})
	acked := 0
	for _, r := range pl.recvs {
		r.done.Wait(p)
		if r.ok {
			acked++
		}
	}
	if pl.flow != nil {
		pl.flow.Close(p)
	}
	if acked == 0 {
		return fmt.Errorf("%w: no replica of block %d survived", dfs.ErrCorrupt, pl.id)
	}
	size := w.blockWritten
	err := w.fs.nn.Call(p, w.client, func(*sim.Proc) (int64, error) {
		return 64, w.fs.nsys.CommitBlock(w.path, pl.id, size)
	})
	if err != nil {
		return err
	}
	w.fs.stats.BlocksWritten++
	w.total += w.blockWritten
	w.pl = nil
	w.blockWritten = 0
	return nil
}

// Close implements dfs.Writer.
func (w *hdfsWriter) Close(p *sim.Proc) error {
	if w.closed {
		return dfs.ErrClosed
	}
	w.closed = true
	if w.pl != nil && w.blockWritten > 0 {
		if err := w.finishBlock(p); err != nil {
			return err
		}
	} else if w.pl != nil {
		// Empty trailing block: abandon it.
		if w.pl.flow != nil {
			w.pl.flow.Close(p)
		}
		w.pl.recvs[0].abort()
		for _, r := range w.pl.recvs {
			r.done.Wait(p)
		}
		w.abandon(p, w.pl)
		w.pl = nil
	}
	return w.fs.nn.Call(p, w.client, func(*sim.Proc) (int64, error) { return 64, w.fs.nsys.CompleteFile(w.path) })
}

// Open implements dfs.FileSystem.
func (h *HDFS) Open(p *sim.Proc, client netsim.NodeID, path string) (dfs.Reader, error) {
	blocks, err := h.getBlocks(p, client, path)
	if err != nil {
		return nil, err
	}
	r := &hdfsReader{fs: h, client: client, path: path, blocks: blocks}
	r.BlockStream = dfs.NewBlockStream[netsim.NodeID](r, len(blocks), 0)
	return r, nil
}

// hdfsReader streams a file out of HDFS. Its dfs.BlockStream reads each
// block from the node-local replica when there is one, else from a random
// live remote replica, and falls back to the block's other replicas when
// one fails.
type hdfsReader struct {
	dfs.BlockStream[netsim.NodeID]
	fs     *HDFS
	client netsim.NodeID
	path   string
	blocks []BlockInfo
}

// Size implements dfs.BlockSource.
func (r *hdfsReader) Size(i int) int64 { return r.blocks[i].Size }

// Fetch implements dfs.BlockSource: it starts a streamer for block i on
// the best untried live replica.
func (r *hdfsReader) Fetch(i int, tried map[netsim.NodeID]struct{}) (*sim.Store[dfs.Packet], error) {
	b := r.blocks[i]
	var choice netsim.NodeID = -1
	var remote []netsim.NodeID
	for _, loc := range b.Locations {
		if _, ok := tried[loc]; ok {
			continue
		}
		dn := r.fs.dns[loc]
		if dn == nil || dn.failed {
			continue
		}
		if loc == r.client {
			choice = loc
			break
		}
		remote = append(remote, loc)
	}
	if choice == -1 {
		if len(remote) == 0 {
			return nil, fmt.Errorf("%w: block %d of %q has no live replica", dfs.ErrCorrupt, b.ID, r.path)
		}
		choice = remote[r.fs.cl.Env.Rand().Intn(len(remote))]
	}
	tried[choice] = struct{}{}
	out := sim.NewBounded[dfs.Packet](windowPackets)
	r.fs.dns[choice].streamBlock(b.ID, r.client, out)
	return out, nil
}

// Note implements dfs.BlockSource.
func (r *hdfsReader) Note(e dfs.StreamEvent, n int64) {
	switch e {
	case dfs.Delivered:
		r.fs.stats.BytesRead += n
	case dfs.BlockDone:
		r.fs.stats.BlocksRead++
	case dfs.FellBack:
		r.fs.stats.ReplicaRetries++
	}
}
