package hdfs

import (
	"errors"
	"fmt"

	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// maxBlockRetries bounds pipeline re-establishment attempts per block.
const maxBlockRetries = 3

// Create implements dfs.FileSystem.
func (h *HDFS) Create(p *sim.Proc, client netsim.NodeID, path string) (dfs.Writer, error) {
	if rep := h.callNN(p, client, "create", path); rep.Err != nil {
		return nil, rep.Err
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
		rep := w.fs.callNN(p, w.client, "addBlock", &nnAddBlockReq{
			path: w.path, writer: w.client, exclude: w.exclude,
		})
		if rep.Err != nil {
			return rep.Err
		}
		resp := rep.Payload.(*nnAddBlockResp)
		// Build the chain tail-first so each stage knows its downstream.
		recvs := make([]*blockRecv, len(resp.targets))
		okAll := true
		var next *blockRecv
		for i := len(resp.targets) - 1; i >= 0; i-- {
			dn := w.fs.dns[resp.targets[i]]
			var r *blockRecv
			if dn != nil {
				r = dn.receiveBlock(resp.id, next)
			}
			if r == nil {
				okAll = false
				break
			}
			recvs[i] = r
			next = r
		}
		if okAll {
			pl := &writePipeline{id: resp.id, targets: resp.targets, recvs: recvs}
			if w.client != resp.targets[0] {
				fl, err := w.fs.net.StartFlowLegacy(w.client, resp.targets[0])
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
		w.fs.callNN(p, w.client, "abandonBlock", &nnAbandonReq{
			path: w.path, id: resp.id, targets: resp.targets,
		})
		w.exclude = append(w.exclude, resp.targets...)
		w.fs.stats.PipelineRetries++
	}
	return fmt.Errorf("%w: could not establish pipeline for %q", dfs.ErrNoSpace, w.path)
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
		m := min64(n, room)
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
		n := min64(m, seg)
		if w.pl.flow != nil {
			if err := w.pl.flow.Write(p, n+packetHeader); err != nil {
				return err
			}
		} else if dn := w.fs.dns[first]; dn != nil && dn.failed {
			return netsim.ErrNodeDown
		}
		if !w.pl.recvs[0].in.PutWait(p, packet{bytes: n}) {
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
	w.fs.callNN(p, w.client, "abandonBlock", &nnAbandonReq{path: w.path, id: pl.id, targets: pl.targets})
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
	first := pl.targets[0]
	if w.client != first {
		// The marker itself can fail if the first hop just died; treat it
		// like a data-packet failure.
		if err := w.fs.net.SendLegacy(p, w.client, first, packetHeader); err != nil {
			if err2 := w.recoverBlock(p); err2 != nil {
				return err2
			}
			return w.finishBlock(p)
		}
	}
	pl.recvs[0].in.PutWait(p, packet{last: true})
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
	rep := w.fs.callNN(p, w.client, "commitBlock", &nnCommitReq{path: w.path, id: pl.id, size: w.blockWritten})
	if rep.Err != nil {
		return rep.Err
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
		w.fs.callNN(p, w.client, "abandonBlock", &nnAbandonReq{path: w.path, id: w.pl.id, targets: w.pl.targets})
		w.pl = nil
	}
	return w.fs.callNN(p, w.client, "complete", w.path).Err
}

// Open implements dfs.FileSystem.
func (h *HDFS) Open(p *sim.Proc, client netsim.NodeID, path string) (dfs.Reader, error) {
	blocks, err := h.getBlocks(p, client, path)
	if err != nil {
		return nil, err
	}
	return &hdfsReader{fs: h, client: client, path: path, blocks: blocks}, nil
}

// hdfsReader streams a file out of HDFS, preferring node-local replicas
// and falling back to other replicas on failure.
type hdfsReader struct {
	fs     *HDFS
	client netsim.NodeID
	path   string
	blocks []BlockInfo
	idx    int
	closed bool

	fetch        *sim.Store[packet]
	pending      int64 // bytes received but not yet consumed
	consumedBlk  int64 // bytes of the current block already consumed
	triedReplica map[netsim.NodeID]struct{}
}

// startFetch launches a streamer for the current block from the best
// untried replica.
func (r *hdfsReader) startFetch(p *sim.Proc) error {
	b := r.blocks[r.idx]
	var choice netsim.NodeID = -1
	var remote []netsim.NodeID
	for _, loc := range b.Locations {
		if _, tried := r.triedReplica[loc]; tried {
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
			return fmt.Errorf("%w: block %d of %q has no live replica", dfs.ErrCorrupt, b.ID, r.path)
		}
		choice = remote[r.fs.cl.Env.Rand().Intn(len(remote))]
	}
	r.triedReplica[choice] = struct{}{}
	r.fetch = sim.NewBounded[packet](r.fs.cfg.WindowPackets)
	r.pending = 0
	r.consumedBlk = 0
	r.fs.dns[choice].streamBlock(b.ID, r.client, r.fetch)
	return nil
}

// Read implements dfs.Reader.
func (r *hdfsReader) Read(p *sim.Proc, n int64) (int64, error) {
	if r.closed {
		return 0, dfs.ErrClosed
	}
	var consumed int64
	for consumed < n {
		if r.idx >= len(r.blocks) {
			return consumed, nil // EOF
		}
		if r.fetch == nil {
			r.triedReplica = make(map[netsim.NodeID]struct{})
			if err := r.startFetch(p); err != nil {
				return consumed, err
			}
		}
		if r.pending == 0 {
			pkt, ok := r.fetch.Get(p)
			if !ok || pkt.err {
				// Replica failed mid-stream: retry the block from another
				// replica (the already-consumed prefix is re-fetched; we
				// approximate by restarting the stream and discarding the
				// prefix at no extra consumption).
				r.fs.stats.ReplicaRetries++
				skip := r.consumedBlk
				if err := r.startFetch(p); err != nil {
					return consumed, err
				}
				if err := r.discard(p, skip); err != nil {
					return consumed, err
				}
				r.consumedBlk = skip
				continue
			}
			r.pending += pkt.bytes
		}
		take := min64(n-consumed, r.pending)
		r.pending -= take
		r.consumedBlk += take
		consumed += take
		r.fs.stats.BytesRead += take
		if r.consumedBlk >= r.blocks[r.idx].Size {
			r.fs.stats.BlocksRead++
			r.fetch = nil
			r.idx++
		}
	}
	return consumed, nil
}

// discard consumes and drops n bytes from the current fetch (used when
// re-reading a block after a replica failure).
func (r *hdfsReader) discard(p *sim.Proc, n int64) error {
	for n > 0 {
		if r.pending == 0 {
			pkt, ok := r.fetch.Get(p)
			if !ok || pkt.err {
				return errors.New("hdfs: replica failed during re-read")
			}
			r.pending += pkt.bytes
		}
		take := min64(n, r.pending)
		r.pending -= take
		n -= take
	}
	return nil
}

// Close implements dfs.Reader. Any in-flight streamer drains into the
// bounded store and ends.
func (r *hdfsReader) Close(p *sim.Proc) error {
	if r.closed {
		return dfs.ErrClosed
	}
	r.closed = true
	if r.fetch != nil {
		// Abandon the stream: the streamer's next PutWait reports the drop
		// and it stops.
		r.fetch.Close()
		r.fetch = nil
	}
	return nil
}
