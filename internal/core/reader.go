package core

import (
	"fmt"

	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// Open implements dfs.FileSystem.
func (fs *Instance) Open(p *sim.Proc, client netsim.NodeID, path string) (dfs.Reader, error) {
	blocks, err := fs.getBlocks(p, client, path)
	if err != nil {
		return nil, err
	}
	r := &bbReader{fs: fs, client: client, path: path, blocks: blocks}
	r.BlockStream = dfs.NewBlockStream[string](r, len(blocks), fs.cfg.ReadAhead)
	return r, nil
}

// bbReader streams a file out of the burst buffer. Its dfs.BlockStream
// reads each block from the cheapest untried live source: node-local
// replica, then the RDMA buffer's replicas, then a remote local replica,
// then Lustre; a source failing mid-block falls back to the next.
// Config.ReadAhead blocks' fetches start while the current one streams,
// overlapping Lustre metadata and first-stripe latency with delivery.
type bbReader struct {
	dfs.BlockStream[string]
	fs     *Instance
	client netsim.NodeID
	path   string
	blocks []*bbBlock
}

// tried-set keys for the source kinds.
const (
	srcLocal       = "local"
	srcBuffer      = "buffer" // suffixed with the replica server name
	srcRemoteLocal = "remote-local"
	srcLustre      = "lustre"
)

// chooseSource picks the cheapest untried live source for a block; for
// buffered blocks every live in-buffer replica is a distinct source.
func (r *bbReader) chooseSource(b *bbBlock, tried map[string]struct{}) (string, *BufferServer, error) {
	try := func(s string) bool {
		_, done := tried[s]
		return !done
	}
	replica := b.localDev != nil && !r.fs.net.Down(b.localNode)
	if try(srcLocal) && b.localNode == r.client && replica {
		return srcLocal, nil, nil
	}
	if b.state == stateDirty || b.state == stateFlushing || b.state == stateClean {
		for _, s := range b.srvs {
			if !s.phys.failed && try(srcBuffer+":"+s.name) {
				return srcBuffer + ":" + s.name, s, nil
			}
		}
	}
	if try(srcRemoteLocal) && b.localNode >= 0 && replica {
		return srcRemoteLocal, nil, nil
	}
	if try(srcLustre) && b.lustrePath != "" {
		return srcLustre, nil, nil
	}
	return "", nil, fmt.Errorf("%w: block %d of %q (state %v) has no live source",
		dfs.ErrCorrupt, b.id, r.path, b.state)
}

// Size implements dfs.BlockSource.
func (r *bbReader) Size(i int) int64 { return r.blocks[i].size }

// Fetch implements dfs.BlockSource: it picks block i's best untried
// source, marks it tried, and starts its producer.
func (r *bbReader) Fetch(i int, tried map[string]struct{}) (*sim.Store[dfs.Packet], error) {
	b := r.blocks[i]
	src, srv, err := r.chooseSource(b, tried)
	if err != nil {
		return nil, err
	}
	tried[src] = struct{}{}
	out := sim.NewBounded[dfs.Packet](prefetchWindow)
	switch {
	case src == srcLocal:
		r.fs.stats.ReadsLocal++
		r.fs.metrics.Counter("read.src.local").Inc()
		r.produceLocal(b, out, true)
	case srv != nil:
		r.fs.stats.ReadsBuffer++
		r.fs.metrics.Counter("read.src.buffer").Inc()
		r.produceBuffer(b, srv, out)
	case src == srcRemoteLocal:
		r.fs.stats.ReadsLocal++
		r.fs.metrics.Counter("read.src.remote-local").Inc()
		r.produceLocal(b, out, false)
	default:
		r.fs.stats.ReadsLustre++
		r.fs.metrics.Counter("read.src.lustre").Inc()
		r.produceLustre(b, out)
		r.fs.maybeReadmit(r.client, b)
	}
	return out, nil
}

// Note implements dfs.BlockSource.
func (r *bbReader) Note(e dfs.StreamEvent, n int64) {
	switch e {
	case dfs.Delivered:
		r.fs.stats.BytesRead += n
	case dfs.Adopted:
		r.fs.metrics.Counter("read.prefetch.hits").Inc()
	}
}

// produceLocal streams a block from its node-local replica device, over
// the fabric when the reader is remote.
func (r *bbReader) produceLocal(b *bbBlock, out *sim.Store[dfs.Packet], isLocal bool) {
	fs := r.fs
	client := r.client
	fs.cl.Env.Spawn(fmt.Sprintf("bb.readlocal.b%d", b.id), func(q *sim.Proc) {
		for i := range b.chunks() {
			if b.localDev == nil || fs.net.Down(b.localNode) {
				out.PutWait(q, dfs.Packet{Err: true})
				return
			}
			n := b.chunk(i)
			b.localDev.ReadFlat(q, n)
			if !isLocal {
				if err := fs.net.Transfer(q, b.localNode, client, n+64, netsim.Native); err != nil {
					out.PutWait(q, dfs.Packet{Err: true})
					return
				}
			}
			if !out.PutWait(q, dfs.Packet{Bytes: n}) {
				return
			}
		}
	})
}

// produceBuffer streams a block from one RDMA-Memcached replica server
// with a small pool of parallel fetchers to hide per-chunk latency.
func (r *bbReader) produceBuffer(b *bbBlock, srv *BufferServer, out *sim.Store[dfs.Packet]) {
	fs := r.fs
	client := r.client
	chunks := b.chunks()
	fetchers := min(4, chunks)
	if fetchers == 0 {
		out.Put(dfs.Packet{})
		return
	}
	for f := 0; f < fetchers; f++ {
		f := f
		fs.cl.Env.Spawn(fmt.Sprintf("bb.readbuf.b%d.%d", b.id, f), func(q *sim.Proc) {
			for i := f; i < chunks; i += fetchers {
				if srv.phys.failed {
					out.PutWait(q, dfs.Packet{Err: true})
					return
				}
				n, err := srv.getChunk(q, client, b, i)
				if err != nil {
					out.PutWait(q, dfs.Packet{Err: true})
					return
				}
				if !out.PutWait(q, dfs.Packet{Bytes: n}) {
					return
				}
			}
		})
	}
}

// produceLustre streams a block from its backing Lustre object.
func (r *bbReader) produceLustre(b *bbBlock, out *sim.Store[dfs.Packet]) {
	fs := r.fs
	client := r.client
	fs.cl.Env.Spawn(fmt.Sprintf("bb.readlustre.b%d", b.id), func(q *sim.Proc) {
		lr, err := fs.backing.OpenRange(q, client, b.lustrePath, b.lustreOff, b.size)
		if err != nil {
			out.PutWait(q, dfs.Packet{Err: true})
			return
		}
		defer lr.Close(q)
		remaining := b.size
		for remaining > 0 {
			n, err := lr.Read(q, min(remaining, fs.cfg.ItemChunk))
			if err != nil || n == 0 {
				out.PutWait(q, dfs.Packet{Err: true})
				return
			}
			remaining -= n
			if !out.PutWait(q, dfs.Packet{Bytes: n}) {
				return
			}
		}
	})
}

// maybeReadmit re-admits an evicted block into the buffer as a clean cache
// fill after a Lustre read, when configured: the client SETs the block's
// chunks to the ring's owner.
func (fs *Instance) maybeReadmit(client netsim.NodeID, b *bbBlock) {
	if !fs.cfg.ReadmitOnRead {
		return
	}
	fs.fillClean(b, "readmit", nil, func(q *sim.Proc, s *BufferServer) bool {
		for i := range b.chunks() {
			if s.phys.failed || b.state == stateDeleted {
				return false
			}
			if s.setChunk(q, client, b.chunk(i)) != nil {
				return false
			}
		}
		return true
	})
}

// Prestage pulls a file's evicted blocks from Lustre back into the burst
// buffer ahead of a job (burst-buffer stage-in). Each block is fetched by
// its ring-assigned server directly from Lustre and admitted as clean;
// blocks already buffered are left alone, and blocks that would not fit
// under the watermark are skipped rather than stalling. It returns the
// number of blocks staged.
func (fs *Instance) Prestage(p *sim.Proc, client netsim.NodeID, path string) (int, error) {
	blocks, err := fs.getBlocks(p, client, path)
	if err != nil {
		return 0, err
	}
	staged := 0
	var wg sim.WaitGroup
	for _, b := range blocks {
		ok, err := fs.fillClean(b, "stagein", &wg, func(q *sim.Proc, s *BufferServer) bool {
			return fs.stageInBlock(q, s, b)
		})
		if err != nil {
			return staged, err
		}
		if ok {
			staged++
		}
	}
	wg.Wait(p)
	return staged, nil
}

// fillClean is the one admission of an evicted block as a clean cache
// fill (read re-admission and stage-in). When the ring's owner is live
// and its share has headroom, it reserves the block's bytes there, so
// concurrent fills cannot overshoot the share, and spawns copyIn to move
// the chunks; at the end the reservation is given back and, if the copy
// succeeded and the block is still evicted, admitClean takes the
// footprint. It reports whether it started a fill; wg, when non-nil,
// counts the fill until it ends.
func (fs *Instance) fillClean(b *bbBlock, kind string, wg *sim.WaitGroup, copyIn func(q *sim.Proc, s *BufferServer) bool) (bool, error) {
	if b.state != stateEvicted || len(b.srvs) != 0 || b.readmitting || b.lustrePath == "" {
		return false, nil
	}
	srvs, err := fs.pickServers(b.key)
	if err != nil {
		return false, err
	}
	s := srvs[0]
	if s.phys.failed || s.bytes+b.size > s.budget() {
		return false, nil
	}
	b.readmitting = true
	b.takeShare(s, b.size)
	if wg != nil {
		wg.Add(1)
	}
	fs.cl.Env.Spawn(fmt.Sprintf("bb.%s.b%d", kind, b.id), func(q *sim.Proc) {
		if wg != nil {
			defer wg.Done()
		}
		defer func() { b.readmitting = false }()
		ok := copyIn(q, s)
		if _, held := s.holders[b]; held { // unless a crash or delete released it
			b.releaseShare(s) // admitClean takes the footprint
		}
		if ok && b.state == stateEvicted && !s.phys.failed {
			s.admitClean(b)
		}
	})
	return true, nil
}

// stageInBlock copies one block Lustre -> buffer server, charging the
// server-side Lustre read and the ingest pipe.
func (fs *Instance) stageInBlock(p *sim.Proc, s *BufferServer, b *bbBlock) bool {
	lr, err := fs.backing.OpenRange(p, s.phys.node, b.lustrePath, b.lustreOff, b.size)
	if err != nil {
		return false
	}
	defer lr.Close(p)
	for i := range b.chunks() {
		if s.phys.failed || b.state == stateDeleted {
			return false
		}
		n := b.chunk(i)
		got, err := lr.Read(p, n)
		if err != nil || got != n {
			return false
		}
		s.phys.ingest.TransferFlat(p, n)
		if s.phys.set(p, s.phys.node) != nil {
			return false
		}
	}
	return true
}
