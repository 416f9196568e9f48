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
	return &bbReader{fs: fs, client: client, path: path, blocks: blocks}, nil
}

// bbReader streams a file out of the burst buffer, choosing per block the
// cheapest untried live source: node-local replica, then the RDMA buffer,
// then a remote local replica, then Lustre. Mid-block failures fall back
// to the next source, re-fetching the consumed prefix.
type bbReader struct {
	fs     *Instance
	client netsim.NodeID
	path   string
	blocks []*bbBlock
	idx    int
	closed bool

	fetch       *sim.Store[packet]
	pending     int64
	consumedBlk int64
	tried       map[string]struct{}
	// ahead holds prefetched fetch streams by block index
	// (Config.ReadAhead > 0): the next blocks' source choice and producers
	// start while the current block streams, overlapping Lustre metadata
	// and first-stripe latency with delivery.
	ahead map[int]aheadFetch
}

// aheadFetch is one prefetched block stream and the source it came from
// (so a mid-stream fallback knows what was already tried).
type aheadFetch struct {
	fetch *sim.Store[packet]
	src   string
}

// packet mirrors the HDFS streaming unit: a byte count or an error marker.
type packet struct {
	bytes int64
	err   bool
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

// launchFetch picks the best untried source for a block, marks it tried,
// and starts its producer, returning the source key and packet stream.
func (r *bbReader) launchFetch(b *bbBlock, tried map[string]struct{}) (string, *sim.Store[packet], error) {
	src, srv, err := r.chooseSource(b, tried)
	if err != nil {
		return "", nil, err
	}
	tried[src] = struct{}{}
	out := sim.NewBounded[packet](prefetchWindow)
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
	return src, out, nil
}

// startFetch launches the producer for the current block's chosen source.
func (r *bbReader) startFetch(p *sim.Proc) error {
	_, out, err := r.launchFetch(r.blocks[r.idx], r.tried)
	if err != nil {
		return err
	}
	r.fetch = out
	r.pending = 0
	return nil
}

// prefetchAhead keeps Config.ReadAhead upcoming blocks' fetches in flight
// while the current block streams. A block with no live source yet is left
// for the foreground read to surface (or retry once flushes land).
func (r *bbReader) prefetchAhead() {
	n := r.fs.cfg.ReadAhead
	if n <= 0 {
		return
	}
	for i := r.idx + 1; i <= r.idx+n && i < len(r.blocks); i++ {
		if _, ok := r.ahead[i]; ok {
			continue
		}
		b := r.blocks[i]
		if b.size == 0 {
			continue
		}
		src, out, err := r.launchFetch(b, make(map[string]struct{}))
		if err != nil {
			return
		}
		if r.ahead == nil {
			r.ahead = make(map[int]aheadFetch)
		}
		r.ahead[i] = aheadFetch{fetch: out, src: src}
	}
}

// produceLocal streams a block from its node-local replica device, over
// the fabric when the reader is remote.
func (r *bbReader) produceLocal(b *bbBlock, out *sim.Store[packet], isLocal bool) {
	fs := r.fs
	client := r.client
	fs.cl.Env.Spawn(fmt.Sprintf("bb.readlocal.b%d", b.id), func(q *sim.Proc) {
		for i := range b.chunks() {
			if b.localDev == nil || fs.net.Down(b.localNode) {
				out.PutWait(q, packet{err: true})
				return
			}
			n := b.chunk(i)
			b.localDev.ReadFlat(q, n)
			if !isLocal {
				if err := fs.net.Transfer(q, b.localNode, client, n+64, netsim.Native); err != nil {
					out.PutWait(q, packet{err: true})
					return
				}
			}
			if !out.PutWait(q, packet{bytes: n}) {
				return
			}
		}
	})
}

// produceBuffer streams a block from one RDMA-Memcached replica server
// with a small pool of parallel fetchers to hide per-chunk latency.
func (r *bbReader) produceBuffer(b *bbBlock, srv *BufferServer, out *sim.Store[packet]) {
	fs := r.fs
	client := r.client
	chunks := b.chunks()
	fetchers := min(4, chunks)
	if fetchers == 0 {
		out.Put(packet{})
		return
	}
	for f := 0; f < fetchers; f++ {
		f := f
		fs.cl.Env.Spawn(fmt.Sprintf("bb.readbuf.b%d.%d", b.id, f), func(q *sim.Proc) {
			for i := f; i < chunks; i += fetchers {
				if srv.phys.failed {
					out.PutWait(q, packet{err: true})
					return
				}
				n, err := srv.getChunk(q, client, b, i)
				if err != nil {
					out.PutWait(q, packet{err: true})
					return
				}
				if !out.PutWait(q, packet{bytes: n}) {
					return
				}
			}
		})
	}
}

// produceLustre streams a block from its backing Lustre object.
func (r *bbReader) produceLustre(b *bbBlock, out *sim.Store[packet]) {
	fs := r.fs
	client := r.client
	fs.cl.Env.Spawn(fmt.Sprintf("bb.readlustre.b%d", b.id), func(q *sim.Proc) {
		lr, err := fs.backing.OpenRange(q, client, b.lustrePath, b.lustreOff, b.size)
		if err != nil {
			out.PutWait(q, packet{err: true})
			return
		}
		defer lr.Close(q)
		remaining := b.size
		for remaining > 0 {
			n, err := lr.Read(q, min(remaining, fs.cfg.ItemChunk))
			if err != nil || n == 0 {
				out.PutWait(q, packet{err: true})
				return
			}
			remaining -= n
			if !out.PutWait(q, packet{bytes: n}) {
				return
			}
		}
	})
}

// Read implements dfs.Reader.
func (r *bbReader) Read(p *sim.Proc, n int64) (int64, error) {
	if r.closed {
		return 0, dfs.ErrClosed
	}
	var consumed int64
	for consumed < n {
		if r.idx >= len(r.blocks) {
			return consumed, nil // EOF
		}
		b := r.blocks[r.idx]
		if b.size == 0 {
			r.idx++
			continue
		}
		if r.fetch == nil {
			r.consumedBlk = 0
			if pf, ok := r.ahead[r.idx]; ok {
				// The block's fetch was prefetched while its predecessor
				// streamed; adopt it.
				delete(r.ahead, r.idx)
				r.tried = map[string]struct{}{pf.src: {}}
				r.fetch = pf.fetch
				r.pending = 0
				r.fs.metrics.Counter("read.prefetch.hits").Inc()
			} else {
				r.tried = make(map[string]struct{})
				if err := r.startFetch(p); err != nil {
					return consumed, err
				}
			}
			r.prefetchAhead()
		}
		if r.pending == 0 {
			pkt, _ := r.fetch.Get(p)
			if pkt.err {
				// Source failed mid-stream: fall back and skip the prefix.
				skip := r.consumedBlk
				if err := r.startFetch(p); err != nil {
					return consumed, err
				}
				if err := r.discard(p, skip); err != nil {
					return consumed, err
				}
				continue
			}
			r.pending += pkt.bytes
		}
		take := min(n-consumed, r.pending)
		r.pending -= take
		r.consumedBlk += take
		consumed += take
		r.fs.stats.BytesRead += take
		if r.consumedBlk >= b.size {
			r.abandonFetch()
			r.idx++
		}
	}
	return consumed, nil
}

// discard drops n bytes from the current fetch (fallback prefix skip).
func (r *bbReader) discard(p *sim.Proc, n int64) error {
	for n > 0 {
		if r.pending == 0 {
			pkt, _ := r.fetch.Get(p)
			if pkt.err {
				if err := r.startFetch(p); err != nil {
					return err
				}
				n = r.consumedBlk
				continue
			}
			r.pending += pkt.bytes
		}
		take := min(n, r.pending)
		r.pending -= take
		n -= take
	}
	return nil
}

// abandonFetch releases the current producer.
func (r *bbReader) abandonFetch() {
	if r.fetch != nil {
		r.fetch.Close()
		r.fetch = nil
	}
	r.pending = 0
}

// Close implements dfs.Reader.
func (r *bbReader) Close(p *sim.Proc) error {
	if r.closed {
		return dfs.ErrClosed
	}
	r.closed = true
	r.abandonFetch()
	for i, pf := range r.ahead {
		pf.fetch.Close()
		delete(r.ahead, i)
	}
	return nil
}

// maybeReadmit re-admits an evicted block into the buffer as a clean cache
// fill after a Lustre read, when configured and when the ring's owner has
// headroom (cache fills never stall or evict).
func (fs *Instance) maybeReadmit(client netsim.NodeID, b *bbBlock) {
	if !fs.cfg.ReadmitOnRead || b.state != stateEvicted || len(b.srvs) != 0 || b.readmitting {
		return
	}
	srvs, err := fs.pickServers(b.key)
	if err != nil {
		return
	}
	s := srvs[0]
	if s.phys.failed || s.bytes+b.size > s.budget() {
		return
	}
	b.readmitting = true
	fs.cl.Env.Spawn(fmt.Sprintf("bb.readmit.b%d", b.id), func(q *sim.Proc) {
		defer func() { b.readmitting = false }()
		for i := range b.chunks() {
			if s.phys.failed || b.state == stateDeleted {
				return
			}
			if err := s.setChunk(q, client, b.chunk(i)); err != nil {
				return
			}
		}
		if b.state != stateEvicted || s.phys.failed {
			return
		}
		s.admitClean(b)
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
		b := b
		if b.state != stateEvicted || b.readmitting || b.lustrePath == "" {
			continue
		}
		srvs, err := fs.pickServers(b.key)
		if err != nil {
			return staged, err
		}
		s := srvs[0]
		if s.phys.failed || s.bytes+b.size > s.budget() {
			continue
		}
		b.readmitting = true
		b.takeShare(s, b.size) // reserve so concurrent stage-ins don't overshoot
		staged++
		wg.Add(1)
		fs.cl.Env.Spawn(fmt.Sprintf("bb.stagein.b%d", b.id), func(q *sim.Proc) {
			defer wg.Done()
			defer func() { b.readmitting = false }()
			ok := fs.stageInBlock(q, s, b)
			if _, held := s.holders[b]; held { // unless a crash or delete released it
				b.releaseShare(s) // admitClean takes the footprint
			}
			if !ok || b.state != stateEvicted || s.phys.failed {
				return
			}
			s.admitClean(b)
		})
	}
	wg.Wait(p)
	return staged, nil
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
