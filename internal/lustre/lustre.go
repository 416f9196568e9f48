// Package lustre models a Lustre-like parallel file system: a metadata
// server (MDS) and a pool of object storage targets (OSTs) that files are
// striped across. All compute nodes share the same OST pool, so aggregate
// Lustre bandwidth is a cluster-wide resource — the contention behaviour
// that motivates the paper's burst buffer. Clients keep a bounded window
// of RPCs in flight per stream (mirroring Lustre's max_rpcs_in_flight), so
// a single stream overlaps network and OST device time across stripes.
package lustre

import (
	"fmt"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
	"hbb/internal/storage"
)

// mdsService is the fabric service name of the MDS.
const mdsService = "lustre.mds"

// rpcHeader is the nominal wire overhead per bulk RPC.
const rpcHeader = 128

// Config parametrizes the file system.
type Config struct {
	// OSTs is the number of object storage targets. Zero defaults to 8.
	OSTs int
	// StripeSize is the striping unit. Zero defaults to 1 MiB.
	StripeSize int64
	// StripeCount is the default stripe width per file (number of OSTs a
	// file spreads over). Zero defaults to 4; negative means all OSTs.
	StripeCount int
	// OSTCapacity bounds each OST (0 = unlimited).
	OSTCapacity int64
}

const (
	// mdsOpLatency is the metadata-op processing cost (Lustre metadata ops
	// are heavier than HDFS NameNode ops).
	mdsOpLatency = 500 * time.Microsecond
	// rpcsInFlight bounds outstanding bulk RPCs per client stream.
	rpcsInFlight = 8
)

func (c Config) withDefaults() Config {
	if c.OSTs == 0 {
		c.OSTs = 8
	}
	if c.StripeSize == 0 {
		c.StripeSize = 1 << 20
	}
	if c.StripeCount == 0 {
		c.StripeCount = 4
	}
	if c.StripeCount < 0 || c.StripeCount > c.OSTs {
		c.StripeCount = c.OSTs
	}
	return c
}

// Validate rejects configurations that would divide by zero or stall
// later in the data plane. It is applied after defaulting, so a zero
// value is fine (it means "use the default") but an explicit negative is
// not.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.OSTs < 1 {
		return fmt.Errorf("lustre: OSTs must be at least 1, got %d", c.OSTs)
	}
	if d.StripeSize <= 0 {
		return fmt.Errorf("lustre: StripeSize must be positive, got %d", c.StripeSize)
	}
	return nil
}

// layout is the per-file stripe layout stored in the namespace tree.
type layout struct {
	startOST    int
	stripeCount int
	// allocated counts the OST bytes the file's writer holds. It equals
	// the size once the file is closed, and it is what a delete frees: an
	// object abandoned before Close still holds its stripes.
	allocated int64
}

// Stats aggregates data-plane traffic.
type Stats struct {
	BytesWritten int64
	BytesRead    int64
	FilesCreated int64
}

type ost struct {
	node netsim.NodeID
	dev  *storage.Device
}

// Lustre is the assembled parallel file system. It implements
// dfs.FileSystem.
type Lustre struct {
	cfg     Config
	cl      *cluster.Cluster
	net     *netsim.Network
	MDSNode netsim.NodeID
	osts    []*ost
	tree    *dfs.Tree
	nextOST int
	stats   Stats
}

var _ dfs.FileSystem = (*Lustre)(nil)

// New assembles a Lustre over the cluster's fabric: one MDS host plus one
// object storage server host per OST.
func New(cl *cluster.Cluster, cfg Config) *Lustre {
	cfg = cfg.withDefaults()
	l := &Lustre{
		cfg:     cfg,
		cl:      cl,
		net:     cl.Net,
		MDSNode: cl.Net.AddNode(),
		tree:    dfs.NewTree(),
	}
	for i := 0; i < cfg.OSTs; i++ {
		l.osts = append(l.osts, &ost{
			node: cl.Net.AddNode(),
			dev:  storage.NewDevice(fmt.Sprintf("ost%d", i), storage.OSTProfile(cfg.OSTCapacity)),
		})
	}
	l.net.Register(l.MDSNode, mdsService, l.handleMDS)
	return l
}

// Name implements dfs.FileSystem.
func (l *Lustre) Name() string { return "lustre" }

// Stats returns data-plane counters.
func (l *Lustre) Stats() Stats { return l.stats }

// Config returns the effective configuration.
func (l *Lustre) Config() Config { return l.cfg }

// OSTDevices exposes the OST devices (tests and utilization reports).
func (l *Lustre) OSTDevices() []*storage.Device {
	out := make([]*storage.Device, len(l.osts))
	for i, o := range l.osts {
		out[i] = o.dev
	}
	return out
}

// AggregateBandwidth returns the OST pool's total write bandwidth.
func (l *Lustre) AggregateBandwidth() float64 {
	var total float64
	for _, o := range l.osts {
		total += o.dev.Profile().WriteBW
	}
	return total
}

func fileLayout(f *dfs.TreeFile) *layout {
	return f.Data.(*layout)
}

// handleMDS serves metadata operations.
func (l *Lustre) handleMDS(p *sim.Proc, m *netsim.Msg) netsim.Reply {
	p.Sleep(mdsOpLatency)
	switch m.Op {
	case "create":
		f, err := l.tree.CreateFile(m.Payload.(string))
		if err != nil {
			return netsim.Reply{Size: 64, Err: err}
		}
		f.Data = &layout{startOST: l.nextOST, stripeCount: l.cfg.StripeCount}
		l.nextOST = (l.nextOST + l.cfg.StripeCount) % len(l.osts)
		l.stats.FilesCreated++
		return netsim.Reply{Size: 128, Payload: f}
	case "open":
		f, err := l.tree.GetFile(m.Payload.(string))
		if err != nil {
			return netsim.Reply{Size: 64, Err: err}
		}
		if f.UnderConstruction {
			return netsim.Reply{Size: 64, Err: fmt.Errorf("%w: %q", dfs.ErrReadOnly, f.Path)}
		}
		return netsim.Reply{Size: 128, Payload: f}
	case "complete":
		req := m.Payload.(*mdsCompleteReq)
		f, err := l.tree.GetFile(req.path)
		if err != nil {
			return netsim.Reply{Size: 64, Err: err}
		}
		f.Size = req.size
		f.UnderConstruction = false
		return netsim.Reply{Size: 64}
	case "mkdir":
		return netsim.Reply{Size: 64, Err: l.tree.MkdirAll(m.Payload.(string))}
	case "stat":
		fi, err := l.tree.Stat(m.Payload.(string))
		return netsim.Reply{Size: 128, Payload: fi, Err: err}
	case "list":
		fis, err := l.tree.List(m.Payload.(string))
		return netsim.Reply{Size: 64 + int64(len(fis))*64, Payload: fis, Err: err}
	case "delete":
		f, err := l.tree.Remove(m.Payload.(string))
		if err != nil {
			return netsim.Reply{Size: 64, Err: err}
		}
		if f != nil && f.Data != nil {
			l.releaseStripes(f)
		}
		return netsim.Reply{Size: 64}
	default:
		return netsim.Reply{Err: fmt.Errorf("lustre: unknown MDS op %q", m.Op)}
	}
}

type mdsCompleteReq struct {
	path string
	size int64
}

// releaseStripes returns a deleted file's space to its OSTs, chunk by
// chunk along the stripe pattern.
func (l *Lustre) releaseStripes(f *dfs.TreeFile) {
	lo := fileLayout(f)
	remaining := lo.allocated
	for i := 0; remaining > 0; i++ {
		n := remaining
		if n > l.cfg.StripeSize {
			n = l.cfg.StripeSize
		}
		l.ostFor(lo, i).dev.Dealloc(n)
		remaining -= n
	}
}

// ostFor returns the OST serving stripe chunk i of a file.
func (l *Lustre) ostFor(lo *layout, chunk int) *ost {
	return l.osts[(lo.startOST+chunk%lo.stripeCount)%len(l.osts)]
}

func (l *Lustre) callMDS(p *sim.Proc, from netsim.NodeID, op string, payload any) netsim.Reply {
	return l.net.Call(p, &netsim.Msg{
		From: from, To: l.MDSNode, Service: mdsService, Op: op,
		Size: 256, Payload: payload,
	})
}

// Mkdir implements dfs.FileSystem.
func (l *Lustre) Mkdir(p *sim.Proc, client netsim.NodeID, path string) error {
	return l.callMDS(p, client, "mkdir", path).Err
}

// Stat implements dfs.FileSystem.
func (l *Lustre) Stat(p *sim.Proc, client netsim.NodeID, path string) (dfs.FileInfo, error) {
	rep := l.callMDS(p, client, "stat", path)
	if rep.Err != nil {
		return dfs.FileInfo{}, rep.Err
	}
	return rep.Payload.(dfs.FileInfo), nil
}

// List implements dfs.FileSystem.
func (l *Lustre) List(p *sim.Proc, client netsim.NodeID, dir string) ([]dfs.FileInfo, error) {
	rep := l.callMDS(p, client, "list", dir)
	if rep.Err != nil {
		return nil, rep.Err
	}
	return rep.Payload.([]dfs.FileInfo), nil
}

// Delete implements dfs.FileSystem.
func (l *Lustre) Delete(p *sim.Proc, client netsim.NodeID, path string) error {
	return l.callMDS(p, client, "delete", path).Err
}

// BlockLocations implements dfs.FileSystem. Lustre data lives on shared
// servers, so no node-local hosts are ever reported; the scheduler treats
// every task as rack-remote, which is exactly Hadoop-over-Lustre behaviour.
func (l *Lustre) BlockLocations(p *sim.Proc, client netsim.NodeID, path string) ([]dfs.BlockLocation, error) {
	fi, err := l.Stat(p, client, path)
	if err != nil {
		return nil, err
	}
	// Report logical 128 MiB ranges so MapReduce split logic has
	// boundaries to work with.
	const logical = 128 << 20
	var out []dfs.BlockLocation
	for off := int64(0); off < fi.Size; off += logical {
		n := fi.Size - off
		if n > logical {
			n = logical
		}
		out = append(out, dfs.BlockLocation{Offset: off, Length: n})
	}
	return out, nil
}

// Create implements dfs.FileSystem.
func (l *Lustre) Create(p *sim.Proc, client netsim.NodeID, path string) (dfs.Writer, error) {
	rep := l.callMDS(p, client, "create", path)
	if rep.Err != nil {
		return nil, rep.Err
	}
	f := rep.Payload.(*dfs.TreeFile)
	w := &lustreWriter{
		fs: l, client: client, file: f,
		window: sim.NewSemaphore(rpcsInFlight),
	}
	w.stripeDone = w.finishStripe
	return w, nil
}

// lustreWriter streams a file onto the OST pool with a bounded RPC window.
type lustreWriter struct {
	fs     *Lustre
	client netsim.NodeID
	file   *dfs.TreeFile
	window *sim.Semaphore
	wg     sim.WaitGroup
	offset int64
	closed bool
	ioErr  error
	// stripeDone is finishStripe bound once, so a stripe write allocates
	// no completion of its own.
	stripeDone func()
}

// finishStripe retires one stripe write: its place in the RPC window and
// its count in the writes Close waits for.
func (w *lustreWriter) finishStripe() {
	w.window.Release(1)
	w.wg.Done()
}

// Write implements dfs.Writer.
func (w *lustreWriter) Write(p *sim.Proc, n int64) error {
	if w.closed {
		return dfs.ErrClosed
	}
	lo := fileLayout(w.file)
	for n > 0 {
		if w.ioErr != nil {
			return w.ioErr
		}
		// The offset places the bytes, as readers and releaseStripes do: a
		// write fills the stripe it lands in before the next one starts.
		stripe := w.fs.cfg.StripeSize
		m := min64(n, stripe-w.offset%stripe)
		o := w.fs.ostFor(lo, int(w.offset/stripe))
		if err := o.dev.Alloc(m); err != nil {
			return fmt.Errorf("%w: %v", dfs.ErrNoSpace, err)
		}
		lo.allocated += m
		w.window.Acquire(p, 1)
		// The bulk RPC to the OST paces the client; the OST-side device
		// write proceeds asynchronously within the window.
		if err := w.fs.net.Transfer(p, w.client, o.node, m+rpcHeader, netsim.Native); err != nil {
			w.window.Release(1)
			o.dev.Dealloc(m)
			lo.allocated -= m
			return err
		}
		w.wg.Add(1)
		// A stripe write never blocks on a primitive (latency, then one
		// flat reservation), so it runs as callbacks; a stripe read stays a
		// process because it blocks on its flow to the client.
		o.dev.StartWriteFlat(w.fs.cl.Env, m, w.stripeDone)
		w.fs.stats.BytesWritten += m
		w.offset += m
		n -= m
	}
	return nil
}

// Close implements dfs.Writer: waits for outstanding OST writes, then
// records the size at the MDS.
func (w *lustreWriter) Close(p *sim.Proc) error {
	if w.closed {
		return dfs.ErrClosed
	}
	w.closed = true
	w.wg.Wait(p)
	return w.fs.callMDS(p, w.client, "complete", &mdsCompleteReq{path: w.file.Path, size: w.offset}).Err
}

// Open implements dfs.FileSystem: a stream over the whole file.
func (l *Lustre) Open(p *sim.Proc, client netsim.NodeID, path string) (dfs.Reader, error) {
	rep := l.callMDS(p, client, "open", path)
	if rep.Err != nil {
		return nil, rep.Err
	}
	f := rep.Payload.(*dfs.TreeFile)
	return l.newReader(client, f, 0, f.Size), nil
}

// OpenRange returns a streaming reader over [offset, offset+length) of a
// file — the stage-out path stores many blocks in one object, so readers
// need windowed streaming from an interior offset. The reader charges
// exactly the stripes overlapping the range, starting mid-stripe when the
// offset is unaligned, with the same bounded prefetch window as Open.
func (l *Lustre) OpenRange(p *sim.Proc, client netsim.NodeID, path string, offset, length int64) (dfs.Reader, error) {
	rep := l.callMDS(p, client, "open", path)
	if rep.Err != nil {
		return nil, rep.Err
	}
	f := rep.Payload.(*dfs.TreeFile)
	if offset < 0 || length < 0 || offset+length > f.Size {
		return nil, fmt.Errorf("%w: range [%d,%d) of %d-byte file", dfs.ErrShortRead, offset, offset+length, f.Size)
	}
	return l.newReader(client, f, offset, length), nil
}

// newReader builds the streaming reader over [offset, offset+length) of
// an opened file.
func (l *Lustre) newReader(client netsim.NodeID, f *dfs.TreeFile, offset, length int64) *lustreReader {
	return &lustreReader{
		fs: l, client: client, file: f,
		remainingIssue: length,
		remainingRead:  length,
		limit:          length,
		chunk:          int(offset / l.cfg.StripeSize),
		stripeSkip:     offset % l.cfg.StripeSize,
		in:             sim.NewStore[stripeFetch](),
		window:         sim.NewSemaphore(rpcsInFlight),
	}
}

// ReadRange implements dfs.RangeReader: it charges exactly the stripes
// overlapping [offset, offset+length) — MDS lookup, OST reads, and the
// transfer to the client.
func (l *Lustre) ReadRange(p *sim.Proc, client netsim.NodeID, path string, offset, length int64) error {
	rep := l.callMDS(p, client, "open", path)
	if rep.Err != nil {
		return rep.Err
	}
	f := rep.Payload.(*dfs.TreeFile)
	if offset < 0 || length < 0 || offset+length > f.Size {
		return fmt.Errorf("%w: range [%d,%d) of %d-byte file", dfs.ErrShortRead, offset, offset+length, f.Size)
	}
	lo := fileLayout(f)
	chunk := int(offset / l.cfg.StripeSize)
	skip := offset % l.cfg.StripeSize
	for length > 0 {
		n := min64(length, l.cfg.StripeSize-skip)
		skip = 0
		o := l.ostFor(lo, chunk)
		o.dev.ReadFlat(p, n)
		if client != o.node {
			if err := l.net.Transfer(p, o.node, client, n+rpcHeader, netsim.Native); err != nil {
				return err
			}
		}
		l.stats.BytesRead += n
		length -= n
		chunk++
	}
	return nil
}

// stripeFetch is the outcome of one prefetched stripe chunk: its length,
// or the transfer error that kept it from arriving.
type stripeFetch struct {
	bytes int64
	err   error
}

// lustreReader streams a file off the OST pool with a bounded prefetch
// window.
type lustreReader struct {
	fs             *Lustre
	client         netsim.NodeID
	file           *dfs.TreeFile
	window         *sim.Semaphore
	in             *sim.Store[stripeFetch]
	remainingIssue int64
	remainingRead  int64
	// limit is the total bytes this reader may deliver (file size for
	// Open, range length for OpenRange).
	limit int64
	chunk int
	// stripeSkip is the unconsumed prefix of the first stripe chunk when
	// the stream starts at an unaligned offset (OpenRange); zero after the
	// first issue.
	stripeSkip int64
	pending    int64
	closed     bool
	ioErr      error // first failed stripe fetch; sticky
	// want/issued bound prefetch to what the consumer has asked for plus
	// a small read-ahead, so partial readers do not overfetch the file.
	want   int64
	issued int64
}

// issue launches one chunk fetch if any remain and the window allows.
func (r *lustreReader) issue(p *sim.Proc) {
	lo := fileLayout(r.file)
	m := min64(r.remainingIssue, r.fs.cfg.StripeSize-r.stripeSkip)
	r.stripeSkip = 0
	o := r.fs.ostFor(lo, r.chunk)
	r.remainingIssue -= m
	r.issued += m
	r.chunk++
	dev := o.dev
	node := o.node
	fs := r.fs
	client := r.client
	in := r.in
	fs.cl.Env.Spawn("ost.read."+r.file.Path, func(q *sim.Proc) {
		dev.ReadFlat(q, m)
		var err error
		if client != node {
			err = fs.net.Transfer(q, node, client, m+rpcHeader, netsim.Native)
		}
		in.Put(stripeFetch{bytes: m, err: err})
	})
}

// Read implements dfs.Reader.
func (r *lustreReader) Read(p *sim.Proc, n int64) (int64, error) {
	if r.closed {
		return 0, dfs.ErrClosed
	}
	if r.ioErr != nil {
		return 0, r.ioErr
	}
	var consumed int64
	r.want += n
	if r.want > r.limit {
		r.want = r.limit
	}
	readAhead := 2 * r.fs.cfg.StripeSize
	for consumed < n && r.remainingRead > 0 {
		// Keep the prefetch window full, bounded by demand + read-ahead.
		for r.remainingIssue > 0 && r.issued < r.want+readAhead && r.window.TryAcquire(1) {
			r.issue(p)
		}
		if r.pending == 0 {
			f, _ := r.in.Get(p)
			r.window.Release(1)
			if f.err != nil {
				r.ioErr = f.err
				return consumed, f.err
			}
			r.pending += f.bytes
		}
		take := min64(n-consumed, r.pending)
		r.pending -= take
		r.remainingRead -= take
		consumed += take
		r.fs.stats.BytesRead += take
	}
	return consumed, nil
}

// Close implements dfs.Reader.
func (r *lustreReader) Close(p *sim.Proc) error {
	if r.closed {
		return dfs.ErrClosed
	}
	r.closed = true
	// Drain outstanding prefetches so their procs can finish.
	for r.window.InUse() > 0 {
		_, _ = r.in.Get(p)
		r.window.Release(1)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
