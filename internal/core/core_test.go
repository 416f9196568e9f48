package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/lustre"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

const mib = int64(1) << 20

type testRig struct {
	c    *cluster.Cluster
	l    *lustre.Lustre
	pool *BurstFS
	fs   *Instance // the pool's default instance
}

// newRig starts a pool of cfg over a fresh cluster and a four-OST Lustre.
func newRig(nodes int, cfg Config) *testRig {
	c := newRigCluster(nodes)
	rig := rigOn(c, lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2}), cfg)
	rig.pool.Start()
	return rig
}

// rigOn builds a pool over c and l without starting its flushers.
func rigOn(c *cluster.Cluster, l *lustre.Lustre, cfg Config) *testRig {
	pool := New(c, l, cfg)
	return &testRig{c: c, l: l, pool: pool, fs: pool.DefaultInstance()}
}

// newRigCluster builds the compute nodes every rig runs on.
func newRigCluster(nodes int) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes:     nodes,
		Transport: netsim.RDMA,
		Hardware: cluster.HardwareSpec{
			RAMDiskCapacity: 2 << 30,
			SSDCapacity:     4 << 30,
		},
		Seed: 5,
	})
}

// newTinyLustre caps the OSTs so flushes fail while the buffer servers
// stay healthy.
func newTinyLustre(c *cluster.Cluster, ostCap int64) *lustre.Lustre {
	return lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2, OSTCapacity: ostCap})
}

// localUsed sums the compute-node-local storage in use.
func localUsed(c *cluster.Cluster) int64 {
	var total int64
	for _, n := range c.Nodes {
		total += n.LocalUsed()
	}
	return total
}

// run executes fn as the driver and drains the simulation.
func (r *testRig) run(t *testing.T, fn func(p *sim.Proc)) time.Duration {
	t.Helper()
	r.c.Env.Spawn("driver", func(p *sim.Proc) {
		defer r.pool.Shutdown()
		fn(p)
	})
	end := r.c.Env.Run()
	if dl := r.c.Env.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked: %v", dl)
	}
	return end
}

func testCfg(policy string) Config {
	return Config{
		Policy:       policy,
		Servers:      2,
		ServerMemory: 1 << 30,
		BlockSize:    16 * mib,
		ItemChunk:    mib,
	}
}

func writeFile(t *testing.T, p *sim.Proc, fs *Instance, client netsim.NodeID, path string, size int64) {
	t.Helper()
	w, err := fs.Create(p, client, path)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if err := w.Write(p, size); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := w.Close(p); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func readFile(t *testing.T, p *sim.Proc, fs *Instance, client netsim.NodeID, path string) int64 {
	t.Helper()
	r, err := fs.Open(p, client, path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer r.Close(p)
	var total int64
	for {
		n, err := r.Read(p, 5*mib)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if n == 0 {
			return total
		}
		total += n
	}
}

func TestRoundTripAllSchemes(t *testing.T) {
	for _, policy := range []string{"bb-async", "bb-locality", "bb-sync"} {
		t.Run(policy, func(t *testing.T) {
			rig := newRig(4, testCfg(policy))
			const size = 40 * mib // 2.5 blocks
			rig.run(t, func(p *sim.Proc) {
				writeFile(t, p, rig.fs, 0, "/data/f", size)
				fi, err := rig.fs.Stat(p, 1, "/data/f")
				if err != nil || fi.Size != size {
					t.Fatalf("stat = %+v, %v", fi, err)
				}
				if got := readFile(t, p, rig.fs, 1, "/data/f"); got != size {
					t.Fatalf("read %d, want %d", got, size)
				}
			})
			st := rig.fs.Stats()
			if st.BytesWritten != size || st.BytesRead != size {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

func TestAsyncAcksBeforeFlush(t *testing.T) {
	rig := newRig(2, testCfg("bb-async"))
	const size = 64 * mib
	var ackAt time.Duration
	var flushedAtAck int64
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		ackAt = p.Now()
		flushedAtAck = rig.fs.Stats().BytesFlushed
		rig.fs.DrainFlushers(p)
		if rig.fs.Stats().BytesFlushed != size {
			t.Errorf("flushed %d after drain, want %d", rig.fs.Stats().BytesFlushed, size)
		}
	})
	if flushedAtAck >= size {
		t.Errorf("all data flushed before the ack (%d); async scheme should overlap", flushedAtAck)
	}
	_ = ackAt
}

func TestSyncDurableAtAck(t *testing.T) {
	rig := newRig(2, testCfg("bb-sync"))
	const size = 48 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		if got := rig.fs.Stats().BytesFlushed; got != size {
			t.Errorf("flushed %d at ack, want %d (write-through)", got, size)
		}
	})
	// Lustre actually holds the bytes.
	var onLustre int64
	for _, d := range rig.l.OSTDevices() {
		onLustre += d.Used()
	}
	if onLustre != size {
		t.Errorf("lustre holds %d, want %d", onLustre, size)
	}
}

func TestSyncSlowerThanAsyncWrites(t *testing.T) {
	timeFor := func(policy string) time.Duration {
		rig := newRig(4, testCfg(policy))
		var took time.Duration
		rig.run(t, func(p *sim.Proc) {
			start := p.Now()
			writeFile(t, p, rig.fs, 0, "/f", 128*mib)
			took = p.Now() - start
		})
		return took
	}
	async, sync := timeFor("bb-async"), timeFor("bb-sync")
	if sync <= async {
		t.Errorf("sync write (%v) should be slower than async (%v)", sync, async)
	}
}

func TestLocalityReplicaAndLocations(t *testing.T) {
	rig := newRig(4, testCfg("bb-locality"))
	const size = 32 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 2, "/f", size)
		locs, err := rig.fs.BlockLocations(p, 2, "/f")
		if err != nil || len(locs) != 2 {
			t.Fatalf("locations = %v, %v", locs, err)
		}
		for _, loc := range locs {
			if len(loc.Hosts) != 1 || loc.Hosts[0] != 2 {
				t.Errorf("locality scheme should report the writer node: %+v", loc)
			}
		}
	})
	if localUsed(rig.c) != size {
		t.Errorf("local storage used = %d, want %d", localUsed(rig.c), size)
	}
}

func TestNonLocalitySchemesUseNoLocalStorage(t *testing.T) {
	for _, policy := range []string{"bb-async", "bb-sync"} {
		rig := newRig(2, testCfg(policy))
		rig.run(t, func(p *sim.Proc) {
			writeFile(t, p, rig.fs, 0, "/f", 64*mib)
			rig.fs.DrainFlushers(p)
		})
		if used := localUsed(rig.c); used != 0 {
			t.Errorf("%v used %d bytes of local storage, want 0", policy, used)
		}
	}
}

func TestLocalReadFasterThanBufferAndLustre(t *testing.T) {
	// The locality scheme's claim is about readers that would otherwise
	// share the buffer servers' NICs: four nodes each hold one file's
	// local replica and there are two buffer servers. Read concurrently,
	// the local pass has a RAM disk per reader; the remote pass (every
	// node reads its neighbour's file) squeezes four RDMA streams through
	// two server NICs. A single uncontended RDMA stream outruns one RAM
	// disk in this model (DESIGN.md, "Bulk data path"), so a lone read
	// would not show it.
	const nodes = 4
	rig := newRig(nodes, testCfg("bb-locality"))
	const size = 32 * mib
	// readAll has every node read the file written by node (i+shift)%nodes
	// at once and returns the time until the last one finishes.
	readAll := func(p *sim.Proc, shift int) time.Duration {
		start := p.Now()
		var wg sim.WaitGroup
		for i := 0; i < nodes; i++ {
			i := i
			wg.Add(1)
			rig.c.Env.Spawn("reader", func(q *sim.Proc) {
				defer wg.Done()
				readFile(t, q, rig.fs, netsim.NodeID(i), fmt.Sprintf("/f%d", (i+shift)%nodes))
			})
		}
		wg.Wait(p)
		return p.Now() - start
	}
	var localT, remoteT time.Duration
	rig.run(t, func(p *sim.Proc) {
		for i := 0; i < nodes; i++ {
			writeFile(t, p, rig.fs, netsim.NodeID(i), fmt.Sprintf("/f%d", i), size)
		}
		localT = readAll(p, 0) // writer nodes: local replicas
		if st := rig.fs.Stats(); st.ReadsLocal == 0 || st.ReadsBuffer != 0 {
			t.Errorf("read sources after the local pass = %+v", st)
		}
		remoteT = readAll(p, 1) // neighbours: buffer via RDMA
	})
	t.Logf("4 concurrent readers: local %v, remote %v", localT, remoteT)
	if localT >= remoteT {
		t.Errorf("local reads (%v) not faster than remote (%v)", localT, remoteT)
	}
	if st := rig.fs.Stats(); st.ReadsBuffer == 0 {
		t.Errorf("read sources = %+v", st)
	}
}

func TestBufferReadFasterThanLustreRead(t *testing.T) {
	// Buffered (RDMA) reads vs post-eviction (Lustre) reads — the paper's
	// 8x read-gain mechanism.
	rig := newRig(2, testCfg("bb-async"))
	const size = 64 * mib
	var bufT, lustreT time.Duration
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		start := p.Now()
		readFile(t, p, rig.fs, 1, "/f")
		bufT = p.Now() - start
		rig.fs.DrainFlushers(p)
		// Force eviction of everything clean.
		for _, s := range rig.fs.Servers() {
			for _, b := range s.cleanLRU {
				if b.state == stateClean {
					b.state = stateEvicted
					b.releaseShare(s)
				}
			}
			s.cleanLRU = nil
		}
		start = p.Now()
		readFile(t, p, rig.fs, 1, "/f")
		lustreT = p.Now() - start
	})
	if bufT*2 >= lustreT {
		t.Errorf("buffer read (%v) should be well under half the Lustre read (%v)", bufT, lustreT)
	}
	if rig.fs.Stats().ReadsLustre == 0 {
		t.Error("no Lustre reads recorded after eviction")
	}
}

func TestEvictionAndBackpressure(t *testing.T) {
	// Two servers x 64 MiB: writing 256 MiB must stall writers and evict
	// clean blocks, but everything stays readable (via Lustre).
	cfg := testCfg("bb-async")
	cfg.ServerMemory = 64 * mib
	rig := newRig(2, cfg)
	const size = 256 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		rig.fs.DrainFlushers(p)
		if got := readFile(t, p, rig.fs, 1, "/f"); got != size {
			t.Fatalf("read %d, want %d", got, size)
		}
	})
	st := rig.fs.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions despite 4x memory oversubscription")
	}
	if st.ReadsLustre == 0 {
		t.Error("no reads fell back to Lustre despite evictions")
	}
	// Occupancy never exceeded the watermark.
	for _, s := range rig.fs.Servers() {
		if s.bytes > s.budget() {
			t.Errorf("%s occupancy %d exceeds budget %d", s.name, s.bytes, s.budget())
		}
	}
}

func TestAsyncServerFailureLosesOnlyUnflushed(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Flushers = 1
	rig := newRig(2, cfg)
	const size = 64 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		// Fail both servers immediately: some blocks are mid-flush.
		rig.pool.FailServer(0)
		rig.pool.FailServer(1)
		r, err := rig.fs.Open(p, 1, "/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var got int64
		for {
			n, err := r.Read(p, 4*mib)
			if err != nil {
				if !errors.Is(err, dfs.ErrCorrupt) {
					t.Fatalf("read error = %v, want ErrCorrupt", err)
				}
				break
			}
			if n == 0 {
				break
			}
			got += n
		}
		r.Close(p)
		if rig.fs.Stats().BlocksLost == 0 {
			t.Error("no blocks reported lost")
		}
	})
}

func TestSyncSurvivesServerFailure(t *testing.T) {
	rig := newRig(2, testCfg("bb-sync"))
	const size = 64 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		rig.pool.FailServer(0)
		rig.pool.FailServer(1)
		if got := readFile(t, p, rig.fs, 1, "/f"); got != size {
			t.Fatalf("read %d after server failures, want %d", got, size)
		}
	})
	if rig.fs.Stats().BlocksLost != 0 {
		t.Errorf("sync scheme lost %d blocks", rig.fs.Stats().BlocksLost)
	}
	if rig.fs.Stats().ReadsLustre == 0 {
		t.Error("reads did not fall back to Lustre")
	}
}

func TestLocalitySurvivesServerFailureViaRecovery(t *testing.T) {
	cfg := testCfg("bb-locality")
	cfg.Flushers = 1
	rig := newRig(4, cfg)
	const size = 64 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		rig.pool.FailServer(0)
		rig.pool.FailServer(1)
		p.Sleep(5 * time.Second) // allow local->Lustre recovery to finish
		if got := readFile(t, p, rig.fs, 3, "/f"); got != size {
			t.Fatalf("read %d after failures, want %d", got, size)
		}
	})
	st := rig.fs.Stats()
	if st.BlocksLost != 0 {
		t.Errorf("locality scheme lost %d blocks despite local replicas", st.BlocksLost)
	}
}

func TestWriterRetriesOnServerFailure(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Servers = 3
	rig := newRig(2, cfg)
	rig.run(t, func(p *sim.Proc) {
		w, err := rig.fs.Create(p, 0, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(p, 8*mib); err != nil {
			t.Fatalf("first write: %v", err)
		}
		// Kill the server holding the in-progress block.
		bw := w.(*bbWriter)
		rig.pool.FailServer(bw.cur.primary().index)
		if err := w.Write(p, 24*mib); err != nil {
			t.Fatalf("write after server failure: %v", err)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		if got := readFile(t, p, rig.fs, 1, "/f"); got != 32*mib {
			t.Fatalf("read %d, want %d", got, 32*mib)
		}
	})
	if rig.fs.Stats().BlockRetries == 0 {
		t.Error("no block retries recorded")
	}
}

func TestDeleteReleasesEverything(t *testing.T) {
	rig := newRig(2, testCfg("bb-locality"))
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", 48*mib)
		rig.fs.DrainFlushers(p)
		if err := rig.fs.Delete(p, 0, "/f"); err != nil {
			t.Fatal(err)
		}
	})
	if got := rig.fs.BufferedBytes(); got != 0 {
		t.Errorf("buffer still holds %d bytes", got)
	}
	if got := localUsed(rig.c); got != 0 {
		t.Errorf("local storage still holds %d bytes", got)
	}
	for i, d := range rig.l.OSTDevices() {
		if d.Used() != 0 {
			t.Errorf("OST %d still holds %d bytes", i, d.Used())
		}
	}
}

func TestNamespaceOps(t *testing.T) {
	rig := newRig(2, testCfg("bb-async"))
	rig.run(t, func(p *sim.Proc) {
		if err := rig.fs.Mkdir(p, 0, "/a/b"); err != nil {
			t.Fatal(err)
		}
		writeFile(t, p, rig.fs, 0, "/a/b/f", mib)
		fis, err := rig.fs.List(p, 1, "/a/b")
		if err != nil || len(fis) != 1 || fis[0].Size != mib {
			t.Fatalf("list = %v, %v", fis, err)
		}
		if _, err := rig.fs.Open(p, 0, "/missing"); !errors.Is(err, dfs.ErrNotFound) {
			t.Errorf("open missing: %v", err)
		}
		if _, err := rig.fs.Stat(p, 0, "/missing"); !errors.Is(err, dfs.ErrNotFound) {
			t.Errorf("stat missing: %v", err)
		}
		rig.fs.DrainFlushers(p)
	})
}

// TestOneControlCallPerChunk counts the buffer servers' control calls
// from the fabric: writing a 32 MiB file costs one SET call per 1 MiB
// chunk and reading it back one GET call per chunk. The pool's flushers
// are not started, so each server node's traffic is the payload plus the
// calls' envelopes (64 B requests, 32 B replies).
func TestOneControlCallPerChunk(t *testing.T) {
	c := newRigCluster(2)
	rig := rigOn(c, lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2}), testCfg("bb-async"))
	traffic := func() (sent, recv int64) {
		for _, s := range rig.fs.Servers() {
			sn, rc := rig.c.Net.Traffic(s.phys.node)
			sent, recv = sent+sn, recv+rc
		}
		return sent, recv
	}
	const size = 32 * mib
	var sets, gets int64
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		sent, recv := traffic()
		if recv != size+64*(sent/32) {
			t.Errorf("write: servers received %d bytes and sent %d; want %d payload plus 64 B per 32 B reply", recv, sent, int64(size))
		}
		sets = sent / 32
		readFile(t, p, rig.fs, 1, "/f")
		sent2, recv2 := traffic()
		gets = (recv2 - recv) / 64
		if sent2-sent != size+32*gets {
			t.Errorf("read: servers sent %d bytes and received %d; want %d payload plus 32 B per 64 B request", sent2-sent, recv2-recv, int64(size))
		}
	})
	if sets != 32 {
		t.Errorf("SET calls = %d, want 32", sets)
	}
	if gets != 32 {
		t.Errorf("GET calls = %d, want 32", gets)
	}
}

func TestRingSpreadsBlocksAcrossServers(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Servers = 4
	rig := newRig(2, cfg)
	rig.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			writeFile(t, p, rig.fs, 0, fmt.Sprintf("/f%d", i), 32*mib)
		}
		rig.fs.DrainFlushers(p)
	})
	withData := 0
	for _, s := range rig.fs.Servers() {
		if s.bytes > 0 {
			withData++
		}
	}
	if withData < 3 {
		t.Errorf("only %d of 4 servers saw traffic", withData)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		rig := newRig(4, testCfg("bb-locality"))
		var took time.Duration
		rig.run(t, func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 3; i++ {
				writeFile(t, p, rig.fs, netsim.NodeID(i), fmt.Sprintf("/f%d", i), 24*mib)
			}
			for i := 0; i < 3; i++ {
				readFile(t, p, rig.fs, netsim.NodeID(3-i-1), fmt.Sprintf("/f%d", i))
			}
			rig.fs.DrainFlushers(p)
			took = p.Now() - start
		})
		return took
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs took %v and %v", a, b)
	}
}

func TestBufferReplicationSurvivesPrimaryCrash(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Servers = 3
	cfg.BufferReplicas = 2
	cfg.Flushers = 1
	rig := newRig(2, cfg)
	const size = 64 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		// Every block sits on two servers; crash the whole first server.
		rig.pool.FailServer(0)
		if got := readFile(t, p, rig.fs, 1, "/f"); got != size {
			t.Fatalf("read %d after primary crash, want %d", got, size)
		}
		rig.fs.DrainFlushers(p)
		if got := rig.fs.Stats().BytesFlushed; got < size {
			t.Errorf("flushed %d; promoted replicas must finish the flush", got)
		}
	})
	st := rig.fs.Stats()
	if st.BlocksLost != 0 {
		t.Errorf("replicated buffer lost %d blocks", st.BlocksLost)
	}
	if st.Promotions == 0 {
		t.Error("no replica promotions recorded")
	}
}

func TestBufferReplicationDoublesOccupancy(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Servers = 4
	cfg.BufferReplicas = 2
	rig := newRig(2, cfg)
	const size = 64 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		if got := rig.fs.BufferedBytes(); got != 2*size {
			t.Errorf("buffered %d bytes, want 2x dataset with 2 replicas", got)
		}
		rig.fs.DrainFlushers(p)
	})
}

func TestBufferReplicationSlowerWrites(t *testing.T) {
	timeFor := func(replicas int) time.Duration {
		cfg := testCfg("bb-async")
		cfg.Servers = 4
		cfg.BufferReplicas = replicas
		rig := newRig(2, cfg)
		var took time.Duration
		rig.run(t, func(p *sim.Proc) {
			start := p.Now()
			writeFile(t, p, rig.fs, 0, "/f", 128*mib)
			took = p.Now() - start
			rig.fs.DrainFlushers(p)
		})
		return took
	}
	one, two := timeFor(1), timeFor(2)
	if two <= one {
		t.Errorf("replicated write (%v) should cost more than single (%v)", two, one)
	}
}

func TestReadmitOnRead(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.ReadmitOnRead = true
	rig := newRig(2, cfg)
	const size = 32 * mib
	var coldT, warmT time.Duration
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		rig.fs.DrainFlushers(p)
		// Evict everything so the next read is a Lustre (cold) read.
		for _, s := range rig.fs.Servers() {
			for _, b := range s.cleanLRU {
				if b.state == stateClean && b.onServer(s) {
					b.releaseShare(s)
					b.dropServer(s)
					if b.primary() == nil {
						b.state = stateEvicted
					}
				}
			}
			s.cleanLRU = nil
		}
		start := p.Now()
		readFile(t, p, rig.fs, 1, "/f")
		coldT = p.Now() - start
		p.Sleep(2 * time.Second) // let the cache fill complete
		start = p.Now()
		readFile(t, p, rig.fs, 1, "/f")
		warmT = p.Now() - start
	})
	st := rig.fs.Stats()
	if st.Readmissions == 0 {
		t.Fatal("no re-admissions recorded")
	}
	if warmT >= coldT {
		t.Errorf("warm read (%v) not faster than cold read (%v) after re-admission", warmT, coldT)
	}
}

func TestReadmitDisabledByDefault(t *testing.T) {
	rig := newRig(2, testCfg("bb-async"))
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", 32*mib)
		rig.fs.DrainFlushers(p)
		for _, s := range rig.fs.Servers() {
			for _, b := range s.cleanLRU {
				if b.state == stateClean && b.onServer(s) {
					b.releaseShare(s)
					b.dropServer(s)
					b.state = stateEvicted
				}
			}
			s.cleanLRU = nil
		}
		readFile(t, p, rig.fs, 1, "/f")
		p.Sleep(time.Second)
	})
	if rig.fs.Stats().Readmissions != 0 {
		t.Error("re-admission ran despite being disabled")
	}
}

func TestReplicatedReadsFailOverBetweenServers(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Servers = 3
	cfg.BufferReplicas = 2
	cfg.Flushers = 1
	rig := newRig(2, cfg)
	const size = 32 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		// Open the reader, consume a little, then kill the primary of the
		// first block mid-stream.
		r, err := rig.fs.Open(p, 1, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(p, 4*mib); err != nil {
			t.Fatal(err)
		}
		br := r.(*bbReader)
		rig.pool.FailServer(br.blocks[0].primary().index)
		var total int64 = 4 * mib
		for {
			n, err := r.Read(p, 4*mib)
			if err != nil {
				t.Fatalf("read after primary crash: %v", err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		if total != size {
			t.Fatalf("read %d, want %d", total, size)
		}
		r.Close(p)
	})
}

// TestPropertyRandomWorkloadConservation drives the burst buffer with a
// random sequence of writes, reads, deletes, drains, and server failures,
// checking the conservation invariants after every run: every live file
// reads back its full size (or fails only when the scheme permits loss),
// buffer occupancy never exceeds budgets, and deletions release space.
func TestPropertyRandomWorkloadConservation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := testCfg("bb-sync") // no loss window: reads must always succeed
			cfg.Servers = 3
			cfg.ServerMemory = 128 * mib
			rig := newRig(4, cfg)
			rng := rig.c.Env.Rand()
			files := map[string]int64{}
			rig.run(t, func(p *sim.Proc) {
				nextID := 0
				for op := 0; op < 40; op++ {
					switch rng.Intn(5) {
					case 0, 1: // write a new file
						nextID++
						path := fmt.Sprintf("/w/f%d", nextID)
						size := int64(rng.Intn(48)+1) * mib
						writeFile(t, p, rig.fs, netsim.NodeID(rng.Intn(4)), path, size)
						files[path] = size
					case 2: // read a random live file
						for path, size := range files {
							if got := readFile(t, p, rig.fs, netsim.NodeID(rng.Intn(4)), path); got != size {
								t.Fatalf("%s read %d, want %d", path, got, size)
							}
							break
						}
					case 3: // delete a random live file
						for path := range files {
							if err := rig.fs.Delete(p, 0, path); err != nil {
								t.Fatalf("delete %s: %v", path, err)
							}
							delete(files, path)
							break
						}
					case 4:
						rig.fs.DrainFlushers(p)
					}
					// Invariant: occupancy within budget on every server.
					for _, s := range rig.fs.Servers() {
						if s.bytes > s.budget() {
							t.Fatalf("server %s over budget: %d > %d", s.name, s.bytes, s.budget())
						}
					}
				}
				// Full sweep: every surviving file is completely readable.
				for path, size := range files {
					if got := readFile(t, p, rig.fs, 1, path); got != size {
						t.Fatalf("final read %s: %d, want %d", path, got, size)
					}
				}
				// Delete everything; all space must return.
				for path := range files {
					if err := rig.fs.Delete(p, 0, path); err != nil {
						t.Fatal(err)
					}
				}
				rig.fs.DrainFlushers(p)
			})
			if got := rig.fs.BufferedBytes(); got != 0 {
				t.Errorf("buffer holds %d bytes after deleting everything", got)
			}
			for i, d := range rig.l.OSTDevices() {
				if d.Used() != 0 {
					t.Errorf("OST %d holds %d bytes after deleting everything", i, d.Used())
				}
			}
		})
	}
}

// TestPropertyReplicatedSurvivesAnySingleCrash: with 2 in-buffer replicas,
// any single server crash leaves every file fully readable, regardless of
// flush progress.
func TestPropertyReplicatedSurvivesAnySingleCrash(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		victim := victim
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			cfg := testCfg("bb-async")
			cfg.Servers = 3
			cfg.BufferReplicas = 2
			cfg.Flushers = 1
			rig := newRig(4, cfg)
			rig.run(t, func(p *sim.Proc) {
				for i := 0; i < 6; i++ {
					writeFile(t, p, rig.fs, netsim.NodeID(i%4), fmt.Sprintf("/f%d", i), 24*mib)
				}
				rig.pool.FailServer(victim)
				for i := 0; i < 6; i++ {
					if got := readFile(t, p, rig.fs, 1, fmt.Sprintf("/f%d", i)); got != 24*mib {
						t.Fatalf("f%d read %d after crash of server %d", i, got, victim)
					}
				}
				rig.fs.DrainFlushers(p)
			})
			if rig.fs.Stats().BlocksLost != 0 {
				t.Errorf("lost %d blocks despite replication", rig.fs.Stats().BlocksLost)
			}
		})
	}
}

func TestSchemeAndStateStrings(t *testing.T) {
	// A scheme's report label is its Config.Policy name; an empty Policy
	// selects bb-async.
	for _, name := range []string{"bb-async", "bb-locality", "bb-sync", "bb-adaptive"} {
		sch, err := parseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		if sch.String() != name {
			t.Errorf("scheme %q reports name %q", name, sch)
		}
	}
	if sch, err := parseScheme(""); sch != schemeAsync || err != nil {
		t.Errorf("empty Policy selects %v, %v; want bb-async", sch, err)
	}
	for st, want := range map[blockState]string{
		stateOpen: "open", stateDirty: "dirty", stateFlushing: "flushing", stateClean: "clean",
		stateEvicted: "evicted", stateLost: "lost", stateDeleted: "deleted",
		blockState(-1): "invalid", blockState(99): "invalid",
	} {
		if st.String() != want {
			t.Errorf("state %d = %q, want %q", st, st.String(), want)
		}
	}
}

func TestFSNameAndConfig(t *testing.T) {
	rig := newRig(2, testCfg("bb-locality"))
	if rig.fs.Name() != "bb-locality" {
		t.Errorf("name = %q", rig.fs.Name())
	}
	if rig.pool.Config().Servers != 2 {
		t.Errorf("config = %+v", rig.pool.Config())
	}
	rig.run(t, func(p *sim.Proc) {})
}

func TestCreateOnMissingParentOk(t *testing.T) {
	rig := newRig(2, testCfg("bb-async"))
	rig.run(t, func(p *sim.Proc) {
		// Parents auto-create; duplicate create fails.
		writeFile(t, p, rig.fs, 0, "/deep/nested/path/f", mib)
		if _, err := rig.fs.Create(p, 0, "/deep/nested/path/f"); !errors.Is(err, dfs.ErrExists) {
			t.Errorf("duplicate create: %v", err)
		}
		rig.fs.DrainFlushers(p)
	})
}

func TestTinyMemoryPanicsAtConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("server memory below one block accepted")
		}
	}()
	rig := newRig(2, Config{Servers: 1, ServerMemory: mib, BlockSize: 16 * mib})
	_ = rig
}

func TestSyncWriterSurvivesMidBlockServerCrashWithTee(t *testing.T) {
	// Crash the primary mid-block under the sync scheme: the Lustre tee of
	// the failed attempt must settle (cleanupTees path) and the block
	// complete elsewhere.
	cfg := testCfg("bb-sync")
	cfg.Servers = 3
	rig := newRig(2, cfg)
	rig.run(t, func(p *sim.Proc) {
		w, err := rig.fs.Create(p, 0, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(p, 6*mib); err != nil {
			t.Fatal(err)
		}
		bw := w.(*bbWriter)
		rig.pool.FailServer(bw.cur.primary().index)
		if err := w.Write(p, 10*mib); err != nil {
			t.Fatalf("write after crash: %v", err)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		if got := readFile(t, p, rig.fs, 1, "/f"); got != 16*mib {
			t.Fatalf("read %d", got)
		}
	})
	if rig.fs.Stats().BlockRetries == 0 {
		t.Error("no retries recorded")
	}
}

func TestLocalityWriterSurvivesMidBlockServerCrashWithLocalTee(t *testing.T) {
	cfg := testCfg("bb-locality")
	cfg.Servers = 3
	rig := newRig(2, cfg)
	rig.run(t, func(p *sim.Proc) {
		w, err := rig.fs.Create(p, 0, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(p, 6*mib); err != nil {
			t.Fatal(err)
		}
		bw := w.(*bbWriter)
		rig.pool.FailServer(bw.cur.primary().index)
		if err := w.Write(p, 10*mib); err != nil {
			t.Fatalf("write after crash: %v", err)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		rig.fs.DrainFlushers(p)
		if got := readFile(t, p, rig.fs, 1, "/f"); got != 16*mib {
			t.Fatalf("read %d", got)
		}
	})
	// The failed attempt's local allocation was rolled back: exactly one
	// block of local storage remains.
	if used := localUsed(rig.c); used != 16*mib {
		t.Errorf("local storage = %d, want one block", used)
	}
}

func TestReaderDiscardAcrossFallback(t *testing.T) {
	// Consume part of a block from the buffer, crash the server, and let
	// the reader's fallback discard the consumed prefix from Lustre.
	cfg := testCfg("bb-sync") // durable: fallback always possible
	cfg.Servers = 1
	rig := newRig(2, cfg)
	const size = 16 * mib
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		r, err := rig.fs.Open(p, 1, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(p, 5*mib); err != nil {
			t.Fatal(err)
		}
		rig.pool.FailServer(0)
		var total int64 = 5 * mib
		for {
			n, err := r.Read(p, 3*mib)
			if err != nil {
				t.Fatalf("read after crash: %v", err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		if total != size {
			t.Fatalf("read %d, want %d", total, size)
		}
		r.Close(p)
	})
}

func TestPrestageWarmsReads(t *testing.T) {
	cfg := testCfg("bb-async")
	rig := newRig(2, cfg)
	const size = 32 * mib
	var coldT, warmT time.Duration
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		rig.fs.DrainFlushers(p)
		// Evict everything.
		for _, s := range rig.fs.Servers() {
			for _, b := range s.cleanLRU {
				if b.state == stateClean && b.onServer(s) {
					b.releaseShare(s)
					b.dropServer(s)
					if b.primary() == nil {
						b.state = stateEvicted
					}
				}
			}
			s.cleanLRU = nil
		}
		start := p.Now()
		readFile(t, p, rig.fs, 1, "/f")
		coldT = p.Now() - start
		staged, err := rig.fs.Prestage(p, 1, "/f")
		if err != nil {
			t.Fatalf("prestage: %v", err)
		}
		if staged != 2 { // 32 MiB = 2 x 16 MiB blocks
			t.Fatalf("staged %d blocks, want 2", staged)
		}
		start = p.Now()
		readFile(t, p, rig.fs, 1, "/f")
		warmT = p.Now() - start
	})
	if warmT >= coldT {
		t.Errorf("post-stage-in read (%v) not faster than cold read (%v)", warmT, coldT)
	}
	if rig.fs.Stats().Readmissions != 2 {
		t.Errorf("readmissions = %d", rig.fs.Stats().Readmissions)
	}
}

func TestPrestageSkipsBufferedAndFullServers(t *testing.T) {
	cfg := testCfg("bb-sync")
	rig := newRig(2, cfg)
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", 32*mib)
		// Everything is still buffered (clean): nothing to stage.
		staged, err := rig.fs.Prestage(p, 1, "/f")
		if err != nil || staged != 0 {
			t.Errorf("prestage of buffered file staged %d, %v", staged, err)
		}
	})
}
