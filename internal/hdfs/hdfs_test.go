package hdfs

import (
	"errors"
	"testing"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

const testMiB = int64(1) << 20

func testCluster(nodes int) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes:     nodes,
		RacksOf:   4,
		Transport: netsim.IPoIB,
		Hardware: cluster.HardwareSpec{
			SSDCapacity: 2 << 30,
			MapSlots:    4,
			ReduceSlots: 2,
			ComputeRate: 400e6,
		},
		Seed: 11,
	})
}

func testConfig() Config {
	return Config{BlockSize: 16 * testMiB, Replication: 3, PacketSize: testMiB}
}

// runHDFS builds a cluster+HDFS, runs fn as the driver process, shuts the
// services down, and verifies the simulation drains cleanly.
func runHDFS(t *testing.T, nodes int, cfg Config, fn func(p *sim.Proc, h *HDFS)) (*cluster.Cluster, *HDFS, time.Duration) {
	t.Helper()
	c := testCluster(nodes)
	h, err := New(c, cfg)
	if err != nil {
		t.Fatalf("hdfs.New: %v", err)
	}
	h.Start()
	c.Env.Spawn("driver", func(p *sim.Proc) {
		defer h.Shutdown()
		fn(p, h)
	})
	end := c.Env.Run()
	if dl := c.Env.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked processes after run: %v", dl)
	}
	return c, h, end
}

func TestWriteReadRoundTrip(t *testing.T) {
	const fileSize = 40 * testMiB // 2.5 blocks
	_, h, _ := runHDFS(t, 4, testConfig(), func(p *sim.Proc, h *HDFS) {
		w, err := h.Create(p, 0, "/data/file1")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := w.Write(p, fileSize); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		fi, err := h.Stat(p, 0, "/data/file1")
		if err != nil || fi.Size != fileSize {
			t.Fatalf("stat = %+v, %v", fi, err)
		}
		r, err := h.Open(p, 1, "/data/file1")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var total int64
		for {
			n, err := r.Read(p, 8*testMiB)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		if total != fileSize {
			t.Fatalf("read %d bytes, want %d", total, fileSize)
		}
		if err := r.Close(p); err != nil {
			t.Fatalf("close reader: %v", err)
		}
	})
	st := h.Stats()
	if st.BytesWritten != fileSize || st.BytesRead != fileSize {
		t.Errorf("stats = %+v", st)
	}
	if st.BlocksWritten != 3 {
		t.Errorf("blocks written = %d, want 3", st.BlocksWritten)
	}
}

func TestBlockSplittingAndReplication(t *testing.T) {
	_, h, _ := runHDFS(t, 4, testConfig(), func(p *sim.Proc, h *HDFS) {
		w, _ := h.Create(p, 2, "/f")
		w.Write(p, 33*testMiB) // 16 + 16 + 1
		w.Close(p)
		blocks, err := h.getBlocks(p, 2, "/f")
		if err != nil {
			t.Fatalf("getBlocks: %v", err)
		}
		if len(blocks) != 3 {
			t.Fatalf("blocks = %d, want 3", len(blocks))
		}
		if blocks[0].Size != 16*testMiB || blocks[2].Size != testMiB {
			t.Errorf("sizes = %d,%d,%d", blocks[0].Size, blocks[1].Size, blocks[2].Size)
		}
		for i, b := range blocks {
			if len(b.Locations) != 3 {
				t.Errorf("block %d has %d replicas", i, len(b.Locations))
			}
			// Writer-local first replica.
			found := false
			for _, loc := range b.Locations {
				if loc == 2 {
					found = true
				}
			}
			if !found {
				t.Errorf("block %d has no replica on the writer's node: %v", i, b.Locations)
			}
		}
	})
	_ = h
}

func TestBlockLocationsAPI(t *testing.T) {
	runHDFS(t, 4, testConfig(), func(p *sim.Proc, h *HDFS) {
		w, _ := h.Create(p, 0, "/f")
		w.Write(p, 20*testMiB)
		w.Close(p)
		locs, err := h.BlockLocations(p, 0, "/f")
		if err != nil || len(locs) != 2 {
			t.Fatalf("locations = %v, %v", locs, err)
		}
		if locs[0].Offset != 0 || locs[1].Offset != 16*testMiB {
			t.Errorf("offsets = %d,%d", locs[0].Offset, locs[1].Offset)
		}
		if len(locs[0].Hosts) != 3 {
			t.Errorf("hosts = %v", locs[0].Hosts)
		}
	})
}

func TestNamespaceOpsOverFabric(t *testing.T) {
	runHDFS(t, 4, testConfig(), func(p *sim.Proc, h *HDFS) {
		if err := h.Mkdir(p, 0, "/a/b"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		w, _ := h.Create(p, 0, "/a/b/f")
		w.Write(p, testMiB)
		w.Close(p)
		fis, err := h.List(p, 1, "/a/b")
		if err != nil || len(fis) != 1 || fis[0].Path != "/a/b/f" {
			t.Fatalf("list = %v, %v", fis, err)
		}
		if err := h.Delete(p, 1, "/a/b/f"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, err := h.Stat(p, 0, "/a/b/f"); !errors.Is(err, dfs.ErrNotFound) {
			t.Errorf("stat after delete: %v", err)
		}
		if _, err := h.Open(p, 0, "/nope"); !errors.Is(err, dfs.ErrNotFound) {
			t.Errorf("open missing: %v", err)
		}
	})
}

func TestDeleteFreesDeviceSpace(t *testing.T) {
	c, _, _ := runHDFS(t, 4, testConfig(), func(p *sim.Proc, h *HDFS) {
		w, _ := h.Create(p, 0, "/f")
		w.Write(p, 32*testMiB)
		w.Close(p)
		if err := h.Delete(p, 0, "/f"); err != nil {
			t.Fatalf("delete: %v", err)
		}
	})
	for _, n := range c.Nodes {
		if used := n.SSD.Used(); used != 0 {
			t.Errorf("node %d SSD still holds %d bytes after delete", n.ID, used)
		}
	}
}

func TestWriteTimeReasonable(t *testing.T) {
	// One client, 64 MiB, replication 3 over IPoIB with SSD datanodes.
	// The pipeline should be bounded by the SSD write rate (~450 MB/s):
	// lower bound ~0.15s; well under 1.5s unless pipelining is broken.
	const fileSize = 64 * testMiB
	var wrote time.Duration
	runHDFS(t, 4, testConfig(), func(p *sim.Proc, h *HDFS) {
		start := p.Now()
		w, _ := h.Create(p, 0, "/f")
		if err := w.Write(p, fileSize); err != nil {
			t.Fatalf("write: %v", err)
		}
		w.Close(p)
		wrote = p.Now() - start
	})
	if wrote < 100*time.Millisecond || wrote > 1500*time.Millisecond {
		t.Errorf("64MiB replicated write took %v; expected ~0.15-1.5s", wrote)
	}
}

func TestLocalReadFasterThanRemote(t *testing.T) {
	cfg := testConfig()
	var localT, remoteT time.Duration
	runHDFS(t, 8, cfg, func(p *sim.Proc, h *HDFS) {
		w, _ := h.Create(p, 0, "/f")
		w.Write(p, 32*testMiB)
		w.Close(p)
		read := func(client netsim.NodeID) time.Duration {
			start := p.Now()
			r, err := h.Open(p, client, "/f")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for {
				n, err := r.Read(p, 8*testMiB)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if n == 0 {
					break
				}
			}
			r.Close(p)
			return p.Now() - start
		}
		localT = read(0) // writer node holds a replica of every block
		// Find a node holding no replica.
		locs, _ := h.BlockLocations(p, 0, "/f")
		replicaHolders := map[netsim.NodeID]bool{}
		for _, l := range locs {
			for _, hst := range l.Hosts {
				replicaHolders[hst] = true
			}
		}
		var far netsim.NodeID = -1
		for i := 0; i < 8; i++ {
			if !replicaHolders[netsim.NodeID(i)] {
				far = netsim.NodeID(i)
				break
			}
		}
		if far == -1 {
			t.Skip("all nodes hold replicas")
		}
		remoteT = read(far)
	})
	if localT >= remoteT {
		t.Errorf("local read (%v) not faster than remote (%v)", localT, remoteT)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	// 4 nodes x 2 GiB SSD = 8 GiB raw; replication 3 means ~2.6 GiB of
	// file data fits. Writing 4 GiB must fail with ErrNoSpace.
	runHDFS(t, 4, testConfig(), func(p *sim.Proc, h *HDFS) {
		w, err := h.Create(p, 0, "/big")
		if err != nil {
			t.Fatal(err)
		}
		err = w.Write(p, 4<<30)
		if !errors.Is(err, dfs.ErrNoSpace) {
			t.Errorf("write = %v, want ErrNoSpace", err)
		}
	})
}

func TestPipelineSurvivesMidstreamFailure(t *testing.T) {
	// Kill a non-first pipeline member mid-write: the write completes and
	// the file is fully readable.
	const fileSize = 64 * testMiB
	_, h, _ := runHDFS(t, 6, testConfig(), func(p *sim.Proc, h *HDFS) {
		w, _ := h.Create(p, 0, "/f")
		if err := w.Write(p, 8*testMiB); err != nil {
			t.Fatalf("first write: %v", err)
		}
		// Find the current pipeline and kill its second member.
		hw := w.(*hdfsWriter)
		victim := hw.pl.targets[1]
		h.FailDataNode(victim)
		if err := w.Write(p, fileSize-8*testMiB); err != nil {
			t.Fatalf("write after failure: %v", err)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		r, err := h.Open(p, 3, "/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var total int64
		for {
			n, err := r.Read(p, 8*testMiB)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		if total != fileSize {
			t.Fatalf("read %d, want %d", total, fileSize)
		}
		r.Close(p)
	})
	_ = h
}

func TestPipelineSurvivesFirstHopFailure(t *testing.T) {
	const fileSize = 48 * testMiB
	runHDFS(t, 6, testConfig(), func(p *sim.Proc, h *HDFS) {
		// Write from a node that has no datanode storage conflicts: use a
		// remote first hop by writing from node 5 but failing its DN so
		// placement avoids it... simpler: write from node 0, kill the
		// pipeline's first target (node 0's own DN) mid-write.
		w, _ := h.Create(p, 0, "/f")
		if err := w.Write(p, 4*testMiB); err != nil {
			t.Fatalf("first write: %v", err)
		}
		hw := w.(*hdfsWriter)
		h.FailDataNodeProcess(hw.pl.targets[0])
		if err := w.Write(p, fileSize-4*testMiB); err != nil {
			t.Fatalf("write after first-hop failure: %v", err)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		fi, err := h.Stat(p, 1, "/f")
		if err != nil || fi.Size != fileSize {
			t.Fatalf("stat = %+v, %v", fi, err)
		}
	})
}

func TestReadFailsOverToAnotherReplica(t *testing.T) {
	const fileSize = 32 * testMiB
	_, h, _ := runHDFS(t, 6, testConfig(), func(p *sim.Proc, h *HDFS) {
		w, _ := h.Create(p, 0, "/f")
		w.Write(p, fileSize)
		w.Close(p)
		// Read from a non-replica node; kill the replica being streamed
		// after the first few MiB.
		r, err := h.Open(p, 5, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(p, 4*testMiB); err != nil {
			t.Fatalf("read prefix: %v", err)
		}
		// The reader is fetching from some replica; fail the whole first
		// block's replica set one by one except the last.
		locs, _ := h.BlockLocations(p, 5, "/f")
		h.FailDataNode(locs[0].Hosts[0])
		var total int64 = 4 * testMiB
		for {
			n, err := r.Read(p, 4*testMiB)
			if err != nil {
				t.Fatalf("read after replica failure: %v", err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		if total != fileSize {
			t.Fatalf("read %d, want %d", total, fileSize)
		}
		r.Close(p)
	})
	if h.Stats().ReplicaRetries == 0 {
		t.Log("note: reader did not need a retry (failed replica was not the stream source)")
	}
}

func TestReReplicationAfterNodeDeath(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = 200 * time.Millisecond
	cfg.DatanodeTimeout = time.Second
	_, h, _ := runHDFS(t, 6, cfg, func(p *sim.Proc, h *HDFS) {
		w, _ := h.Create(p, 0, "/f")
		w.Write(p, 32*testMiB)
		w.Close(p)
		locs, _ := h.BlockLocations(p, 0, "/f")
		h.FailDataNode(locs[0].Hosts[0])
		// Give the monitor time to detect and re-replicate.
		p.Sleep(10 * time.Second)
		locs, err := h.BlockLocations(p, 1, "/f")
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range locs {
			if len(l.Hosts) != 3 {
				t.Errorf("block %d has %d replicas after recovery window", i, len(l.Hosts))
			}
		}
	})
	if h.Stats().Rereplications == 0 {
		t.Error("no re-replication happened")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		var took time.Duration
		runHDFS(t, 4, testConfig(), func(p *sim.Proc, h *HDFS) {
			start := p.Now()
			for i := 0; i < 3; i++ {
				w, _ := h.Create(p, netsim.NodeID(i), "/f"+string(rune('0'+i)))
				w.Write(p, 24*testMiB)
				w.Close(p)
			}
			took = p.Now() - start
		})
		return took
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs took %v and %v", a, b)
	}
}

func TestDeterministicConcurrentWriters(t *testing.T) {
	// Same seed, three writers draining at once (their hop flows share
	// NICs, so the solver re-divides on every start and finish) →
	// bit-identical end times.
	run := func() int64 {
		_, _, end := runHDFS(t, 6, testConfig(), func(p *sim.Proc, h *HDFS) {
			var wg sim.WaitGroup
			for i := 0; i < 3; i++ {
				i := i
				wg.Add(1)
				h.cl.Env.Spawn("w", func(q *sim.Proc) {
					defer wg.Done()
					w, _ := h.Create(q, netsim.NodeID(i), "/f"+string(rune('0'+i)))
					w.Write(q, 24*testMiB)
					w.Close(q)
				})
			}
			wg.Wait(p)
		})
		return int64(end)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %d vs %d", a, b)
	}
}

func TestConcurrentWritersShareBandwidth(t *testing.T) {
	const per = 32 * testMiB
	var soloT, concT time.Duration
	runHDFS(t, 8, testConfig(), func(p *sim.Proc, h *HDFS) {
		start := p.Now()
		w, _ := h.Create(p, 0, "/solo")
		w.Write(p, per)
		w.Close(p)
		soloT = p.Now() - start

		start = p.Now()
		var wg sim.WaitGroup
		for i := 0; i < 4; i++ {
			i := i
			wg.Add(1)
			h.cl.Env.Spawn("writer", func(q *sim.Proc) {
				defer wg.Done()
				w, err := h.Create(q, netsim.NodeID(i), "/conc"+string(rune('0'+i)))
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				w.Write(q, per)
				w.Close(q)
			})
		}
		wg.Wait(p)
		concT = p.Now() - start
	})
	if concT < soloT {
		t.Errorf("4 concurrent writes (%v) faster than one (%v)?", concT, soloT)
	}
	if concT > 4*soloT {
		t.Errorf("4 concurrent writes (%v) slower than 4x serial (%v); no parallelism", concT, 4*soloT)
	}
}

func TestUseRAMDiskForData(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:     4,
		Transport: netsim.IPoIB,
		Hardware: cluster.HardwareSpec{
			RAMDiskCapacity: 1 << 30,
			SSDCapacity:     2 << 30,
		},
		Seed: 11,
	})
	cfg := testConfig()
	cfg.UseRAMDiskForData = true
	h, err := New(c, cfg)
	if err != nil {
		t.Fatalf("hdfs.New: %v", err)
	}
	h.Start()
	c.Env.Spawn("driver", func(p *sim.Proc) {
		defer h.Shutdown()
		w, _ := h.Create(p, 0, "/f")
		w.Write(p, 32*testMiB)
		w.Close(p)
	})
	c.Env.Run()
	// Blocks landed on RAM disks, not SSDs.
	var ram, ssd int64
	for _, n := range c.Nodes {
		ram += n.RAMDisk.Used()
		ssd += n.SSD.Used()
	}
	if ram != 3*32*testMiB || ssd != 0 {
		t.Errorf("ram=%d ssd=%d; RAM-disk mode should hold all replicas", ram, ssd)
	}
}

func TestDisklessNodesFallBackToRAMDisk(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:     3,
		Transport: netsim.IPoIB,
		Hardware:  cluster.HardwareSpec{RAMDiskCapacity: 1 << 30},
		Seed:      11,
	})
	h, err := New(c, testConfig())
	if err != nil {
		t.Fatalf("hdfs.New: %v", err)
	}
	h.Start()
	c.Env.Spawn("driver", func(p *sim.Proc) {
		defer h.Shutdown()
		w, err := h.Create(p, 0, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(p, 16*testMiB); err != nil {
			t.Fatalf("write on diskless nodes: %v", err)
		}
		w.Close(p)
	})
	c.Env.Run()
	var ram int64
	for _, n := range c.Nodes {
		ram += n.RAMDisk.Used()
	}
	if ram != 3*16*testMiB {
		t.Errorf("ram = %d; diskless HDFS should fall back to the RAM disk", ram)
	}
}
