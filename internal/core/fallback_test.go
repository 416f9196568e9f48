package core

import (
	"testing"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/hdfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// skipFallback is one file system's side of
// TestReadSurvivesFallbackFailingDuringSkip.
type skipFallback struct {
	env    *sim.Env
	fs     dfs.FileSystem
	writer netsim.NodeID
	reader netsim.NodeID
	size   int64
	prefix int64 // bytes read before the first source fails
	// failFirst fails the source streaming the block to r.
	failFirst func(p *sim.Proc, r dfs.Reader)
	// failNext is polled after failFirst: once the reader has fallen back
	// to its next source, it fails that source and reports true.
	failNext func() bool
	shutdown func()
	check    func(t *testing.T)
}

// TestReadSurvivesFallbackFailingDuringSkip fails a one-block file's
// source mid-block, then fails the source the reader falls back to while
// the reader is still skipping the prefix it had already consumed. The
// third source is live, so the read must deliver every byte from it.
func TestReadSurvivesFallbackFailingDuringSkip(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *skipFallback
	}{
		{"hdfs", hdfsSkipFallback},
		{"bb-sync", bbSkipFallback},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sf := tc.build(t)
			sf.env.Spawn("driver", func(p *sim.Proc) {
				defer sf.shutdown()
				w, err := sf.fs.Create(p, sf.writer, "/f")
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Write(p, sf.size); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(p); err != nil {
					t.Fatal(err)
				}
				r, err := sf.fs.Open(p, sf.reader, "/f")
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close(p)
				total, err := r.Read(p, sf.prefix)
				if err != nil || total != sf.prefix {
					t.Fatalf("prefix read = %d, %v", total, err)
				}
				sf.failFirst(p, r)
				done := false
				sf.env.Spawn("failer", func(q *sim.Proc) {
					for !done && !sf.failNext() {
						q.Sleep(10 * time.Microsecond)
					}
				})
				for {
					n, err := r.Read(p, 4*mib)
					if err != nil {
						t.Errorf("read failed at %d of %d bytes: %v", total, sf.size, err)
						break
					}
					if n == 0 {
						break
					}
					total += n
				}
				done = true
				if total != sf.size && !t.Failed() {
					t.Errorf("read %d bytes, want %d", total, sf.size)
				}
			})
			sf.env.Run()
			if dl := sf.env.Deadlocked(); len(dl) != 0 {
				t.Fatalf("deadlocked: %v", dl)
			}
			sf.check(t)
		})
	}
}

// hdfsSkipFallback reads a 64 MiB block from node 5, which holds a
// replica: the local replica fails, then the remote replica the reader
// picks, and the last replica serves the whole block.
func hdfsSkipFallback(t *testing.T) *skipFallback {
	c := cluster.New(cluster.Config{
		Nodes:     6,
		RacksOf:   4,
		Transport: netsim.IPoIB,
		Hardware:  cluster.HardwareSpec{SSDCapacity: 2 << 30},
		Seed:      11,
	})
	h, err := hdfs.New(c, hdfs.Config{BlockSize: 64 * mib, PacketSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	ssdRead := func(id netsim.NodeID) int64 {
		n, _, _, _ := c.Nodes[id].SSD.Stats()
		return n
	}
	var hosts []netsim.NodeID
	var failed []netsim.NodeID
	sf := &skipFallback{
		env: c.Env, fs: h, writer: 5, reader: 5, size: 64 * mib, prefix: 2 * mib,
		shutdown: h.Shutdown,
	}
	sf.failFirst = func(p *sim.Proc, _ dfs.Reader) {
		locs, err := h.BlockLocations(p, 5, "/f")
		if err != nil || len(locs) != 1 || len(locs[0].Hosts) != 3 {
			t.Fatalf("locations = %v, %v", locs, err)
		}
		hosts = locs[0].Hosts
		h.FailDataNodeProcess(5)
		failed = append(failed, 5)
	}
	sf.failNext = func() bool {
		for _, id := range hosts {
			if id != 5 && ssdRead(id) > 0 {
				h.FailDataNodeProcess(id)
				failed = append(failed, id)
				return true
			}
		}
		return false
	}
	sf.check = func(t *testing.T) {
		if len(failed) != 2 {
			t.Fatalf("failed replicas %v: the reader never fell back to a remote replica", failed)
		}
		for _, id := range hosts {
			if id == failed[0] || id == failed[1] {
				continue
			}
			if got := ssdRead(id); got != sf.size {
				t.Errorf("last replica dn%d served %d bytes, want the whole block (%d)", id, got, sf.size)
			}
		}
		if got := h.Stats().ReplicaRetries; got != 2 {
			t.Errorf("ReplicaRetries = %d, want 2", got)
		}
	}
	return sf
}

// bbSkipFallback reads a 16 MiB block held by two buffer servers and
// Lustre: the primary fails, then the second replica, and Lustre serves.
func bbSkipFallback(t *testing.T) *skipFallback {
	cfg := testCfg("bb-sync")
	cfg.Servers = 3
	cfg.BufferReplicas = 2
	rig := newRig(2, cfg)
	var next *BufferServer
	sf := &skipFallback{
		env: rig.c.Env, fs: rig.fs, writer: 0, reader: 1, size: 16 * mib, prefix: 8 * mib,
		shutdown: rig.pool.Shutdown,
	}
	sf.failFirst = func(p *sim.Proc, r dfs.Reader) {
		srvs := r.(*bbReader).blocks[0].srvs
		if len(srvs) != 2 {
			t.Fatalf("block on %d buffer servers, want 2", len(srvs))
		}
		next = srvs[1]
		rig.pool.FailServer(srvs[0].index)
	}
	sf.failNext = func() bool {
		if rig.fs.stats.ReadsBuffer < 2 {
			return false
		}
		rig.pool.FailServer(next.index)
		return true
	}
	sf.check = func(t *testing.T) {
		st := rig.fs.stats
		if st.ReadsBuffer != 2 || st.ReadsLustre != 1 {
			t.Errorf("sources: %d buffer, %d Lustre; want 2 and 1", st.ReadsBuffer, st.ReadsLustre)
		}
	}
	return sf
}
