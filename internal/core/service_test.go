package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/hdfs"
	"hbb/internal/lustre"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// TestServiceCostOnIdleFabric pins what one call to each simulated server
// (dfs.Service) costs on an idle fabric: the request envelope, the op
// latency and the reply envelope, both envelopes priced by the transport
// the service rides (Legacy for the HDFS NameNode, Native for the Lustre
// MDS, the buffer manager and a buffer server), and the reply's size. It
// lives here because core is the one package that reaches all four
// services.
func TestServiceCostOnIdleFabric(t *testing.T) {
	legacy := netsim.IPoIB
	c := cluster.New(cluster.Config{
		Nodes: 2, Transport: netsim.RDMA, Legacy: &legacy,
		Hardware: cluster.HardwareSpec{RAMDiskCapacity: 2 << 30, SSDCapacity: 4 << 30},
		Seed:     5,
	})
	h, err := hdfs.New(c, hdfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l := lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2})
	pool := New(c, l, testCfg("bb-async")) // neither it nor HDFS is started: the fabric stays idle
	ph := pool.phys[0]
	// A buffer GET is answered from the share's ledger: held is a 1 MiB
	// block the share holds, gone one it does not.
	share := pool.DefaultInstance().Servers()[0]
	held, gone := &bbBlock{inst: share.fs, size: mib}, &bbBlock{inst: share.fs, size: mib}
	held.takeShare(share, mib)

	// envelope mirrors netsim's price of an n-byte envelope on a NIC no
	// flow crosses: software overhead at both ends and one latency, then
	// a second latency and the bytes serialized at line rate on each NIC.
	envelope := func(prof netsim.Profile, n int64) time.Duration {
		d := 2*prof.SWOverhead + prof.Latency
		if n > 0 {
			d += prof.Latency + 2*time.Duration(max(int64(float64(n)/prof.Bandwidth*1e9), 1))
		}
		return d
	}
	type server struct {
		node    netsim.NodeID
		prof    netsim.Profile
		reqSize int64
		latency time.Duration
	}
	nn := server{h.NNNode, netsim.IPoIB, 256, 50 * time.Microsecond}
	mds := server{l.MDSNode, netsim.RDMA, 256, 500 * time.Microsecond}
	mgr := server{pool.MgrNode, netsim.RDMA, 192, 30 * time.Microsecond}
	bb := server{ph.node, netsim.RDMA, 64, 3 * time.Microsecond}

	client := c.Nodes[0].ID
	type call struct {
		name  string
		srv   server
		reply int64
		do    func(p *sim.Proc) error
	}
	calls := []call{
		{name: "set", srv: bb, reply: 32, do: func(p *sim.Proc) error { return ph.set(p, client) }},
		{name: "get", srv: bb, reply: 32, do: func(p *sim.Proc) error {
			n, err := share.get(p, client, held, 0)
			if err == nil && n != mib {
				t.Errorf("get returned %d bytes, want %d", n, mib)
			}
			return err
		}},
		{name: "get/not-found", srv: bb, reply: 32, do: func(p *sim.Proc) error {
			if _, err := share.get(p, client, gone, 0); !errors.Is(err, dfs.ErrNotFound) {
				return fmt.Errorf("get of a block the share does not hold: %v, want ErrNotFound", err)
			}
			return nil
		}},
	}
	for _, fs := range []struct {
		name string
		fs   dfs.FileSystem
		srv  server
	}{{"hdfs", h, nn}, {"lustre", l, mds}, {"bb", pool.DefaultInstance(), mgr}} {
		fs := fs
		calls = append(calls,
			call{fs.name + "/mkdir", fs.srv, 64, func(p *sim.Proc) error { return fs.fs.Mkdir(p, client, "/d/a") }},
			call{fs.name + "/mkdir2", fs.srv, 64, func(p *sim.Proc) error { return fs.fs.Mkdir(p, client, "/d/b/c") }},
			call{fs.name + "/stat", fs.srv, 128, func(p *sim.Proc) error {
				fi, err := fs.fs.Stat(p, client, "/d/b")
				if err == nil && (fi.Path != "/d/b" || !fi.IsDir) {
					t.Errorf("%s: stat = %+v", fs.name, fi)
				}
				return err
			}},
			call{fs.name + "/list", fs.srv, 64 + 64*2, func(p *sim.Proc) error {
				fis, err := fs.fs.List(p, client, "/d")
				if err == nil && len(fis) != 2 {
					t.Errorf("%s: list = %v", fs.name, fis)
				}
				return err
			}},
		)
	}

	c.Env.Spawn("driver", func(p *sim.Proc) {
		for _, tc := range calls {
			sent0, recv0 := c.Net.Traffic(tc.srv.node)
			start := p.Now()
			if err := tc.do(p); err != nil {
				t.Errorf("%s: %v", tc.name, err)
				continue
			}
			want := envelope(tc.srv.prof, tc.srv.reqSize) + tc.srv.latency + envelope(tc.srv.prof, tc.reply)
			if got := p.Now() - start; got != want {
				t.Errorf("%s took %v, want %v", tc.name, got, want)
			}
			sent, recv := c.Net.Traffic(tc.srv.node)
			if sent-sent0 != tc.reply || recv-recv0 != tc.srv.reqSize {
				t.Errorf("%s: request %d B, reply %d B; want %d and %d", tc.name, recv-recv0, sent-sent0, tc.srv.reqSize, tc.reply)
			}
		}
	})
	c.Env.Run()
}
