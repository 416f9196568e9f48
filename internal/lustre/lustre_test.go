package lustre

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

const mib = int64(1) << 20

func runLustre(t *testing.T, nodes int, cfg Config, fn func(p *sim.Proc, l *Lustre)) (*cluster.Cluster, *Lustre, time.Duration) {
	t.Helper()
	c := cluster.New(cluster.Config{
		Nodes:     nodes,
		Transport: netsim.IPoIB,
		Hardware:  cluster.DisklessHardware(),
		Seed:      3,
	})
	l := New(c, cfg)
	c.Env.Spawn("driver", func(p *sim.Proc) { fn(p, l) })
	end := c.Env.Run()
	if dl := c.Env.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked: %v", dl)
	}
	return c, l, end
}

func TestWriteReadRoundTrip(t *testing.T) {
	const size = 40 * mib
	_, l, _ := runLustre(t, 4, Config{}, func(p *sim.Proc, l *Lustre) {
		w, err := l.Create(p, 0, "/out/f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := w.Write(p, size); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		fi, err := l.Stat(p, 1, "/out/f")
		if err != nil || fi.Size != size {
			t.Fatalf("stat = %+v, %v", fi, err)
		}
		r, err := l.Open(p, 2, "/out/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var total int64
		for {
			n, err := r.Read(p, 7*mib)
			if err != nil {
				t.Fatalf("read: %v", err)
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
	if l.Stats().BytesWritten != size || l.Stats().BytesRead != size {
		t.Errorf("stats = %+v", l.Stats())
	}
}

func TestStripingSpreadsAcrossOSTs(t *testing.T) {
	_, l, _ := runLustre(t, 2, Config{OSTs: 8, StripeCount: 4}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 64*mib)
		w.Close(p)
	})
	touched := 0
	for _, d := range l.OSTDevices() {
		_, wb, _, _ := d.Stats()
		if wb > 0 {
			touched++
		}
	}
	if touched != 4 {
		t.Errorf("%d OSTs touched, want stripe count 4", touched)
	}
}

func TestRoundRobinFileLayouts(t *testing.T) {
	// Two files with stripe count 4 over 8 OSTs should use disjoint sets.
	_, l, _ := runLustre(t, 2, Config{OSTs: 8, StripeCount: 4}, func(p *sim.Proc, l *Lustre) {
		for _, f := range []string{"/a", "/b"} {
			w, _ := l.Create(p, 0, f)
			w.Write(p, 16*mib)
			w.Close(p)
		}
	})
	used := 0
	for _, d := range l.OSTDevices() {
		if d.Used() > 0 {
			used++
		}
	}
	if used != 8 {
		t.Errorf("%d OSTs hold data, want 8 (round-robin start offsets)", used)
	}
}

func TestSingleStreamOverlapsStripes(t *testing.T) {
	// 64 MiB over 4 OSTs at 500 MB/s each: serialized would take
	// ~0.13s(dev)+~0.02s(net); with 4-way striping and an RPC window the
	// device time divides by ~4.
	var took time.Duration
	runLustre(t, 2, Config{OSTs: 4, StripeCount: 4}, func(p *sim.Proc, l *Lustre) {
		start := p.Now()
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 64*mib)
		w.Close(p)
		took = p.Now() - start
	})
	// Client NIC at IPoIB 3 GB/s: ~22ms floor. Devices in parallel: ~34ms.
	if took > 120*time.Millisecond {
		t.Errorf("64MiB striped write took %v; striping not overlapped", took)
	}
}

func TestSharedOSTContention(t *testing.T) {
	// N concurrent writers share the OST pool: aggregate is capped.
	cfg := Config{OSTs: 2, StripeCount: 2} // 1 GB/s aggregate
	var took time.Duration
	runLustre(t, 8, cfg, func(p *sim.Proc, l *Lustre) {
		start := p.Now()
		var wg sim.WaitGroup
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			l.cl.Env.Spawn("w", func(q *sim.Proc) {
				defer wg.Done()
				w, err := l.Create(q, netsim.NodeID(i), "/f"+string(rune('0'+i)))
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				w.Write(q, 128*mib)
				w.Close(q)
			})
		}
		wg.Wait(p)
		took = p.Now() - start
	})
	// 8 x 128 MiB = 1 GiB over ~1 GB/s aggregate: ~1.07s minimum.
	if took < time.Second {
		t.Errorf("8 concurrent writers finished in %v; OST pool not shared", took)
	}
}

func TestMetadataOps(t *testing.T) {
	runLustre(t, 2, Config{}, func(p *sim.Proc, l *Lustre) {
		if err := l.Mkdir(p, 0, "/d/e"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		w, _ := l.Create(p, 0, "/d/e/f")
		w.Write(p, mib)
		w.Close(p)
		fis, err := l.List(p, 1, "/d/e")
		if err != nil || len(fis) != 1 {
			t.Fatalf("list = %v, %v", fis, err)
		}
		if err := l.Delete(p, 1, "/d/e/f"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, err := l.Stat(p, 0, "/d/e/f"); !errors.Is(err, dfs.ErrNotFound) {
			t.Errorf("stat after delete: %v", err)
		}
		if _, err := l.Open(p, 0, "/nope"); !errors.Is(err, dfs.ErrNotFound) {
			t.Errorf("open missing: %v", err)
		}
	})
}

func TestDeleteFreesOSTSpace(t *testing.T) {
	_, l, _ := runLustre(t, 2, Config{OSTs: 4, StripeCount: 2}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 37*mib)
		w.Close(p)
		if err := l.Delete(p, 0, "/f"); err != nil {
			t.Fatal(err)
		}
	})
	for i, d := range l.OSTDevices() {
		if d.Used() != 0 {
			t.Errorf("OST %d still holds %d bytes", i, d.Used())
		}
	}
}

func TestCapacityExhaustion(t *testing.T) {
	runLustre(t, 2, Config{OSTs: 2, StripeCount: 2, OSTCapacity: 8 * mib}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		err := w.Write(p, 64*mib)
		if !errors.Is(err, dfs.ErrNoSpace) {
			t.Errorf("err = %v, want ErrNoSpace", err)
		}
	})
}

func TestOpenUnderConstructionFails(t *testing.T) {
	runLustre(t, 2, Config{}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, mib)
		if _, err := l.Open(p, 1, "/f"); !errors.Is(err, dfs.ErrReadOnly) {
			t.Errorf("open under construction: %v", err)
		}
		w.Close(p)
		if _, err := l.Open(p, 1, "/f"); err != nil {
			t.Errorf("open after close: %v", err)
		}
	})
}

func TestBlockLocationsAreRemote(t *testing.T) {
	runLustre(t, 2, Config{}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 300*mib)
		w.Close(p)
		locs, err := l.BlockLocations(p, 0, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if len(locs) != 3 { // 128+128+44
			t.Fatalf("locations = %d, want 3", len(locs))
		}
		for _, loc := range locs {
			if len(loc.Hosts) != 0 {
				t.Errorf("lustre reported node-local hosts: %v", loc)
			}
		}
	})
}

func TestReaderCloseEarly(t *testing.T) {
	runLustre(t, 2, Config{}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 32*mib)
		w.Close(p)
		r, _ := l.Open(p, 1, "/f")
		if _, err := r.Read(p, 4*mib); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(p); err != nil {
			t.Fatalf("early close: %v", err)
		}
	})
}

func TestStreamingReadReportsDownOSS(t *testing.T) {
	// An OSS node dies mid-file: the streaming reader must fail with the
	// transfer's error, as ReadRange does, not count the lost stripes as
	// delivered. runLustre checks no prefetch process is left parked.
	const size = 32 * mib
	runLustre(t, 2, Config{OSTs: 4, StripeCount: 4}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, size)
		w.Close(p)
		r, err := l.Open(p, 1, "/f")
		if err != nil {
			t.Fatal(err)
		}
		total, err := r.Read(p, 4*mib)
		if err != nil {
			t.Fatalf("read before the failure: %v", err)
		}
		l.net.SetDown(l.osts[2].node, true)
		for err == nil && total < size {
			var n int64
			n, err = r.Read(p, 4*mib)
			total += n
		}
		if !errors.Is(err, netsim.ErrNodeDown) {
			t.Errorf("streaming read with an OSS down: %d of %d bytes, err = %v; want ErrNodeDown", total, size, err)
		}
		if _, again := r.Read(p, mib); !errors.Is(again, netsim.ErrNodeDown) {
			t.Errorf("read after a failed read = %v, want the same ErrNodeDown", again)
		}
		if err := r.Close(p); err != nil {
			t.Errorf("close after a failed read: %v", err)
		}
		if err := l.ReadRange(p, 1, "/f", 0, size); !errors.Is(err, netsim.ErrNodeDown) {
			t.Errorf("ReadRange with an OSS down = %v, want ErrNodeDown", err)
		}
	})
}

func TestReadRangeExactCost(t *testing.T) {
	_, l, _ := runLustre(t, 2, Config{OSTs: 4, StripeCount: 4}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 64*mib)
		w.Close(p)
		before := l.Stats().BytesRead
		if err := l.ReadRange(p, 1, "/f", 10*mib, 7*mib); err != nil {
			t.Fatalf("read range: %v", err)
		}
		if got := l.Stats().BytesRead - before; got != 7*mib {
			t.Errorf("range read charged %d bytes, want exactly 7MiB", got)
		}
	})
	_ = l
}

func TestReadRangeValidation(t *testing.T) {
	runLustre(t, 2, Config{}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 8*mib)
		w.Close(p)
		if err := l.ReadRange(p, 0, "/f", 6*mib, 4*mib); err == nil {
			t.Error("range past EOF accepted")
		}
		if err := l.ReadRange(p, 0, "/f", -1, mib); err == nil {
			t.Error("negative offset accepted")
		}
		if err := l.ReadRange(p, 0, "/missing", 0, 1); err == nil {
			t.Error("range read of missing file accepted")
		}
	})
}

func TestReadRangeSpansStripes(t *testing.T) {
	_, l, _ := runLustre(t, 2, Config{OSTs: 4, StripeCount: 4}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 16*mib)
		w.Close(p)
		// A range covering stripes on all 4 OSTs: each device sees reads.
		if err := l.ReadRange(p, 1, "/f", 0, 8*mib); err != nil {
			t.Fatal(err)
		}
	})
	touched := 0
	for _, d := range l.OSTDevices() {
		if rb, _, _, _ := d.Stats(); rb > 0 {
			touched++
		}
	}
	if touched != 4 {
		t.Errorf("range read touched %d OSTs, want 4", touched)
	}
}

func TestPartialReaderDoesNotOverfetch(t *testing.T) {
	_, l, _ := runLustre(t, 2, Config{OSTs: 4, StripeCount: 4}, func(p *sim.Proc, l *Lustre) {
		w, _ := l.Create(p, 0, "/f")
		w.Write(p, 64*mib)
		w.Close(p)
		before := l.Stats().BytesRead
		r, _ := l.Open(p, 1, "/f")
		r.Read(p, 4*mib)
		r.Close(p)
		fetched := l.Stats().BytesRead - before
		// Demand 4 MiB + bounded read-ahead (2 stripes + window residue).
		if fetched > 16*mib {
			t.Errorf("partial read of 4MiB fetched %d bytes", fetched)
		}
	})
	_ = l
}

func TestTracedDecorator(t *testing.T) {
	var buf strings.Builder
	runLustre(t, 2, Config{}, func(p *sim.Proc, l *Lustre) {
		fs := dfs.Traced(l, &buf)
		if err := fs.Mkdir(p, 0, "/t"); err != nil {
			t.Fatal(err)
		}
		w, err := fs.Create(p, 0, "/t/f")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(p, 2*mib)
		w.Close(p)
		r, _ := fs.Open(p, 1, "/t/f")
		r.Read(p, mib)
		r.Close(p)
		if rr, ok := fs.(dfs.RangeReader); !ok {
			t.Error("traced lustre lost the RangeReader capability")
		} else if err := rr.ReadRange(p, 1, "/t/f", 0, mib); err != nil {
			t.Fatal(err)
		}
		fs.Stat(p, 0, "/t/f")
		fs.List(p, 0, "/t")
		fs.BlockLocations(p, 0, "/t/f")
		fs.Delete(p, 0, "/t/f")
		if _, err := fs.Open(p, 0, "/t/f"); err == nil {
			t.Error("open after delete succeeded")
		}
	})
	out := buf.String()
	for _, want := range []string{"mkdir /t ok", "create /t/f ok", "write /t/f (2097152 bytes) ok",
		"read /t/f (1048576 bytes) ok", "readrange /t/f[0:+1048576] ok",
		"stat /t/f ok", "list /t ok", "locations /t/f ok", "delete /t/f ok", "open /t/f dfs:"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q in:\n%s", want, out)
		}
	}
}
