package hbb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hbb/internal/dfs"
	"hbb/internal/memcached"
)

func newTB(t *testing.T, opts Options) *Testbed {
	t.Helper()
	if opts.Nodes == 0 {
		opts.Nodes = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 99
	}
	if opts.ChunkSize == 0 {
		opts.ChunkSize = 4 << 20
	}
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestBadOptions(t *testing.T) {
	if _, err := New(Options{Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := New(Options{Hardware: "abacus"}); err == nil {
		t.Error("unknown hardware accepted")
	}
}

// TestNewRejectsUnbuildableSettings: settings no backend can be built
// from are an error from New, never a panic in a constructor or mid-run.
func TestNewRejectsUnbuildableSettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"negative flushers", Options{BBFlushers: -1}, "Flushers"},
		{"negative servers", Options{BBServers: -2}, "Servers"},
		{"server memory below one block", Options{BBServerMemory: 1 << 20}, "cannot admit"},
		{"negative OSTs", Options{LustreOSTs: -1}, "OSTs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("New panicked: %v", r)
				}
			}()
			tb, err := New(tc.opts)
			if err == nil {
				// A testbed that was built must also run.
				tb.Run(func(ctx *Ctx) { _, _ = ctx.DFSIOWrite(BackendLustre, "/b", 2, 1<<20) })
				t.Fatal("New accepted the settings")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestBackendStrings(t *testing.T) {
	want := []string{"hdfs", "lustre", "bb-async", "bb-locality", "bb-sync", "bb-adaptive"}
	for i, b := range AllBackends {
		if b.String() != want[i] {
			t.Errorf("backend %d = %q, want %q", i, b, want[i])
		}
	}
	if got := Backend(99).String(); got != "backend(99)" {
		t.Errorf("out-of-range String() = %q, want %q", got, "backend(99)")
	}
}

func TestParseBackend(t *testing.T) {
	for _, b := range AllBackends {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	if _, err := ParseBackend("bb-nonesuch"); err == nil {
		t.Error("ParseBackend accepted an unknown name")
	} else if !strings.Contains(err.Error(), "bb-adaptive") {
		t.Errorf("error %q does not list registered backends", err)
	}
}

func TestRunTwicePanics(t *testing.T) {
	tb := newTB(t, Options{})
	tb.Run(func(ctx *Ctx) {})
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	tb.Run(func(ctx *Ctx) {})
}

func TestWriteReadEveryBackend(t *testing.T) {
	const size = 96 << 20
	for _, b := range AllBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			tb := newTB(t, Options{})
			tb.Run(func(ctx *Ctx) {
				if err := ctx.WriteFile(b, 0, "/t/file", size); err != nil {
					t.Fatalf("write: %v", err)
				}
				fi, err := ctx.Stat(b, 1, "/t/file")
				if err != nil || fi.Size != size {
					t.Fatalf("stat = %+v, %v", fi, err)
				}
				n, err := ctx.ReadFile(b, 2, "/t/file")
				if err != nil || n != size {
					t.Fatalf("read = %d, %v", n, err)
				}
				if err := ctx.Delete(b, 0, "/t/file"); err != nil {
					t.Fatalf("delete: %v", err)
				}
				if _, err := ctx.Stat(b, 0, "/t/file"); !errors.Is(err, dfs.ErrNotFound) {
					t.Fatalf("stat after delete: %v", err)
				}
			})
			if dl := tb.Deadlocked(); len(dl) != 0 {
				t.Fatalf("deadlocked: %v", dl)
			}
		})
	}
}

// TestHeadlineWriteOrdering asserts the paper's fig3 shape: the async
// burst buffer out-writes Lustre, which out-writes stock HDFS.
func TestHeadlineWriteOrdering(t *testing.T) {
	const files = 16
	const fileSize = 512 << 20
	mbps := map[Backend]float64{}
	for _, b := range []Backend{BackendHDFS, BackendLustre, BackendBBAsync} {
		b := b
		tb := newTB(t, Options{Nodes: 8})
		tb.Run(func(ctx *Ctx) {
			res, err := ctx.DFSIOWrite(b, "/bench", files, fileSize)
			if err != nil {
				t.Fatalf("%v write: %v", b, err)
			}
			mbps[b] = res.AggregateMBps()
		})
	}
	h, l, bb := mbps[BackendHDFS], mbps[BackendLustre], mbps[BackendBBAsync]
	if !(bb > l && l > h) {
		t.Errorf("write ordering bb(%.0f) > lustre(%.0f) > hdfs(%.0f) violated", bb, l, h)
	}
	if bb/h < 1.8 || bb/h > 4.0 {
		t.Errorf("bb/hdfs write gain = %.2fx; paper shape is ~2.6x", bb/h)
	}
	if bb/l < 1.1 || bb/l > 2.2 {
		t.Errorf("bb/lustre write gain = %.2fx; paper shape is ~1.5x", bb/l)
	}
}

// TestHeadlineReadGain asserts the fig4 shape: buffered reads beat Lustre
// reads by a large multiple.
func TestHeadlineReadGain(t *testing.T) {
	const files = 16
	const fileSize = 512 << 20
	mbps := map[Backend]float64{}
	for _, b := range []Backend{BackendLustre, BackendBBAsync, BackendBBLocality} {
		b := b
		tb := newTB(t, Options{Nodes: 8})
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(b, "/bench", files, fileSize); err != nil {
				t.Fatalf("%v write: %v", b, err)
			}
			res, err := ctx.DFSIORead(b, "/bench")
			if err != nil {
				t.Fatalf("%v read: %v", b, err)
			}
			mbps[b] = res.AggregateMBps()
		})
	}
	if gain := mbps[BackendBBAsync] / mbps[BackendLustre]; gain < 3 {
		t.Errorf("bb-async/lustre read gain = %.1fx; paper shape is 'up to 8x'", gain)
	}
	if gain := mbps[BackendBBLocality] / mbps[BackendLustre]; gain < 5 {
		t.Errorf("bb-locality/lustre read gain = %.1fx; paper shape is 'up to 8x'", gain)
	}
}

// TestHeadlineSortOrdering asserts the fig5 shape: burst buffer sorts
// fastest, stock HDFS second, Hadoop-on-Lustre slowest.
func TestHeadlineSortOrdering(t *testing.T) {
	const maps = 16
	const total = int64(2) << 30
	times := map[Backend]time.Duration{}
	for _, b := range []Backend{BackendHDFS, BackendLustre, BackendBBAsync} {
		b := b
		tb := newTB(t, Options{Nodes: 8})
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.RandomWriter(b, "/rw", maps, total/maps); err != nil {
				t.Fatalf("%v randomwriter: %v", b, err)
			}
			res, err := ctx.Sort(b, "/rw", "/sorted", 16)
			if err != nil {
				t.Fatalf("%v sort: %v", b, err)
			}
			times[b] = res.Duration
		})
	}
	h, l, bb := times[BackendHDFS], times[BackendLustre], times[BackendBBAsync]
	if !(bb < h && h < l) {
		t.Errorf("sort ordering bb(%v) < hdfs(%v) < lustre(%v) violated", bb, h, l)
	}
	if cut := 1 - bb.Seconds()/l.Seconds(); cut < 0.10 || cut > 0.45 {
		t.Errorf("sort cut vs lustre = %.0f%%; paper shape is ~28%%", cut*100)
	}
	if cut := 1 - bb.Seconds()/h.Seconds(); cut < 0.05 || cut > 0.40 {
		t.Errorf("sort cut vs hdfs = %.0f%%; paper shape is ~19%%", cut*100)
	}
}

func TestLocalStorageFootprint(t *testing.T) {
	const files = 8
	const fileSize = 256 << 20
	used := map[Backend]int64{}
	for _, b := range []Backend{BackendHDFS, BackendBBAsync, BackendBBLocality} {
		b := b
		tb := newTB(t, Options{})
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(b, "/d", files, fileSize); err != nil {
				t.Fatalf("%v: %v", b, err)
			}
			ctx.DrainBurstBuffer(b)
			used[b] = tb.LocalStorageUsed()
		})
	}
	total := int64(files) * fileSize
	if used[BackendHDFS] != 3*total {
		t.Errorf("hdfs local usage = %d, want 3x dataset", used[BackendHDFS])
	}
	if used[BackendBBAsync] != 0 {
		t.Errorf("bb-async local usage = %d, want 0", used[BackendBBAsync])
	}
	if used[BackendBBLocality] != total {
		t.Errorf("bb-locality local usage = %d, want 1x dataset", used[BackendBBLocality])
	}
}

func TestFaultInjectionViaPublicAPI(t *testing.T) {
	tb := newTB(t, Options{Nodes: 6})
	tb.Run(func(ctx *Ctx) {
		if _, err := ctx.DFSIOWrite(BackendBBSync, "/d", 8, 128<<20); err != nil {
			t.Fatal(err)
		}
		ctx.FailBufferServer(BackendBBSync, 0)
		res, err := ctx.DFSIORead(BackendBBSync, "/d")
		if err != nil {
			t.Fatalf("read after server crash: %v", err)
		}
		if res.MapTasks != 8 {
			t.Errorf("read tasks = %d", res.MapTasks)
		}
	})
	st, ok := tb.BurstBufferStats(BackendBBSync)
	if !ok || st.BlocksLost != 0 {
		t.Errorf("sync scheme lost blocks: %+v", st)
	}
}

func TestConcurrentDriversWithGo(t *testing.T) {
	tb := newTB(t, Options{})
	var aDone, bDone bool
	tb.Run(func(ctx *Ctx) {
		ja := ctx.Go("a", func(c *Ctx) {
			_ = c.WriteFile(BackendBBAsync, 0, "/a", 64<<20)
			aDone = true
		})
		jb := ctx.Go("b", func(c *Ctx) {
			_ = c.WriteFile(BackendBBAsync, 1, "/b", 64<<20)
			bDone = true
		})
		ja.Wait(ctx)
		jb.Wait(ctx)
	})
	if !aDone || !bDone {
		t.Error("concurrent drivers did not finish")
	}
}

func TestDeterministicTestbeds(t *testing.T) {
	run := func() time.Duration {
		tb := newTB(t, Options{})
		var d time.Duration
		tb.Run(func(ctx *Ctx) {
			res, err := ctx.DFSIOWrite(BackendBBLocality, "/d", 8, 128<<20)
			if err != nil {
				t.Fatal(err)
			}
			d = res.Duration
		})
		return d
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs: %v vs %v", a, b)
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if len(seen) != 19 {
		t.Errorf("%d experiments, want 19 (10 figures + 9 tables)", len(seen))
	}
	if _, ok := ExperimentByID("fig3"); !ok {
		t.Error("fig3 not found")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestMicrobenchExperimentsProduceTables(t *testing.T) {
	for _, id := range []string{"fig1", "fig2"} {
		e, _ := ExperimentByID(id)
		tbl := e.Run(ScaleSmall)
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		if !strings.Contains(tbl.String(), id) {
			t.Errorf("%s table missing its title", id)
		}
	}
	// Their engines hold size-only items up to 1 MiB: the books of the
	// slab classes, none of the memory.
	if m := memcached.MappedBytes(); m != 0 {
		t.Errorf("the simulator mapped %d bytes of slab memory", m)
	}
}

func TestFig1ShowsRDMAAdvantage(t *testing.T) {
	e, _ := ExperimentByID("fig1")
	tbl := e.Run(ScaleSmall)
	// Row layout: value, transport, set(µs), get(µs); RDMA rows precede
	// IPoIB rows per size. Spot-check the smallest size.
	var rdmaSet, ipoibSet string
	for _, row := range tbl.Rows {
		if row[0] == "1B" && row[1] == "rdma-fdr" {
			rdmaSet = row[2]
		}
		if row[0] == "1B" && row[1] == "ipoib-fdr" {
			ipoibSet = row[2]
		}
	}
	if rdmaSet == "" || ipoibSet == "" {
		t.Fatalf("missing rows in fig1 table:\n%s", tbl)
	}
	var r, ip float64
	if _, err := sscan(rdmaSet, &r); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(ipoibSet, &ip); err != nil {
		t.Fatal(err)
	}
	if ip < 5*r {
		t.Errorf("IPoIB 1B set (%vµs) should be >5x RDMA (%vµs)", ip, r)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// TestAllExperimentsRegenerate runs every experiment at small scale so the
// harness behind bbench and EXPERIMENTS.md cannot silently rot. Roughly
// fifteen seconds of wall time; skipped under -short.
func TestAllExperimentsRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(ScaleSmall)
			if tbl == nil || len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tbl.Columns))
				}
			}
		})
	}
}

func TestReplicationViaPublicAPI(t *testing.T) {
	tb := newTB(t, Options{Nodes: 4, BBReplicas: 2, BBFlushers: 1})
	tb.Run(func(ctx *Ctx) {
		if _, err := ctx.DFSIOWrite(BackendBBAsync, "/d", 8, 64<<20); err != nil {
			t.Fatal(err)
		}
		ctx.FailBufferServer(BackendBBAsync, 0)
		res, err := ctx.DFSIORead(BackendBBAsync, "/d")
		if err != nil || res.BytesInput != 8*64<<20 {
			t.Fatalf("read after crash: %v (%d bytes)", err, res.BytesInput)
		}
	})
	st, _ := tb.BurstBufferStats(BackendBBAsync)
	if st.BlocksLost != 0 || st.Promotions == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPrestageViaPublicAPI(t *testing.T) {
	tb := newTB(t, Options{Nodes: 4, BBServerMemory: 1 << 30})
	tb.Run(func(ctx *Ctx) {
		// Fill well past buffer capacity so early files get evicted.
		if _, err := ctx.DFSIOWrite(BackendBBAsync, "/a", 8, 256<<20); err != nil {
			t.Fatal(err)
		}
		ctx.DrainBurstBuffer(BackendBBAsync)
		if _, err := ctx.DFSIOWrite(BackendBBAsync, "/b", 8, 512<<20); err != nil {
			t.Fatal(err)
		}
		ctx.DrainBurstBuffer(BackendBBAsync)
		ctx.Cleanup(BackendBBAsync, "/b")
		staged := 0
		for i := 0; i < 8; i++ {
			n, err := ctx.Prestage(BackendBBAsync, 0, fmt.Sprintf("/a/part-m-%05d", i))
			if err != nil {
				t.Fatalf("prestage: %v", err)
			}
			staged += n
		}
		if staged == 0 {
			t.Fatal("nothing staged despite evictions")
		}
		if _, err := ctx.Prestage(BackendHDFS, 0, "/a"); err == nil {
			t.Error("prestage on a non-buffer backend accepted")
		}
	})
	st, _ := tb.BurstBufferStats(BackendBBAsync)
	if st.Readmissions == 0 {
		t.Error("no readmissions after prestage")
	}
}

// TestFileSystemConformance runs one shared semantic contract against all
// five backends: namespace behaviour, empty files, many small files,
// sequential EOF, double-close, and error returns.
func TestFileSystemConformance(t *testing.T) {
	for _, b := range AllBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			tb := newTB(t, Options{})
			tb.Run(func(ctx *Ctx) {
				fs := ctx.FSFor(b)
				p := ctx.p

				// Mkdir + nested create + list ordering.
				if err := fs.Mkdir(p, 0, "/c/d"); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				for _, name := range []string{"zz", "aa", "mm"} {
					w, err := fs.Create(p, 0, "/c/d/"+name)
					if err != nil {
						t.Fatalf("create %s: %v", name, err)
					}
					if err := w.Write(p, 1<<20); err != nil {
						t.Fatalf("write: %v", err)
					}
					if err := w.Close(p); err != nil {
						t.Fatalf("close: %v", err)
					}
				}
				fis, err := fs.List(p, 1, "/c/d")
				if err != nil || len(fis) != 3 {
					t.Fatalf("list = %v, %v", fis, err)
				}
				if fis[0].Path != "/c/d/aa" || fis[2].Path != "/c/d/zz" {
					t.Errorf("list not name-ordered: %v", fis)
				}

				// Duplicate create fails; create over a directory fails.
				if _, err := fs.Create(p, 0, "/c/d/aa"); !errors.Is(err, dfs.ErrExists) {
					t.Errorf("duplicate create: %v", err)
				}
				if _, err := fs.Create(p, 0, "/c/d"); !errors.Is(err, dfs.ErrIsDir) {
					t.Errorf("create over dir: %v", err)
				}

				// Empty file round-trips.
				w, err := fs.Create(p, 2, "/c/empty")
				if err != nil {
					t.Fatalf("create empty: %v", err)
				}
				if err := w.Close(p); err != nil {
					t.Fatalf("close empty: %v", err)
				}
				fi, err := fs.Stat(p, 0, "/c/empty")
				if err != nil || fi.Size != 0 {
					t.Fatalf("stat empty = %+v, %v", fi, err)
				}
				r, err := fs.Open(p, 0, "/c/empty")
				if err != nil {
					t.Fatalf("open empty: %v", err)
				}
				if n, err := r.Read(p, 1024); err != nil || n != 0 {
					t.Errorf("read empty = %d, %v", n, err)
				}
				if err := r.Close(p); err != nil {
					t.Errorf("close reader: %v", err)
				}
				if err := r.Close(p); !errors.Is(err, dfs.ErrClosed) {
					t.Errorf("double close: %v", err)
				}

				// Sequential read hits EOF exactly at the file size.
				r2, _ := fs.Open(p, 3, "/c/d/aa")
				var total int64
				for {
					n, err := r2.Read(p, 300<<10)
					if err != nil {
						t.Fatalf("read: %v", err)
					}
					if n == 0 {
						break
					}
					total += n
				}
				if total != 1<<20 {
					t.Errorf("read %d, want 1MiB", total)
				}
				r2.Close(p)

				// Writer double close errors; write after close errors.
				w2, _ := fs.Create(p, 0, "/c/w")
				w2.Write(p, 1<<20)
				if err := w2.Close(p); err != nil {
					t.Fatalf("close: %v", err)
				}
				if err := w2.Close(p); !errors.Is(err, dfs.ErrClosed) {
					t.Errorf("double close writer: %v", err)
				}
				if err := w2.Write(p, 1); !errors.Is(err, dfs.ErrClosed) {
					t.Errorf("write after close: %v", err)
				}

				// Deleting a non-empty directory fails; files first, then ok.
				if err := fs.Delete(p, 0, "/c/d"); err == nil {
					t.Error("deleted non-empty directory")
				}
				for _, name := range []string{"zz", "aa", "mm"} {
					if err := fs.Delete(p, 0, "/c/d/"+name); err != nil {
						t.Fatalf("delete %s: %v", name, err)
					}
				}
				if err := fs.Delete(p, 0, "/c/d"); err != nil {
					t.Errorf("delete empty dir: %v", err)
				}
				if _, err := fs.Open(p, 0, "/c/d/aa"); !errors.Is(err, dfs.ErrNotFound) {
					t.Errorf("open deleted: %v", err)
				}

				// Relative paths rejected.
				if _, err := fs.Create(p, 0, "relative"); err == nil {
					t.Error("relative path accepted")
				}
				ctx.DrainBurstBuffer(b)
			})
			if dl := tb.Deadlocked(); len(dl) != 0 {
				t.Fatalf("deadlocked: %v", dl)
			}
		})
	}
}

func TestTraceOption(t *testing.T) {
	var buf strings.Builder
	tb := newTB(t, Options{Trace: &buf})
	tb.Run(func(ctx *Ctx) {
		if err := ctx.WriteFile(BackendBBAsync, 0, "/t/f", 32<<20); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.ReadFile(BackendHDFS, 0, "/missing"); err == nil {
			t.Fatal("expected miss")
		}
		ctx.DrainBurstBuffer(BackendBBAsync)
	})
	out := buf.String()
	if !strings.Contains(out, "bb-async node=0 create /t/f ok") {
		t.Errorf("trace missing create line:\n%s", out)
	}
	if !strings.Contains(out, "write /t/f (33554432 bytes) ok") {
		t.Errorf("trace missing write line:\n%s", out)
	}
	if !strings.Contains(out, "hdfs node=0 open /missing dfs:") {
		t.Errorf("trace missing error line:\n%s", out)
	}
}

// TestScale64Nodes exercises the biggest fig7 configuration end to end
// (64 compute nodes, 32 buffer servers, 128 GiB written and read).
func TestScale64Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node run skipped in -short mode")
	}
	tb := newTB(t, Options{Nodes: 64, BBServers: 32})
	var wtp, rtp float64
	tb.Run(func(ctx *Ctx) {
		w, err := ctx.DFSIOWrite(BackendBBAsync, "/big", 256, 512<<20)
		if err != nil {
			t.Fatal(err)
		}
		wtp = w.AggregateMBps()
		r, err := ctx.DFSIORead(BackendBBAsync, "/big")
		if err != nil {
			t.Fatal(err)
		}
		rtp = r.AggregateMBps()
	})
	if dl := tb.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked: %v", dl)
	}
	// 32 servers x 1.5 GB/s set-side = 48 GB/s ceiling; expect a healthy
	// fraction of it, and reads well above writes (one-sided GETs).
	if wtp < 15000 {
		t.Errorf("64-node write = %.0f MB/s; pool not scaling", wtp)
	}
	if rtp < wtp {
		t.Errorf("read (%.0f) below write (%.0f); RDMA read path broken", rtp, wtp)
	}
}

// TestLocalitySchemeSchedulesLocalMaps: the locality scheme's node-local
// replicas must drive the MapReduce scheduler to data-local reads, while
// the async scheme offers no locality at all.
func TestLocalitySchemeSchedulesLocalMaps(t *testing.T) {
	local := map[Backend]int{}
	for _, b := range []Backend{BackendBBAsync, BackendBBLocality} {
		b := b
		tb := newTB(t, Options{Nodes: 8})
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(b, "/d", 32, 256<<20); err != nil {
				t.Fatal(err)
			}
			res, err := ctx.DFSIORead(b, "/d")
			if err != nil {
				t.Fatal(err)
			}
			local[b] = res.DataLocalMaps
		})
	}
	if local[BackendBBAsync] != 0 {
		t.Errorf("bb-async reported %d data-local maps; buffer data is never node-local", local[BackendBBAsync])
	}
	if local[BackendBBLocality] != 32 {
		t.Errorf("bb-locality scheduled %d/32 data-local maps", local[BackendBBLocality])
	}
}
