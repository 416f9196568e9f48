package hbb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbb/internal/dfs"
	"hbb/internal/memcached"
	"hbb/internal/metrics"
)

func newTB(t *testing.T, opts Options) *Testbed {
	t.Helper()
	if opts.Nodes == 0 {
		opts.Nodes = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 99
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
		{"negative nodes", Options{Nodes: -1}, "node"},
		{"negative nodes per rack", Options{RacksOf: -3}, "rack"},
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

// TestPaperClaims checks the abstract's claims on the published tables:
// fig3, fig4, fig5, fig8, fig9 and tab1 rendered once at ScaleFull, where
// EXPERIMENTS.md's numbers come from (at ScaleSmall Sort orders bb <
// lustre < hdfs and fig9 loses no block). Each row is one claim: an
// experiment, an extractor that reads one value per matching row (one per
// data size in the sweeps), and the band every value must fall in. The
// six tables' FNV-64a is pinned too, so no published number moves without
// a failure here.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("renders six experiments at full scale")
	}
	const want = "a02f77e3d0715566"
	tabs := map[string]*metrics.Table{}
	h := fnv.New64a()
	for _, id := range []string{"fig3", "fig4", "fig5", "fig8", "fig9", "tab1"} {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		tabs[id] = e.Run(ScaleFull)
		h.Write([]byte(tabs[id].String()))
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("full-scale claim tables FNV-64a = %s, want %s (EXPERIMENTS.md quotes these tables)", got, want)
	}

	// col reads column c of backend b's rows in order; "true"/"false"
	// read as 1/0 and a "%" suffix is dropped.
	col := func(tab *metrics.Table, b, c string) []float64 {
		ci, bi := -1, -1
		for i, name := range tab.Columns {
			switch name {
			case c:
				ci = i
			case "backend", "scheme":
				bi = i
			}
		}
		if ci < 0 || bi < 0 {
			t.Fatalf("%s: no column %q beside a backend column", tab.Title, c)
		}
		var out []float64
		for _, row := range tab.Rows {
			if row[bi] != b {
				continue
			}
			cell := strings.TrimSuffix(row[ci], "%")
			switch cell {
			case "true":
				cell = "1"
			case "false":
				cell = "0"
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s: %s %s: %v", tab.Title, b, c, err)
			}
			out = append(out, v)
		}
		return out
	}
	type extractor func(*metrics.Table) []float64
	value := func(b, c string) extractor {
		return func(tab *metrics.Table) []float64 { return col(tab, b, c) }
	}
	// over is b's value as a multiple of base's, row by row.
	over := func(b, base, c string) extractor {
		return func(tab *metrics.Table) []float64 {
			vs, bases := col(tab, b, c), col(tab, base, c)
			for i := range vs {
				vs[i] /= bases[i]
			}
			return vs
		}
	}
	// cut is how many percent b's time is below base's, row by row.
	cut := func(b, base, c string) extractor {
		ratio := over(b, base, c)
		return func(tab *metrics.Table) []float64 {
			vs := ratio(tab)
			for i := range vs {
				vs[i] = 100 * (1 - vs[i])
			}
			return vs
		}
	}
	above1, below1, inf := math.Nextafter(1, 2), math.Nextafter(1, 0), math.Inf(1)
	for _, c := range []struct {
		exp, claim string
		get        extractor
		lo, hi     float64
	}{
		{"fig3", "bb-async writes 2.2-2.7x hdfs", over("bb-async", "hdfs", "MB/s"), 2.2, 2.7},
		{"fig3", "bb-async writes 1.2-1.5x lustre", over("bb-async", "lustre", "MB/s"), 1.2, 1.5},
		{"fig3", "lustre writes faster than hdfs", over("lustre", "hdfs", "MB/s"), above1, inf},
		{"fig4", "bb-async reads 3-6x lustre", over("bb-async", "lustre", "MB/s"), 3, 6},
		{"fig4", "bb-locality reads 8-11x lustre", over("bb-locality", "lustre", "MB/s"), 8, 11},
		{"fig5", "bb-async sorts 15-28% faster than lustre", cut("bb-async", "lustre", "time(s)"), 15, 28},
		{"fig5", "bb-async sorts 10-19% faster than hdfs", cut("bb-async", "hdfs", "time(s)"), 10, 19},
		{"fig5", "hdfs sorts faster than lustre", over("hdfs", "lustre", "time(s)"), 0, below1},
		{"fig8", "bb-async mix makespan at least 50% below hdfs", cut("bb-async", "hdfs", "makespan(s)"), 50, 100},
		{"fig8", "bb-async mix makespan at least 50% below lustre", cut("bb-async", "lustre", "makespan(s)"), 50, 100},
		{"fig9", "bb-async cannot read after the crash", value("bb-async", "read-ok"), 0, 0},
		{"fig9", "bb-async loses blocks", value("bb-async", "lost-blocks"), 1, inf},
		{"fig9", "bb-locality loses no block", value("bb-locality", "lost-blocks"), 0, 0},
		{"fig9", "bb-locality recovers blocks from its local replicas", value("bb-locality", "recovered"), 1, inf},
		{"fig9", "bb-sync loses no block", value("bb-sync", "lost-blocks"), 0, 0},
		{"tab1", "hdfs keeps 3 local replicas", value("hdfs", "of-dataset"), 300, 300},
		{"tab1", "lustre keeps nothing local", value("lustre", "of-dataset"), 0, 0},
		{"tab1", "bb-async keeps nothing local", value("bb-async", "of-dataset"), 0, 0},
		{"tab1", "bb-locality keeps one local replica", value("bb-locality", "of-dataset"), 100, 100},
		{"tab1", "bb-sync keeps nothing local", value("bb-sync", "of-dataset"), 0, 0},
	} {
		vals := c.get(tabs[c.exp])
		if len(vals) == 0 {
			t.Errorf("%s: %s: no rows to check", c.exp, c.claim)
		}
		for i, v := range vals {
			if v < c.lo || v > c.hi {
				t.Errorf("%s: %s: row %d reads %.4g, outside [%g, %g]", c.exp, c.claim, i, v, c.lo, c.hi)
			}
		}
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
		// Write-through leaves nothing only in the buffer: with every
		// server down, a file still reads whole from Lustre.
		for i := 1; i < 4; i++ {
			ctx.FailBufferServer(BackendBBSync, i)
		}
		if n, err := ctx.ReadFile(BackendBBSync, 1, "/d/part-m-00000"); err != nil || n != 128<<20 {
			t.Errorf("read after total buffer loss: %d bytes, %v", n, err)
		}
	})
	st, ok := tb.BurstBufferStats(BackendBBSync)
	if !ok || st.BlocksLost != 0 {
		t.Errorf("sync scheme lost blocks: %+v", st)
	}

	// A compute node's crash kills its DataNode: the file's other
	// replicas serve reads at once, and the NameNode re-replicates each
	// of its four blocks off the dead node.
	tb = newTB(t, Options{Nodes: 8})
	tb.Run(func(ctx *Ctx) {
		if err := ctx.WriteFile(BackendHDFS, 0, "/h", 512<<20); err != nil {
			t.Fatal(err)
		}
		ctx.FailNode(0)
		if n, err := ctx.ReadFile(BackendHDFS, 3, "/h"); err != nil || n != 512<<20 {
			t.Errorf("read after node crash: %d bytes, %v", n, err)
		}
		ctx.Sleep(20 * time.Second)
		if got := tb.HDFSStats().Rereplications; got != 4 {
			t.Errorf("re-replications = %d, want 4", got)
		}
		if n, err := ctx.ReadFile(BackendHDFS, 5, "/h"); err != nil || n != 512<<20 {
			t.Errorf("read after re-replication: %d bytes, %v", n, err)
		}
	})
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
