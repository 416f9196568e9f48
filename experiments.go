package hbb

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hbb/internal/hashring"
	"hbb/internal/mapreduce"
	"hbb/internal/memcached"
	"hbb/internal/metrics"
	"hbb/internal/netsim"
	"hbb/internal/orchestrator"
	"hbb/internal/sim"
)

// Scale selects experiment sizing: ScaleSmall keeps runs test-suite fast;
// ScaleFull reproduces the paper's data volumes.
type Scale string

// Scales.
const (
	ScaleSmall Scale = "small"
	ScaleFull  Scale = "full"
)

// Experiment is one reproducible figure or table from the evaluation.
type Experiment struct {
	ID    string
	Title string
	// Claim is the paper statement the experiment validates.
	Claim string
	Run   func(scale Scale) *metrics.Table
}

// Experiments returns the full per-figure/table suite in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Memcached op latency vs value size and transport",
			"RDMA ops are several times cheaper than socket transports (enabling result)", fig1},
		{"fig2", "Memcached aggregate throughput vs client count",
			"client-partitioned KV store scales with concurrency", fig2},
		{"fig3", "TestDFSIO write throughput vs data size",
			"up to 2.6x over HDFS and 1.5x over Lustre", fig3},
		{"fig4", "TestDFSIO read throughput vs data size",
			"read throughput gain up to 8x", fig4},
		{"fig5", "Sort execution time vs data size",
			"sort time reduced up to 28% vs Lustre and 19% vs HDFS", fig5},
		{"fig6", "RandomWriter execution time vs data size",
			"write-path gains carry over to MapReduce jobs", fig6},
		{"fig7", "DFSIO throughput vs cluster size",
			"gains hold as the cluster scales", fig7},
		{"fig8", "I/O-intensive workload mix makespan",
			"significant benefit for I/O-intensive workloads", fig8},
		{"fig9", "Fault tolerance: buffer-server crash mid-workload",
			"schemes differ in loss window; sync and locality lose nothing", fig9},
		{"fig10", "Deployability on diskless compute nodes",
			"HDFS cannot hold paper-scale datasets on diskless HPC nodes; the buffer can (motivation)", fig10},
		{"tab1", "Local storage requirement per design",
			"burst buffer reduces local storage requirement", tab1},
		{"tab2", "Ablation: flusher pool size and buffer capacity",
			"design-choice sensitivity of the async scheme", tab2},
		{"tab3", "Ablation: Lustre stripe count and transport",
			"substrate sensitivity of the Lustre baseline", tab3},
		{"tab4", "Extension: in-buffer replication and read re-admission",
			"replication closes the async loss window for ~2x write cost; re-admission restores RDMA-speed re-reads", tab4},
		{"tab5", "Per-scheme burst-buffer metrics (incl. bb-adaptive)",
			"policies differ in flush latency, writer stalls, and read sources; the adaptive scheme write-throughs when calm and buffers under burst", tab5},
		{"tab6", "Stage-out data plane: coalesced flush and readahead",
			"coalescing adjacent dirty blocks into one Lustre object per run cuts drain time and metadata ops; block readahead overlaps fetch with streaming reads", tab6},
		{"tab7", "Multi-job buffer orchestration: FCFS vs backfill",
			"buffer instances carved from a shared brick pool let jobs run concurrently; backfill trades the blocked head job's queue wait for pool utilization and makespan, and stage-out overlaps the next tenant's compute", tab7},
		{"tab8", "Fleet-mode scaling: sharded kernel at datacenter node counts",
			"memory-lean flow-only nodes and a rack-sharded conservative DES keep a 10k-node DFSIO sweep within minutes and MBs/node, with a shard-count-invariant trace", tab8},
		{"tab9", "Open-loop swarm: million-client load generation on the sharded kernel",
			"16-byte client records and per-rack batched injection hold a million open-loop clients at ~zero heap and sub-event-per-request kernel cost, with a shard-invariant trace and adaptive sync keeping multi-shard overhead flat", tab9},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sweep runs run on every cell and returns the results in cell order.
// Cells run on min(GOMAXPROCS, len(cells)) goroutines, with GOMAXPROCS
// read at each call; GOMAXPROCS=1 runs them one at a time.
//
// Cells are handed out largest index first. Every sweep lists its cells
// with cost growing by index (more clients, more data), so the longest
// cell starts at once instead of running alone at the end.
//
// Each run must be self-contained (own Testbed / sim.Env), so a result
// depends on its cell alone and tables come out byte-identical at any
// worker count.
func sweep[C, R any](cells []C, run func(C) R) []R {
	out := make([]R, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), len(cells)); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := len(cells) - int(next.Add(1)); i >= 0; i = len(cells) - int(next.Add(1)) {
				out[i] = run(cells[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// pair is one cell of a two-axis sweep.
type pair[A, B any] struct {
	a A
	b B
}

// grid lists the (a, b) cells of a two-axis sweep, a as the outer axis.
func grid[A, B any](as []A, bs []B) []pair[A, B] {
	cells := make([]pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			cells = append(cells, pair[A, B]{a, b})
		}
	}
	return cells
}

// experiment sizing per scale.
type sizing struct {
	nodes      int
	files      int // DFSIO file count (= total map slots)
	dataSizes  []int64
	sortSizes  []int64
	scaleNodes []int
}

func sizingFor(scale Scale) sizing {
	gib := int64(1) << 30
	if scale == ScaleFull {
		return sizing{
			nodes:      8,
			files:      32,
			dataSizes:  []int64{20 * gib, 40 * gib, 60 * gib},
			sortSizes:  []int64{8 * gib, 16 * gib, 32 * gib},
			scaleNodes: []int{8, 16, 32, 64},
		}
	}
	return sizing{
		nodes:      4,
		files:      16,
		dataSizes:  []int64{2 * gib, 4 * gib},
		sortSizes:  []int64{1 * gib, 2 * gib},
		scaleNodes: []int{4, 8},
	}
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }

// cellTestbed builds one experiment cell's testbed from opts, with every
// experiment's seed (1).
func cellTestbed(opts Options) *Testbed {
	opts.Seed = 1
	tb, err := New(opts)
	if err != nil {
		panic(err)
	}
	return tb
}

// comparedBackends are the systems every macro-benchmark compares: the
// paper's five-system evaluation by default.
var comparedBackends = []Backend{BackendHDFS, BackendLustre, BackendBBAsync, BackendBBLocality, BackendBBSync}

// CompareBackends overrides the backend set the macro-benchmarks compare
// (cmd/bbench's -backends flag). The ratio columns still key off
// BackendHDFS and BackendLustre when those are in the set.
func CompareBackends(bs []Backend) {
	if len(bs) == 0 {
		return
	}
	comparedBackends = append([]Backend(nil), bs...)
}

// addVsRows adds one row per compared backend: lead, the backend, its
// value val(i) and cmp of that value against hdfs's and lustre's, "-"
// where that baseline is not compared.
func addVsRows(t *metrics.Table, val func(i int) float64, cmp func(v, base float64) string, lead ...any) {
	var h, l float64
	for i, b := range comparedBackends {
		switch b {
		case BackendHDFS:
			h = val(i)
		case BackendLustre:
			l = val(i)
		}
	}
	for i, b := range comparedBackends {
		v := val(i)
		t.AddRow(append(lead, b.String(), v, cmp(v, h), cmp(v, l))...)
	}
}

// addSizeRows adds fig3–fig6's rows: addVsRows for each data size in
// turn, with val(i) the value of cell i of grid(sizes, comparedBackends).
func addSizeRows(t *metrics.Table, sizes []int64, val func(i int) float64, cmp func(v, base float64) string) {
	n := len(comparedBackends)
	for s, total := range sizes {
		addVsRows(t, func(i int) float64 { return val(s*n + i) }, cmp, fmt.Sprintf("%.0f", gb(total)))
	}
}

// addRows adds rows to t in order.
func addRows(t *metrics.Table, rows [][]any) {
	for _, row := range rows {
		t.AddRow(row...)
	}
}

func ratio(v, base float64) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", v/base)
}

// delta formats a time saving versus a baseline (negative = faster).
func delta(v, base float64) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.0f%%", (v-base)/base*100)
}

// dfsioRun holds one backend's write+read measurement.
type dfsioRun struct {
	writeMBps float64
	readMBps  float64
}

// runDFSIO writes total bytes of DFSIO files and, when read is set, reads
// them back. bbServers > 0 lets scalability sweeps grow the buffer pool
// with the cluster (the paper deploys dedicated Memcached nodes
// proportionally).
func runDFSIO(sz sizing, nodes int, total int64, b Backend, bbServers int, read bool) (out dfsioRun) {
	tb := cellTestbed(Options{Nodes: nodes, BBServers: bbServers})
	files := max(sz.files*nodes/sz.nodes, nodes)
	fileSize := total / int64(files)
	tb.Run(func(ctx *Ctx) {
		w, err := ctx.DFSIOWrite(b, "/bench/dfsio", files, fileSize)
		if err != nil {
			return
		}
		out.writeMBps = w.AggregateMBps()
		if !read {
			return
		}
		r, err := ctx.DFSIORead(b, "/bench/dfsio")
		if err != nil {
			return
		}
		out.readMBps = r.AggregateMBps()
	})
	return out
}

// dfsioSweep runs fig3's and fig4's grid(dataSizes, comparedBackends)
// cells: the write phase, then the read phase when read is set. writeMBps
// is fixed before the read starts, so a write-only sweep reports the same
// write figures.
func dfsioSweep(scale Scale, read bool) []dfsioRun {
	sz := sizingFor(scale)
	return sweep(grid(sz.dataSizes, comparedBackends), func(c pair[int64, Backend]) dfsioRun {
		return runDFSIO(sz, sz.nodes, c.a, c.b, 0, read)
	})
}

func fig3(scale Scale) *metrics.Table {
	t := metrics.NewTable("fig3: TestDFSIO WRITE throughput (MB/s)",
		"data(GB)", "backend", "MB/s", "vs-hdfs", "vs-lustre")
	runs := dfsioSweep(scale, false)
	addSizeRows(t, sizingFor(scale).dataSizes, func(i int) float64 { return runs[i].writeMBps }, ratio)
	return t
}

func fig4(scale Scale) *metrics.Table {
	t := metrics.NewTable("fig4: TestDFSIO READ throughput (MB/s)",
		"data(GB)", "backend", "MB/s", "vs-hdfs", "vs-lustre")
	runs := dfsioSweep(scale, true)
	addSizeRows(t, sizingFor(scale).dataSizes, func(i int) float64 { return runs[i].readMBps }, ratio)
	return t
}

func fig5(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	t := metrics.NewTable("fig5: Sort execution time (s)",
		"data(GB)", "backend", "time(s)", "vs-hdfs", "vs-lustre")
	secs := sweep(grid(sz.sortSizes, comparedBackends), func(c pair[int64, Backend]) (took float64) {
		tb := cellTestbed(Options{Nodes: sz.nodes})
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.RandomWriter(c.b, "/bench/rw", sz.files, c.a/int64(sz.files)); err != nil {
				return
			}
			res, err := ctx.Sort(c.b, "/bench/rw", "/bench/sorted", sz.nodes*2)
			if err != nil {
				return
			}
			took = res.Duration.Seconds()
		})
		return took
	})
	addSizeRows(t, sz.sortSizes, func(i int) float64 { return secs[i] }, delta)
	return t
}

func fig6(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	t := metrics.NewTable("fig6: RandomWriter execution time (s)",
		"data(GB)", "backend", "time(s)", "vs-hdfs", "vs-lustre")
	secs := sweep(grid(sz.sortSizes, comparedBackends), func(c pair[int64, Backend]) (took float64) {
		tb := cellTestbed(Options{Nodes: sz.nodes})
		tb.Run(func(ctx *Ctx) {
			res, err := ctx.RandomWriter(c.b, "/bench/rw", sz.files, c.a/int64(sz.files))
			if err != nil {
				return
			}
			took = res.Duration.Seconds()
		})
		return took
	})
	addSizeRows(t, sz.sortSizes, func(i int) float64 { return secs[i] }, delta)
	return t
}

func fig7(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	t := metrics.NewTable("fig7: DFSIO throughput vs cluster size (fixed 2 GiB/node, 1 buffer server per 2 nodes)",
		"nodes", "backend", "write MB/s", "read MB/s")
	cells := grid(sz.scaleNodes, []Backend{BackendHDFS, BackendLustre, BackendBBAsync})
	addRows(t, sweep(cells, func(c pair[int, Backend]) []any {
		r := runDFSIO(sz, c.a, int64(c.a)*2<<30, c.b, c.a/2, true)
		return []any{c.a, c.b.String(), r.writeMBps, r.readMBps}
	}))
	return t
}

func fig8(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[len(sz.sortSizes)-1]
	t := metrics.NewTable("fig8: I/O-intensive mix makespan (concurrent Scan + DFSIO write)",
		"backend", "makespan(s)", "vs-hdfs", "vs-lustre")
	secs := sweep(comparedBackends, func(b Backend) (took float64) {
		tb := cellTestbed(Options{Nodes: sz.nodes})
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.RandomWriter(b, "/bench/data", sz.files, total/int64(sz.files)); err != nil {
				return
			}
			start := ctx.Now()
			scan := ctx.Go("mix.scan", func(c2 *Ctx) {
				_, _ = c2.Scan(b, "/bench/data", "/bench/scan-out", 0.02)
			})
			write := ctx.Go("mix.write", func(c2 *Ctx) {
				_, _ = c2.DFSIOWrite(b, "/bench/io", sz.files/2, total/int64(sz.files))
			})
			scan.Wait(ctx)
			write.Wait(ctx)
			took = (ctx.Now() - start).Seconds()
		})
		return took
	})
	addVsRows(t, func(i int) float64 { return secs[i] }, delta)
	return t
}

func fig9(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[0]
	t := metrics.NewTable("fig9: buffer-server crash after write, before read",
		"scheme", "read-ok", "lost-blocks", "recovered", "read(s)")
	addRows(t, sweep([]Backend{BackendBBAsync, BackendBBLocality, BackendBBSync}, func(b Backend) []any {
		var readOK bool
		var readDur time.Duration
		tb := cellTestbed(Options{Nodes: sz.nodes})
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(b, "/bench/ft", sz.files, total/int64(sz.files)); err != nil {
				return
			}
			// Crash one buffer server while some data is still dirty.
			ctx.FailBufferServer(b, 0)
			ctx.Sleep(3 * time.Second) // recovery window
			start := ctx.Now()
			r, err := ctx.DFSIORead(b, "/bench/ft")
			readDur = ctx.Now() - start
			readOK = err == nil && r.MapTasks > 0
		})
		st, _ := tb.BurstBufferStats(b)
		return []any{b.String(), readOK, st.BlocksLost, st.BlocksRecovered, readDur.Seconds()}
	}))
	return t
}

func tab1(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.dataSizes[0]
	t := metrics.NewTable(fmt.Sprintf("tab1: compute-node local storage used after writing %.0f GB (and flushing)", gb(total)),
		"backend", "local-bytes(GB)", "of-dataset", "note")
	addRows(t, sweep(comparedBackends, func(b Backend) []any {
		var used int64
		tb := cellTestbed(Options{Nodes: sz.nodes})
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(b, "/bench/ls", sz.files, total/int64(sz.files)); err != nil {
				return
			}
			ctx.DrainBurstBuffer(b)
			used = tb.LocalStorageUsed()
		})
		note := "buffer + Lustre only"
		switch b {
		case BackendHDFS:
			note = "3-way replication on local disks"
		case BackendLustre:
			note = "all data on shared Lustre"
		case BackendBBLocality:
			note = "one local replica for locality"
		}
		return []any{b.String(), gb(used), fmt.Sprintf("%.0f%%", float64(used)/float64(total)*100), note}
	}))
	return t
}

func tab2(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.dataSizes[len(sz.dataSizes)-1]
	t := metrics.NewTable(fmt.Sprintf("tab2: bb-async ablation, %.0f GB write", gb(total)),
		"flushers", "server-mem(GB)", "write MB/s", "stalls", "evictions")
	mems := []int64{4 << 30, 16 << 30}
	if scale == ScaleSmall {
		mems = []int64{1 << 30, 4 << 30}
	}
	addRows(t, sweep(grid([]int{1, 4, 16}, mems), func(c pair[int, int64]) []any {
		var mbps float64
		tb := cellTestbed(Options{Nodes: sz.nodes, BBFlushers: c.a, BBServerMemory: c.b})
		tb.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(BackendBBAsync, "/bench/abl", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			mbps = w.AggregateMBps()
		})
		st, _ := tb.BurstBufferStats(BackendBBAsync)
		return []any{c.a, c.b >> 30, mbps, st.WriterStalls, st.Evictions}
	}))
	return t
}

func tab3(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.dataSizes[0]
	t := metrics.NewTable(fmt.Sprintf("tab3: Lustre sensitivity, %.0f GB DFSIO write", gb(total)),
		"stripe-count", "transport", "write MB/s")
	addRows(t, sweep(grid([]int{1, 2, 4, 8}, []Transport{TransportRDMA, TransportIPoIB}), func(c pair[int, Transport]) []any {
		var mbps float64
		tb := cellTestbed(Options{Nodes: sz.nodes, Transport: c.b, LustreStripeCount: c.a})
		tb.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(BackendLustre, "/bench/str", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			mbps = w.AggregateMBps()
		})
		return []any{c.a, string(c.b), mbps}
	}))
	return t
}

// fig1 measures raw KV op latency per transport and value size on a
// two-node fabric, mirroring the paper's enabling microbenchmark: set is a
// payload RDMA-write (or socket send) plus a control RPC; get is a control
// RPC plus a one-sided RDMA read.
func fig1(Scale) *metrics.Table {
	t := metrics.NewTable("fig1: memcached op latency (µs)",
		"value", "transport", "set(µs)", "get(µs)")
	const ops = 50
	cells := grid([]int64{1, 64, 1 << 10, 16 << 10, 256 << 10, 1 << 20},
		[]netsim.Profile{netsim.RDMA, netsim.IPoIB, netsim.TenGigE})
	addRows(t, sweep(cells, func(c pair[int64, netsim.Profile]) []any {
		size := c.a
		var setT, getT time.Duration
		env := sim.New(1)
		nw := netsim.New(env, c.b, 2)
		eng := memcached.NewEngine(memcached.Config{MemLimit: 64 << 20, MaxItemSize: 2 << 20})
		nw.Register(1, "kv", func(p *sim.Proc, m *netsim.Msg) netsim.Reply {
			p.Sleep(3 * time.Microsecond)
			switch m.Op {
			case "set":
				_, err := eng.Set(memcached.Item{Key: m.Payload.(string), Size: int(size)})
				return netsim.Reply{Size: 32, Err: err}
			default:
				it, err := eng.Get(m.Payload.(string))
				return netsim.Reply{Size: 32, Payload: int64(it.Size), Err: err}
			}
		})
		env.Spawn("client", func(p *sim.Proc) {
			// Call is synchronous and nothing retains the envelope, so
			// one Msg serves every op; only the key string is fresh.
			msg := netsim.Msg{From: 0, To: 1, Service: "kv", Size: 64}
			start := p.Now()
			for i := 0; i < ops; i++ {
				_ = nw.RDMAWriteFlow(p, 0, 1, size)
				msg.Op, msg.Payload = "set", "k"+strconv.Itoa(i)
				nw.Call(p, &msg)
			}
			setT = p.Now() - start
			start = p.Now()
			for i := 0; i < ops; i++ {
				msg.Op, msg.Payload = "get", "k"+strconv.Itoa(i)
				nw.Call(p, &msg)
				_ = nw.RDMAReadFlow(p, 0, 1, size)
			}
			getT = p.Now() - start
		})
		env.Run()
		return []any{byteLabel(size), c.b.Name, float64(setT.Microseconds()) / ops, float64(getT.Microseconds()) / ops}
	}))
	return t
}

// fig2 measures aggregate set throughput as clients scale over a 4-server
// pool partitioned by consistent hashing.
func fig2(Scale) *metrics.Table {
	t := metrics.NewTable("fig2: aggregate KV throughput vs clients (4 servers, 4KiB sets)",
		"clients", "Kops/s", "MB/s")
	addRows(t, sweep([]int{1, 2, 4, 8, 16, 32, 64}, func(clients int) []any {
		cell := newFig2Cell(clients)
		return cell.row(cell.run())
	}))
	return t
}

// The fig2 cell's shape: each client SETs fig2Ops values of fig2Value
// bytes, and a server spends fig2Service on each before it replies.
const (
	fig2Servers = 4
	fig2Value   = 4 << 10
	fig2Ops     = 400
	fig2Service = 3 * time.Microsecond
)

// fig2Cell is one cell of fig2: closed-loop SET clients on nodes
// 0..clients-1 and the servers after them. A client only ever waits — on
// its value's RDMA write, the request envelope, the server's service time
// and the reply envelope — so it is a chain of callbacks, not a process:
// its steps run at the instants and sequence numbers where a process
// client would wake, and the cell spawns no process.
type fig2Cell struct {
	env     *sim.Env
	nw      *netsim.Network
	ring    *hashring.Ring
	servers map[string]*fig2Server
	clients []fig2Client
}

type fig2Server struct {
	node netsim.NodeID
	eng  *memcached.Engine
}

// fig2Client is one client: the SET it is on (index, key and server), its
// Op for the value's write, and its steps bound once as continuations, so
// a SET allocates only its key.
type fig2Client struct {
	cell *fig2Cell
	node netsim.NodeID
	op   *netsim.Op
	key  string
	buf  []byte // the key's bytes: the client's prefix, then the index
	plen int    // length of the prefix
	i    int
	srv  *fig2Server
	// The steps after the value's write, the request envelope, the
	// service time and the reply envelope.
	written, requested, served, replied sim.Cont
}

func newFig2Cell(clients int) *fig2Cell {
	env := sim.New(1)
	cell := &fig2Cell{
		env:     env,
		nw:      netsim.New(env, netsim.RDMA, clients+fig2Servers),
		servers: map[string]*fig2Server{},
		clients: make([]fig2Client, clients),
	}
	names := make([]string, fig2Servers)
	for s := range names {
		name := fmt.Sprintf("srv%d", s)
		names[s] = name
		cell.servers[name] = &fig2Server{
			node: netsim.NodeID(clients + s),
			eng:  memcached.NewEngine(memcached.Config{MemLimit: 256 << 20}),
		}
	}
	cell.ring = hashring.New(0, names...)
	for i := range cell.clients {
		c := &cell.clients[i]
		c.cell, c.node, c.op = cell, netsim.NodeID(i), cell.nw.NewOp()
		c.buf = append(make([]byte, 0, 24), "c"+strconv.Itoa(i)+"-k"...)
		c.plen = len(c.buf)
		c.written = sim.Callback(c.request)
		c.requested = sim.Callback(c.serve)
		c.served = sim.Callback(c.reply)
		c.replied = sim.Callback(c.next)
	}
	return cell
}

// run drives every client through its fig2Ops SETs from the current
// instant and returns the virtual time they took.
func (cell *fig2Cell) run() time.Duration {
	start := cell.env.Now()
	for i := range cell.clients {
		c := &cell.clients[i]
		c.i = 0
		cell.env.Resume(start, c.replied)
	}
	return cell.env.Run() - start
}

// row is the cell's table row for a run of duration d: clients, Kops/s,
// MB/s.
func (cell *fig2Cell) row(d time.Duration) []any {
	ops := float64(len(cell.clients) * fig2Ops)
	return []any{len(cell.clients), ops / d.Seconds() / 1e3, ops * fig2Value / 1e6 / d.Seconds()}
}

// next starts the client's next SET, if any: the value's one-sided write
// into the server the key hashes to.
func (c *fig2Client) next() {
	if c.i == fig2Ops {
		return
	}
	c.buf = strconv.AppendInt(c.buf[:c.plen], int64(c.i), 10)
	c.key = string(c.buf)
	c.i++
	c.srv = c.cell.servers[c.cell.ring.Get(c.key)]
	if !c.op.RDMAWrite(c.node, c.srv.node, fig2Value, c.written) {
		c.request() // a write that fails at once does not stop the SET
	}
}

// request sends the SET's request envelope.
func (c *fig2Client) request() {
	c.cell.nw.Envelope(c.node, c.srv.node, 64, netsim.Native, c.requested)
}

// serve spends the server's service time on the request.
func (c *fig2Client) serve() {
	c.cell.env.Resume(c.cell.env.Now()+fig2Service, c.served)
}

// reply stores the item (the engine copies the key into its own memory)
// and sends the reply envelope.
func (c *fig2Client) reply() {
	_, _ = c.srv.eng.Set(memcached.Item{Key: c.key, Size: fig2Value})
	c.cell.nw.Envelope(c.srv.node, c.node, 32, netsim.Native, c.replied)
}

func byteLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fig10 demonstrates the paper's motivation on diskless (Stampede-like)
// compute nodes: stock HDFS has only the 12 GiB RAM disks to hold 3
// replicas per block, so paper-scale datasets simply do not fit, while the
// burst buffer streams them through to Lustre.
func fig10(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	t := metrics.NewTable("fig10: diskless compute nodes (12 GiB RAM disk only)",
		"data(GB)", "backend", "outcome", "MB/s")
	// HDFS on diskless nodes can hold at most nodes x 12 GiB / replication;
	// sweep one size inside the wall and one beyond it.
	hdfsCap := int64(sz.nodes) * 12 * (1 << 30) / 3
	cells := grid([]int64{hdfsCap / 2, hdfsCap + hdfsCap/4}, []Backend{BackendHDFS, BackendBBAsync})
	addRows(t, sweep(cells, func(c pair[int64, Backend]) []any {
		outcome, mbps := "ok", 0.0
		tb := cellTestbed(Options{Nodes: sz.nodes, Hardware: HardwareDiskless})
		tb.Run(func(ctx *Ctx) {
			res, err := ctx.DFSIOWrite(c.b, "/bench/dl", sz.files, c.a/int64(sz.files))
			if err != nil {
				outcome = "FAILS (no space)"
				return
			}
			mbps = res.AggregateMBps()
			ctx.DrainBurstBuffer(c.b)
		})
		return []any{fmt.Sprintf("%.0f", gb(c.a)), c.b.String(), outcome, mbps}
	}))
	return t
}

// tab5 drives the same DFSIO write+read through every burst-buffer scheme
// and reports the per-scheme metrics registry: flush latency, writer-stall
// time, read-source hits, and — for bb-adaptive — the per-block mode split
// its traffic detector chose.
func tab5(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[0]
	t := metrics.NewTable(fmt.Sprintf("tab5: per-scheme metrics, %.0f GB DFSIO write+read", gb(total)),
		"scheme", "wr MB/s", "rd MB/s",
		"flushes", "flush-mean(ms)", "flush-p99(ms)",
		"stalls", "stall-mean(ms)",
		"reads l/b/rl/lu", "adaptive wt/async")
	schemes := []Backend{BackendBBAsync, BackendBBLocality, BackendBBSync, BackendBBAdaptive}
	addRows(t, sweep(schemes, func(b Backend) []any {
		var wMBps, rMBps float64
		tb := cellTestbed(Options{Nodes: sz.nodes})
		tb.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(b, "/bench/met", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			wMBps = w.AggregateMBps()
			if r, err := ctx.DFSIORead(b, "/bench/met"); err == nil {
				rMBps = r.AggregateMBps()
			}
			ctx.DrainBurstBuffer(b)
		})
		reg, _ := tb.BurstBufferMetrics(b)
		flush := reg.Histogram("flush.latency.s")
		stall := reg.Histogram("writer.stall.s")
		srcs := fmt.Sprintf("%d/%d/%d/%d",
			reg.Counter("read.src.local").Value(),
			reg.Counter("read.src.buffer").Value(),
			reg.Counter("read.src.remote-local").Value(),
			reg.Counter("read.src.lustre").Value())
		modes := "-"
		if b == BackendBBAdaptive {
			modes = fmt.Sprintf("%d/%d",
				reg.Counter("adaptive.blocks.writethrough").Value(),
				reg.Counter("adaptive.blocks.async").Value())
		}
		return []any{b.String(), wMBps, rMBps,
			flush.Count(), flush.Mean() * 1e3, flush.Quantile(0.99) * 1e3,
			stall.Count(), stall.Mean() * 1e3, srcs, modes}
	}))
	return t
}

// tab6 compares stage-out at run cap 1 ("per-block") against run cap 8
// with readahead ("coalesced+ra": FlushBatchBlocks=8, ReadAhead=1): same
// DFSIO write, then a timed full drain to Lustre and a streaming
// read-back, per burst-buffer scheme. Files span multiple 16 MiB blocks
// so adjacent-block runs exist to coalesce; the Lustre object count shows
// the saved per-block metadata round-trips.
func tab6(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[0]
	t := metrics.NewTable(fmt.Sprintf("tab6: stage-out data plane, %.0f GB DFSIO write+drain+read", gb(total)),
		"scheme", "data plane", "wr MB/s", "drain(ms)", "rd MB/s",
		"batch-mean", "lustre-objs", "prefetch-hits")
	cells := grid([]Backend{BackendBBAsync, BackendBBLocality, BackendBBAdaptive}, []bool{false, true})
	addRows(t, sweep(cells, func(c pair[Backend, bool]) []any {
		scheme, coalesced := c.a, c.b
		// A checkpoint-burst shape in both configurations: RDMA writers
		// outrun a deliberately narrow Lustre (2 OSTs), so a
		// deep dirty backlog exists from early in the write through the
		// drain. Depth is what gives the scheduler adjacent-block runs to
		// claim (placement hashes block keys, so runs also shrink as the
		// server count grows — two servers keep real adjacency).
		opts := Options{Nodes: sz.nodes, BlockSize: 16 << 20, BBServers: 2, BBFlushers: 1,
			LustreOSTs: 2, LustreStripeCount: 2}
		plane := "per-block"
		if coalesced {
			opts.BBFlushBatchBlocks = 8
			opts.BBReadAhead = 1
			plane = "coalesced+ra"
		}
		tb := cellTestbed(opts)
		// Half the usual file count doubles the blocks per file, so the
		// pending set holds longer adjacent runs for the scheduler.
		files := sz.files / 2
		var wMBps, drainMS, rMBps float64
		tb.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(scheme, "/bench/dp", files, total/int64(files))
			if err != nil {
				return
			}
			wMBps = w.AggregateMBps()
			drainStart := ctx.Now()
			ctx.DrainBurstBuffer(scheme)
			drainMS = (ctx.Now() - drainStart).Seconds() * 1e3
			if r, err := ctx.DFSIORead(scheme, "/bench/dp"); err == nil {
				rMBps = r.AggregateMBps()
			}
		})
		reg, _ := tb.BurstBufferMetrics(scheme)
		return []any{scheme.String(), plane, wMBps, drainMS, rMBps,
			reg.Histogram("flush.batch.blocks").Mean(), tb.LustreStats().FilesCreated,
			reg.Counter("read.prefetch.hits").Value()}
	}))
	return t
}

// tenantSpan is a half-open virtual-time interval used by tab7's
// overlap accounting.
type tenantSpan struct{ a, b time.Duration }

// overlapSecs returns how much of window o overlaps the union of the
// spans in rs (merging rs first so concurrent tenants are not counted
// twice).
func overlapSecs(o tenantSpan, rs []tenantSpan) float64 {
	merged := append([]tenantSpan(nil), rs...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].a < merged[j].a })
	var total float64
	cursor := o.a
	for _, r := range merged {
		lo, hi := r.a, r.b
		if lo < cursor {
			lo = cursor
		}
		if hi > o.b {
			hi = o.b
		}
		if hi > lo {
			total += (hi - lo).Seconds()
			cursor = hi
		}
	}
	return total
}

// tab7 measures multi-job buffer orchestration: an 8-brick pool (two
// servers × 4 GiB, 1 GiB bricks) serves 1, 2, or 4 concurrent MapReduce
// jobs, each requesting its own buffer instance, staging input in from
// Lustre, running a map-only pass whose output dirties the buffer, and
// releasing (stage-out overlaps whoever runs next). The heterogeneous
// asks [5,4,2,2] make the queue discipline visible: under FCFS the
// queued 4-brick job blocks both 2-brick jobs even while three bricks
// sit free; backfill lets the small jobs jump, trading the big job's
// queue wait for utilization and makespan.
func tab7(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	perJob := sz.sortSizes[0] / 8
	const stageFiles = 4
	t := metrics.NewTable(fmt.Sprintf("tab7: multi-job buffer orchestration, %.2f GB staged per job", gb(perJob)),
		"sched", "jobs", "makespan(s)", "wait-mean(s)", "wait-max(s)",
		"stageout(s)", "overlap(s)", "brick-util")
	addRows(t, sweep(grid([]string{"fcfs", "backfill"}, []int{1, 2, 4}), func(c pair[string, int]) []any {
		sched, jobs := c.a, c.b
		tb := cellTestbed(Options{Nodes: sz.nodes,
			BlockSize: 16 << 20, BBServers: 2, BBServerMemory: 4 << 30,
			BBFlushers: 1, BBSched: sched,
			LustreOSTs: 2, LustreStripeCount: 2})
		bricks := []int{5, 4, 2, 2}[:jobs]
		allocs := make([]*orchestrator.Allocation, jobs)
		tb.Run(func(ctx *Ctx) {
			orch, err := ctx.BufferOrchestrator(BackendBBAsync)
			if err != nil {
				panic(err)
			}
			// Per-job input waits on Lustre; each allocation stages its
			// share in before the job starts.
			for j := 0; j < jobs; j++ {
				for f := 0; f < stageFiles; f++ {
					if err := ctx.WriteFile(BackendLustre, j%sz.nodes,
						fmt.Sprintf("/in/job%d/f%d", j, f), perJob/stageFiles); err != nil {
						panic(err)
					}
				}
			}
			joins := make([]*Join, jobs)
			for j := 0; j < jobs; j++ {
				req := orchestrator.Request{
					Name:   fmt.Sprintf("job%d", j),
					Bricks: bricks[j],
					Client: tb.cluster.Nodes[j%sz.nodes].ID,
				}
				var input []string
				for f := 0; f < stageFiles; f++ {
					dst := fmt.Sprintf("/data/f%d", f)
					req.StageIn = append(req.StageIn,
						orchestrator.StagePair{Src: fmt.Sprintf("/in/job%d/f%d", j, f), Dst: dst})
					input = append(input, dst)
				}
				a := orch.Submit(req)
				allocs[j] = a
				j := j
				joins[j] = ctx.Go(fmt.Sprintf("tenant%d", j), func(c2 *Ctx) {
					if err := a.Await(c2.p); err != nil {
						panic(err)
					}
					sub := c2.SubmitJob(mapreduce.Job{
						Name:           fmt.Sprintf("job%d", j),
						Input:          input,
						InputFS:        a.FS(),
						OutputFS:       a.FS(),
						OutputDir:      "/data/out",
						MapOutputRatio: 1.0,
					})
					if _, err := sub.Wait(c2.p); err != nil {
						panic(err)
					}
					orch.Release(a)
				})
			}
			for _, jn := range joins {
				jn.Wait(ctx)
			}
			for _, a := range allocs {
				a.AwaitFreed(ctx.p)
			}
		})
		totalBricks := tb.bb[BackendBBAsync].TotalBricks()
		start := allocs[0].Times.Submitted
		var end time.Duration
		var waitSum, waitMax, stageout, overlap, brickSecs, util float64
		runs := make([]tenantSpan, jobs)
		for j, a := range allocs {
			ti := a.Times
			if ti.Freed > end {
				end = ti.Freed
			}
			w := ti.QueueWait().Seconds()
			waitSum += w
			if w > waitMax {
				waitMax = w
			}
			stageout += ti.StageOut().Seconds() / float64(jobs)
			brickSecs += float64(bricks[j]) * (ti.Freed - ti.Placed).Seconds()
			runs[j] = tenantSpan{ti.Ready, ti.Released}
		}
		makespan := (end - start).Seconds()
		// overlap: stage-out seconds spent while some other tenant's job
		// was computing — the drain the orchestrator hides.
		for j, a := range allocs {
			others := append(append([]tenantSpan(nil), runs[:j]...), runs[j+1:]...)
			overlap += overlapSecs(tenantSpan{a.Times.Released, a.Times.Freed}, others)
		}
		if makespan > 0 {
			util = brickSecs / (float64(totalBricks) * makespan)
		}
		return []any{sched, jobs, makespan, waitSum / float64(jobs), waitMax, stageout, overlap, util}
	}))
	return t
}

// tab4 measures the extension features: in-buffer replication (durability
// for write cost) and read re-admission (warm re-reads after eviction).
func tab4(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[0]
	t := metrics.NewTable("tab4: extensions (bb-async)",
		"config", "write MB/s", "lost-after-crash", "cold-read MB/s", "warm-read MB/s")
	type extConfig struct {
		label    string
		replicas int
		readmit  bool
	}
	cfgs := []extConfig{
		{"baseline", 1, false},
		{"replicas=2", 2, false},
		{"readmit", 1, true},
	}
	addRows(t, sweep(cfgs, func(cfg extConfig) []any {
		var writeMBps, coldMBps, warmMBps float64
		// Run A — durability: crash one server right after the writes ack.
		tbA := cellTestbed(Options{Nodes: sz.nodes,
			BBReplicas: cfg.replicas, BBReadmitOnRead: cfg.readmit,
			BBFlushers: 1,
		})
		tbA.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(BackendBBAsync, "/bench/ext", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			writeMBps = w.AggregateMBps()
			ctx.FailBufferServer(BackendBBAsync, 0)
		})
		stA, _ := tbA.BurstBufferStats(BackendBBAsync)

		// Run B — re-reads: write dataset A, then a larger dataset B that
		// evicts A, then delete B. The first re-read of A is cold (Lustre);
		// the second is warm only if re-admission refilled the cache.
		tbB := cellTestbed(Options{Nodes: sz.nodes,
			BBReplicas: cfg.replicas, BBReadmitOnRead: cfg.readmit,
			BBServerMemory: total / 2,
		})
		tbB.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(BackendBBAsync, "/bench/a", sz.files, total/2/int64(sz.files)); err != nil {
				return
			}
			ctx.DrainBurstBuffer(BackendBBAsync)
			if _, err := ctx.DFSIOWrite(BackendBBAsync, "/bench/b", sz.files, total*2/int64(sz.files)); err != nil {
				return
			}
			ctx.DrainBurstBuffer(BackendBBAsync)
			ctx.Cleanup(BackendBBAsync, "/bench/b")
			if r, err := ctx.DFSIORead(BackendBBAsync, "/bench/a"); err == nil {
				coldMBps = r.AggregateMBps()
			}
			ctx.Sleep(2 * time.Second) // let re-admission fills land
			if r, err := ctx.DFSIORead(BackendBBAsync, "/bench/a"); err == nil {
				warmMBps = r.AggregateMBps()
			}
		})
		return []any{cfg.label, writeMBps, stA.BlocksLost, coldMBps, warmMBps}
	}))
	return t
}

// tab8 is the fleet-mode scaling table (ROADMAP item 2): a DFSIO-style
// replicated-write sweep over datacenter node counts, each run at one
// event heap and at a rack-sharded kernel, reporting the simulator's own
// scaling figures — wall-clock, events per file, retained MB of heap per
// node — plus the trace fingerprint demonstrating shard-count
// invariance. Cells run serially: each one uses every core via the shard
// group's workers, and the heap figure needs the host to itself.
func tab8(scale Scale) *metrics.Table {
	nodesAxis := []int{100, 1000, 10000}
	shardsAxis := []int{1, 4}
	filesPerNode, fileSize := 100, int64(8<<20)
	if scale == ScaleSmall {
		nodesAxis = []int{100, 400}
		shardsAxis = []int{1, 2}
		filesPerNode, fileSize = 4, int64(1<<20)
	}
	const racksOf = 20
	t := metrics.NewTable(fmt.Sprintf("tab8: fleet-mode scaling, %d files/node x %d MiB, racks of %d",
		filesPerNode, fileSize>>20, racksOf),
		"nodes", "racks", "shards", "files", "virt(s)", "wall(s)",
		"events/op", "MB-heap/node", "windows", "fingerprint")
	for _, c := range grid(nodesAxis, shardsAxis) {
		fb, err := NewFleet(Options{Nodes: c.a, RacksOf: racksOf,
			Seed: 1, SimShards: c.b})
		if err != nil {
			panic(err)
		}
		r := fb.DFSIOWrite(filesPerNode, fileSize)
		t.AddRow(r.Nodes, r.Racks, r.Shards, r.Ops,
			float64(r.Elapsed)/1e9, float64(r.Wall)/1e9,
			r.EventsPerOp, fmt.Sprintf("%.3f", r.HeapMBPerNode), r.Windows,
			fmt.Sprintf("%016x", r.Fingerprint))
	}
	return t
}

// tab9 is the open-loop swarm scaling table (ROADMAP item 2, client
// scale): a zipfian key-value request swarm swept over population sizes
// and shard counts on one fixed fleet. The figures of merit are the
// simulator's own: wall-clock, simulated requests per wall second,
// kernel events per request (batching payoff), retained heap bytes per
// client (the ~16 B record target), and the trace fingerprint proving
// the swarm is shard-count invariant under adaptive sync. Cells run
// serially — the heap figure needs the host to itself.
//
// Requests are KV-sized (256 B): zipf 1.1 over 2^20 keys sends ~12% of
// all bytes to the single node owning the hottest key, so the 6 GB/s
// NIC there — not the rack trunks — caps the stable offered load at
// ~40 GB/s; a million clients offer 25.6 GB/s. The scaling rows stay
// in that stable regime so wall-clock measures the engine. The
// overload rows then push a fixed population past it on purpose —
// offered byte load at 1x/4x/20x of the ~40 GB/s reference, scaled
// via request size — with a MaxInflight admission cap bounding the
// open-loop backlog. shed%% is the capped fraction of arrivals and
// links/op is solver links touched per rack settle (one per instant
// with rate events): the incremental solver holds it near-flat from 1x
// to 20x, where a per-leg full
// re-solve's per-event cost tracks the outstanding-transfer
// population (CHANGES.md's incremental max-min solver entry records
// that A/B).
func tab9(scale Scale) *metrics.Table {
	// capRef is the ~40 GB/s stable-capacity reference the overload
	// multiples are quoted against (zipf-hot NIC bound, see above).
	const capRef = 4e10
	clientsAxis := []int{10000, 100000, 1000000}
	shardsAxis := []int{1, 4}
	overClients, overShards, overCap := 100000, 4, int64(2000)
	if scale == ScaleSmall {
		clientsAxis = []int{1000, 10000}
		shardsAxis = []int{1, 2}
		overClients, overShards, overCap = 10000, 2, 500
	}
	const nodes, racksOf = 240, 20
	run := func(clients, shards, reqBytes int, maxInflight int64) (SwarmResult, float64) {
		fb, err := NewFleet(Options{Nodes: nodes, RacksOf: racksOf,
			FleetMode: true, Seed: 1, SimShards: shards,
			Swarm: SwarmOptions{
				Clients:      clients,
				TargetQPS:    100 * float64(clients),
				Zipf:         1.1,
				RequestBytes: int64(reqBytes),
				Duration:     10 * time.Millisecond,
				MaxInflight:  maxInflight,
			}})
		if err != nil {
			panic(err)
		}
		r, err := fb.RunSwarm()
		if err != nil {
			panic(err)
		}
		m := fb.Metrics()
		linksPerOp := 0.0
		if res := m.Counter("fleet.resolves").Value(); res > 0 {
			linksPerOp = float64(m.Counter("fleet.links.touched").Value()) / float64(res)
		}
		return r, linksPerOp
	}
	t := metrics.NewTable(fmt.Sprintf(
		"tab9: open-loop swarm, %d nodes in racks of %d, 100 QPS/client zipf 1.1; scaling rows at 256 B, overload rows at 1x/4x/20x of the 40 GB/s reference", nodes, racksOf),
		"clients", "shards", "load", "requests", "virt(s)", "wall(s)",
		"req/wall-s", "events/req", "B-heap/client", "shed%", "links/op", "fingerprint")
	addRow := func(r SwarmResult, load string, linksPerOp float64) {
		shedPct := 0.0
		if r.Requests > 0 {
			shedPct = 100 * float64(r.Shed) / float64(r.Requests)
		}
		t.AddRow(r.Clients, r.Shards, load, r.Requests,
			float64(r.Elapsed)/1e9, float64(r.Wall)/1e9,
			fmt.Sprintf("%.0f", float64(r.Requests)/r.Wall.Seconds()),
			fmt.Sprintf("%.2f", r.EventsPerRequest),
			fmt.Sprintf("%.1f", r.HeapBPerClient),
			fmt.Sprintf("%.1f", shedPct),
			fmt.Sprintf("%.1f", linksPerOp),
			fmt.Sprintf("%016x", r.Fingerprint))
	}
	for _, c := range grid(clientsAxis, shardsAxis) {
		r, linksPerOp := run(c.a, c.b, 256, 0)
		load := fmt.Sprintf("%.2fx", 100*float64(c.a)*256/capRef)
		addRow(r, load, linksPerOp)
	}
	for _, mult := range []int{1, 4, 20} {
		reqBytes := int(float64(mult) * capRef / (100 * float64(overClients)))
		r, linksPerOp := run(overClients, overShards, reqBytes, overCap)
		addRow(r, fmt.Sprintf("%dx", mult), linksPerOp)
	}
	return t
}
