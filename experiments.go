package hbb

import (
	"fmt"
	"sort"
	"strconv"
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

// experiment sizing per scale.
type sizing struct {
	nodes      int
	files      int // DFSIO file count (= total map slots)
	dataSizes  []int64
	sortSizes  []int64
	chunk      int64
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
			chunk:      4 << 20,
			scaleNodes: []int{8, 16, 32, 64},
		}
	}
	return sizing{
		nodes:      4,
		files:      16,
		dataSizes:  []int64{2 * gib, 4 * gib},
		sortSizes:  []int64{1 * gib, 2 * gib},
		chunk:      4 << 20,
		scaleNodes: []int{4, 8},
	}
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }

// newBench builds a testbed for benchmark runs.
func newBench(sz sizing, nodes int) *Testbed {
	tb, err := New(Options{Nodes: nodes, Seed: 1, ChunkSize: sz.chunk})
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

// dfsioRun holds one backend's write+read measurement.
type dfsioRun struct {
	writeMBps float64
	readMBps  float64
}

// runDFSIO writes total bytes of DFSIO files and, when read is set, reads
// them back. bbServers > 0 lets scalability sweeps grow the buffer pool
// with the cluster (the paper deploys dedicated Memcached nodes
// proportionally).
func runDFSIO(sz sizing, nodes int, total int64, b Backend, bbServers int, read bool) dfsioRun {
	tb, err := New(Options{Nodes: nodes, Seed: 1, ChunkSize: sz.chunk, BBServers: bbServers})
	if err != nil {
		panic(err)
	}
	files := sz.files * nodes / sz.nodes
	if files < nodes {
		files = nodes
	}
	fileSize := total / int64(files)
	var out dfsioRun
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

// dfsioSweep runs fig3's and fig4's (size × backend) cells: the write
// phase, then the read phase when read is set. writeMBps is fixed before
// the read starts, so a write-only sweep reports the same write figures.
// Each cell is an independent job so parallelFor can spread cells over
// workers; the result maps are assembled afterwards in deterministic job
// order.
func dfsioSweep(scale Scale, read bool) map[int64]map[Backend]dfsioRun {
	sz := sizingFor(scale)
	jobs := sizeBackendJobs(sz.dataSizes)
	results := make([]dfsioRun, len(jobs))
	parallelFor(len(jobs), func(i int) {
		results[i] = runDFSIO(sz, sz.nodes, jobs[i].total, jobs[i].b, 0, read)
	})
	out := make(map[int64]map[Backend]dfsioRun)
	for i, j := range jobs {
		row := out[j.total]
		if row == nil {
			row = make(map[Backend]dfsioRun)
			out[j.total] = row
		}
		row[j.b] = results[i]
	}
	return out
}

func fig3(scale Scale) *metrics.Table {
	t := metrics.NewTable("fig3: TestDFSIO WRITE throughput (MB/s)",
		"data(GB)", "backend", "MB/s", "vs-hdfs", "vs-lustre")
	sweep := dfsioSweep(scale, false)
	for _, total := range sortedSizes(sweep) {
		row := sweep[total]
		h := row[BackendHDFS].writeMBps
		l := row[BackendLustre].writeMBps
		for _, b := range comparedBackends {
			v := row[b].writeMBps
			t.AddRow(fmt.Sprintf("%.0f", gb(total)), b.String(), v, ratio(v, h), ratio(v, l))
		}
	}
	return t
}

func fig4(scale Scale) *metrics.Table {
	t := metrics.NewTable("fig4: TestDFSIO READ throughput (MB/s)",
		"data(GB)", "backend", "MB/s", "vs-hdfs", "vs-lustre")
	sweep := dfsioSweep(scale, true)
	for _, total := range sortedSizes(sweep) {
		row := sweep[total]
		h := row[BackendHDFS].readMBps
		l := row[BackendLustre].readMBps
		for _, b := range comparedBackends {
			v := row[b].readMBps
			t.AddRow(fmt.Sprintf("%.0f", gb(total)), b.String(), v, ratio(v, h), ratio(v, l))
		}
	}
	return t
}

func ratio(v, base float64) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", v/base)
}

func fig5(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	t := metrics.NewTable("fig5: Sort execution time (s)",
		"data(GB)", "backend", "time(s)", "vs-hdfs", "vs-lustre")
	jobs := sizeBackendJobs(sz.sortSizes)
	times := make([]time.Duration, len(jobs))
	parallelFor(len(jobs), func(i int) {
		total, b := jobs[i].total, jobs[i].b
		tb := newBench(sz, sz.nodes)
		maps := sz.files
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.RandomWriter(b, "/bench/rw", maps, total/int64(maps)); err != nil {
				return
			}
			res, err := ctx.Sort(b, "/bench/rw", "/bench/sorted", sz.nodes*2)
			if err != nil {
				return
			}
			times[i] = res.Duration
		})
	})
	addTimedRows(t, jobs, times)
	return t
}

// sizeBackendJob is one (data size × backend) experiment cell.
type sizeBackendJob struct {
	total int64
	b     Backend
}

func sizeBackendJobs(sizes []int64) []sizeBackendJob {
	var jobs []sizeBackendJob
	for _, total := range sizes {
		for _, b := range comparedBackends {
			jobs = append(jobs, sizeBackendJob{total, b})
		}
	}
	return jobs
}

// addTimedRows emits the shared fig5/fig6 row shape (per-size blocks with
// time and vs-baseline columns) from per-job durations.
func addTimedRows(t *metrics.Table, jobs []sizeBackendJob, times []time.Duration) {
	byCell := make(map[sizeBackendJob]time.Duration, len(jobs))
	for i, j := range jobs {
		byCell[j] = times[i]
	}
	for i, j := range jobs {
		if i > 0 && jobs[i-1].total == j.total {
			continue // one block per size
		}
		h := byCell[sizeBackendJob{j.total, BackendHDFS}].Seconds()
		l := byCell[sizeBackendJob{j.total, BackendLustre}].Seconds()
		for _, b := range comparedBackends {
			s := byCell[sizeBackendJob{j.total, b}].Seconds()
			t.AddRow(fmt.Sprintf("%.0f", gb(j.total)), b.String(), s, delta(s, h), delta(s, l))
		}
	}
}

// delta formats a time saving versus a baseline (negative = faster).
func delta(v, base float64) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.0f%%", (v-base)/base*100)
}

func fig6(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	t := metrics.NewTable("fig6: RandomWriter execution time (s)",
		"data(GB)", "backend", "time(s)", "vs-hdfs", "vs-lustre")
	jobs := sizeBackendJobs(sz.sortSizes)
	times := make([]time.Duration, len(jobs))
	parallelFor(len(jobs), func(i int) {
		total, b := jobs[i].total, jobs[i].b
		tb := newBench(sz, sz.nodes)
		tb.Run(func(ctx *Ctx) {
			res, err := ctx.RandomWriter(b, "/bench/rw", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			times[i] = res.Duration
		})
	})
	addTimedRows(t, jobs, times)
	return t
}

func fig7(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	t := metrics.NewTable("fig7: DFSIO throughput vs cluster size (fixed 2 GiB/node, 1 buffer server per 2 nodes)",
		"nodes", "backend", "write MB/s", "read MB/s")
	type job struct {
		nodes int
		b     Backend
	}
	var jobs []job
	for _, nodes := range sz.scaleNodes {
		for _, b := range []Backend{BackendHDFS, BackendLustre, BackendBBAsync} {
			jobs = append(jobs, job{nodes, b})
		}
	}
	results := make([]dfsioRun, len(jobs))
	parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		total := int64(j.nodes) * 2 << 30
		results[i] = runDFSIO(sz, j.nodes, total, j.b, j.nodes/2, true)
	})
	for i, j := range jobs {
		t.AddRow(j.nodes, j.b.String(), results[i].writeMBps, results[i].readMBps)
	}
	return t
}

func fig8(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[len(sz.sortSizes)-1]
	t := metrics.NewTable("fig8: I/O-intensive mix makespan (concurrent Scan + DFSIO write)",
		"backend", "makespan(s)", "vs-hdfs", "vs-lustre")
	times := make([]time.Duration, len(comparedBackends))
	parallelFor(len(comparedBackends), func(i int) {
		b := comparedBackends[i]
		tb := newBench(sz, sz.nodes)
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
			times[i] = ctx.Now() - start
		})
	})
	byB := make(map[Backend]time.Duration, len(comparedBackends))
	for i, b := range comparedBackends {
		byB[b] = times[i]
	}
	h := byB[BackendHDFS].Seconds()
	l := byB[BackendLustre].Seconds()
	for i, b := range comparedBackends {
		s := times[i].Seconds()
		t.AddRow(b.String(), s, delta(s, h), delta(s, l))
	}
	return t
}

func fig9(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[0]
	t := metrics.NewTable("fig9: buffer-server crash after write, before read",
		"scheme", "read-ok", "lost-blocks", "recovered", "read(s)")
	schemes := []Backend{BackendBBAsync, BackendBBLocality, BackendBBSync}
	type ftResult struct {
		readOK          bool
		lost, recovered int64
		readDur         time.Duration
	}
	results := make([]ftResult, len(schemes))
	parallelFor(len(schemes), func(i int) {
		b := schemes[i]
		tb := newBench(sz, sz.nodes)
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(b, "/bench/ft", sz.files, total/int64(sz.files)); err != nil {
				return
			}
			// Crash one buffer server while some data is still dirty.
			ctx.FailBufferServer(b, 0)
			ctx.Sleep(3 * time.Second) // recovery window
			start := ctx.Now()
			r, err := ctx.DFSIORead(b, "/bench/ft")
			results[i].readDur = ctx.Now() - start
			results[i].readOK = err == nil && r.MapTasks > 0
		})
		st, _ := tb.BurstBufferStats(b)
		results[i].lost, results[i].recovered = st.BlocksLost, st.BlocksRecovered
	})
	for i, b := range schemes {
		r := results[i]
		t.AddRow(b.String(), r.readOK, r.lost, r.recovered, r.readDur.Seconds())
	}
	return t
}

func tab1(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.dataSizes[0]
	t := metrics.NewTable(fmt.Sprintf("tab1: compute-node local storage used after writing %.0f GB (and flushing)", gb(total)),
		"backend", "local-bytes(GB)", "of-dataset", "note")
	usedBy := make([]int64, len(comparedBackends))
	parallelFor(len(comparedBackends), func(i int) {
		b := comparedBackends[i]
		tb := newBench(sz, sz.nodes)
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(b, "/bench/ls", sz.files, total/int64(sz.files)); err != nil {
				return
			}
			ctx.DrainBurstBuffer(b)
			usedBy[i] = tb.LocalStorageUsed()
		})
	})
	for i, b := range comparedBackends {
		used := usedBy[i]
		note := ""
		switch b {
		case BackendHDFS:
			note = "3-way replication on local disks"
		case BackendLustre:
			note = "all data on shared Lustre"
		case BackendBBLocality:
			note = "one local replica for locality"
		default:
			note = "buffer + Lustre only"
		}
		t.AddRow(b.String(), gb(used), fmt.Sprintf("%.0f%%", float64(used)/float64(total)*100), note)
	}
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
	type job struct {
		flushers int
		mem      int64
	}
	var jobs []job
	for _, flushers := range []int{1, 4, 16} {
		for _, mem := range mems {
			jobs = append(jobs, job{flushers, mem})
		}
	}
	type ablResult struct {
		mbps           float64
		stalls, evicts int64
	}
	results := make([]ablResult, len(jobs))
	parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		tb, err := New(Options{
			Nodes: sz.nodes, Seed: 1, ChunkSize: sz.chunk,
			BBFlushers: j.flushers, BBServerMemory: j.mem,
		})
		if err != nil {
			panic(err)
		}
		tb.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(BackendBBAsync, "/bench/abl", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			results[i].mbps = w.AggregateMBps()
		})
		st, _ := tb.BurstBufferStats(BackendBBAsync)
		results[i].stalls, results[i].evicts = st.WriterStalls, st.Evictions
	})
	for i, j := range jobs {
		t.AddRow(j.flushers, j.mem>>30, results[i].mbps, results[i].stalls, results[i].evicts)
	}
	return t
}

func tab3(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.dataSizes[0]
	t := metrics.NewTable(fmt.Sprintf("tab3: Lustre sensitivity, %.0f GB DFSIO write", gb(total)),
		"stripe-count", "transport", "write MB/s")
	type job struct {
		stripes int
		tr      Transport
	}
	var jobs []job
	for _, stripes := range []int{1, 2, 4, 8} {
		for _, tr := range []Transport{TransportRDMA, TransportIPoIB} {
			jobs = append(jobs, job{stripes, tr})
		}
	}
	mbps := make([]float64, len(jobs))
	parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		tb, err := New(Options{
			Nodes: sz.nodes, Seed: 1, ChunkSize: sz.chunk,
			Transport: j.tr, LustreStripeCount: j.stripes,
		})
		if err != nil {
			panic(err)
		}
		tb.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(BackendLustre, "/bench/str", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			mbps[i] = w.AggregateMBps()
		})
	})
	for i, j := range jobs {
		t.AddRow(j.stripes, string(j.tr), mbps[i])
	}
	return t
}

// fig1 measures raw KV op latency per transport and value size on a
// two-node fabric, mirroring the paper's enabling microbenchmark: set is a
// payload RDMA-write (or socket send) plus a control RPC; get is a control
// RPC plus a one-sided RDMA read.
func fig1(Scale) *metrics.Table {
	t := metrics.NewTable("fig1: memcached op latency (µs)",
		"value", "transport", "set(µs)", "get(µs)")
	sizes := []int64{1, 64, 1 << 10, 16 << 10, 256 << 10, 1 << 20}
	type job struct {
		size int64
		prof netsim.Profile
	}
	var jobs []job
	for _, size := range sizes {
		for _, prof := range []netsim.Profile{netsim.RDMA, netsim.IPoIB, netsim.TenGigE} {
			jobs = append(jobs, job{size, prof})
		}
	}
	type latResult struct{ setT, getT time.Duration }
	results := make([]latResult, len(jobs))
	parallelFor(len(jobs), func(idx int) {
		size, prof := jobs[idx].size, jobs[idx].prof
		{
			env := sim.New(1)
			nw := netsim.New(env, prof, 2)
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
			const ops = 50
			env.Spawn("client", func(p *sim.Proc) {
				// Call is synchronous and nothing retains the envelope, so
				// one Msg serves every op; only the key string is fresh.
				msg := netsim.Msg{From: 0, To: 1, Service: "kv", Size: 64}
				start := p.Now()
				for i := 0; i < ops; i++ {
					_ = nw.RDMAWrite(p, 0, 1, size)
					msg.Op, msg.Payload = "set", "k"+strconv.Itoa(i)
					nw.Call(p, &msg)
				}
				results[idx].setT = p.Now() - start
				start = p.Now()
				for i := 0; i < ops; i++ {
					msg.Op, msg.Payload = "get", "k"+strconv.Itoa(i)
					nw.Call(p, &msg)
					_ = nw.RDMARead(p, 0, 1, size)
				}
				results[idx].getT = p.Now() - start
			})
			env.Run()
		}
	})
	const ops = 50
	for i, j := range jobs {
		t.AddRow(byteLabel(j.size), j.prof.Name,
			float64(results[i].setT.Microseconds())/ops, float64(results[i].getT.Microseconds())/ops)
	}
	return t
}

// fig2 measures aggregate set throughput as clients scale over a 4-server
// pool partitioned by consistent hashing.
func fig2(Scale) *metrics.Table {
	t := metrics.NewTable("fig2: aggregate KV throughput vs clients (4 servers, 4KiB sets)",
		"clients", "Kops/s", "MB/s")
	const servers = 4
	const valSize = 4 << 10
	const opsPerClient = 400
	clientCounts := []int{1, 2, 4, 8, 16, 32, 64}
	type tpResult struct{ kops, mbps float64 }
	results := make([]tpResult, len(clientCounts))
	parallelFor(len(clientCounts), func(idx int) {
		clients := clientCounts[idx]
		env := sim.New(1)
		nw := netsim.New(env, netsim.RDMA, clients+servers)
		ring := hashring.New(0)
		engines := map[string]netsim.NodeID{}
		for s := 0; s < servers; s++ {
			name := fmt.Sprintf("srv%d", s)
			node := netsim.NodeID(clients + s)
			eng := memcached.NewEngine(memcached.Config{MemLimit: 256 << 20})
			nw.Register(node, "kv", func(p *sim.Proc, m *netsim.Msg) netsim.Reply {
				p.Sleep(3 * time.Microsecond)
				_, err := eng.Set(memcached.Item{Key: m.Payload.(string), Size: valSize})
				return netsim.Reply{Size: 32, Err: err}
			})
			ring.Add(name)
			engines[name] = node
		}
		for c := 0; c < clients; c++ {
			c := c
			env.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
				// One envelope per client, reused across the whole run:
				// Call is synchronous, so only the key string (which the
				// engine retains) is built fresh each op.
				msg := netsim.Msg{From: netsim.NodeID(c), Service: "kv", Op: "set", Size: 64}
				prefix := "c" + strconv.Itoa(c) + "-k"
				for i := 0; i < opsPerClient; i++ {
					key := prefix + strconv.Itoa(i)
					node := engines[ring.Get(key)]
					_ = nw.RDMAWrite(p, netsim.NodeID(c), node, valSize)
					msg.To, msg.Payload = node, key
					nw.Call(p, &msg)
				}
			})
		}
		dur := env.Run()
		totalOps := float64(clients * opsPerClient)
		results[idx] = tpResult{totalOps / dur.Seconds() / 1e3, totalOps * valSize / 1e6 / dur.Seconds()}
	})
	for i, clients := range clientCounts {
		t.AddRow(clients, results[i].kops, results[i].mbps)
	}
	return t
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

func sortedSizes(m map[int64]map[Backend]dfsioRun) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
	sizes := []int64{hdfsCap / 2, hdfsCap + hdfsCap/4}
	type job struct {
		total int64
		b     Backend
	}
	var jobs []job
	for _, total := range sizes {
		for _, b := range []Backend{BackendHDFS, BackendBBAsync} {
			jobs = append(jobs, job{total, b})
		}
	}
	type dlResult struct {
		outcome string
		mbps    float64
	}
	results := make([]dlResult, len(jobs))
	parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		tb, err := New(Options{
			Nodes: sz.nodes, Seed: 1, ChunkSize: sz.chunk,
			Hardware: HardwareDiskless,
		})
		if err != nil {
			panic(err)
		}
		files := sz.files
		results[i].outcome = "ok"
		tb.Run(func(ctx *Ctx) {
			res, err := ctx.DFSIOWrite(j.b, "/bench/dl", files, j.total/int64(files))
			if err != nil {
				results[i].outcome = "FAILS (no space)"
				return
			}
			results[i].mbps = res.AggregateMBps()
			ctx.DrainBurstBuffer(j.b)
		})
	})
	for i, j := range jobs {
		t.AddRow(fmt.Sprintf("%.0f", gb(j.total)), j.b.String(), results[i].outcome, results[i].mbps)
	}
	return t
}

// tab5 drives the same DFSIO write+read through every burst-buffer policy
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
	type metRow struct {
		wMBps, rMBps        float64
		flushN, stallN      int64
		flushMean, flushP99 float64
		stallMean           float64
		srcs, modes         string
	}
	rows := make([]metRow, len(schemes))
	parallelFor(len(schemes), func(i int) {
		b := schemes[i]
		tb := newBench(sz, sz.nodes)
		tb.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(b, "/bench/met", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			rows[i].wMBps = w.AggregateMBps()
			if r, err := ctx.DFSIORead(b, "/bench/met"); err == nil {
				rows[i].rMBps = r.AggregateMBps()
			}
			ctx.DrainBurstBuffer(b)
		})
		reg, _ := tb.BurstBufferMetrics(b)
		flush := reg.Histogram("flush.latency.s")
		stall := reg.Histogram("writer.stall.s")
		rows[i].flushN, rows[i].flushMean, rows[i].flushP99 = flush.Count(), flush.Mean()*1e3, flush.Quantile(0.99)*1e3
		rows[i].stallN, rows[i].stallMean = stall.Count(), stall.Mean()*1e3
		rows[i].srcs = fmt.Sprintf("%d/%d/%d/%d",
			reg.Counter("read.src.local").Value(),
			reg.Counter("read.src.buffer").Value(),
			reg.Counter("read.src.remote-local").Value(),
			reg.Counter("read.src.lustre").Value())
		rows[i].modes = "-"
		if b == BackendBBAdaptive {
			rows[i].modes = fmt.Sprintf("%d/%d",
				reg.Counter("adaptive.blocks.writethrough").Value(),
				reg.Counter("adaptive.blocks.async").Value())
		}
	})
	for i, b := range schemes {
		r := rows[i]
		t.AddRow(b.String(), r.wMBps, r.rMBps,
			r.flushN, r.flushMean, r.flushP99,
			r.stallN, r.stallMean, r.srcs, r.modes)
	}
	return t
}

// tab6 compares the seed per-block stage-out against the coalescing data
// plane: same DFSIO write, then a timed full drain to Lustre and a
// streaming read-back, per burst-buffer scheme, with and without
// coalescing (FlushBatchBlocks=8, ReadAhead=1). Files span multiple
// 16 MiB blocks so adjacent-block runs exist to coalesce; the Lustre
// object count shows the saved per-block metadata round-trips.
func tab6(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[0]
	t := metrics.NewTable(fmt.Sprintf("tab6: stage-out data plane, %.0f GB DFSIO write+drain+read", gb(total)),
		"scheme", "data plane", "wr MB/s", "drain(ms)", "rd MB/s",
		"batch-mean", "lustre-objs", "prefetch-hits")
	schemes := []Backend{BackendBBAsync, BackendBBLocality, BackendBBAdaptive}
	type cell struct {
		scheme    Backend
		coalesced bool
	}
	var cells []cell
	for _, b := range schemes {
		cells = append(cells, cell{b, false}, cell{b, true})
	}
	type dpRow struct {
		wMBps, rMBps float64
		drainMS      float64
		batchMean    float64
		objs         int64
		prefetch     int64
	}
	rows := make([]dpRow, len(cells))
	parallelFor(len(cells), func(i int) {
		c := cells[i]
		// A checkpoint-burst shape in both configurations: RDMA writers
		// outrun a deliberately narrow Lustre (2 OSTs), so a
		// deep dirty backlog exists from early in the write through the
		// drain. Depth is what gives the scheduler adjacent-block runs to
		// claim (placement hashes block keys, so runs also shrink as the
		// server count grows — two servers keep real adjacency).
		opts := Options{Nodes: sz.nodes, Seed: 1, ChunkSize: sz.chunk,
			BlockSize: 16 << 20, BBServers: 2, BBFlushers: 1,
			LustreOSTs: 2, LustreStripeCount: 2}
		if c.coalesced {
			opts.BBFlushBatchBlocks = 8
			opts.BBReadAhead = 1
		}
		tb, err := New(opts)
		if err != nil {
			panic(err)
		}
		// Half the usual file count doubles the blocks per file, so the
		// pending set holds longer adjacent runs for the scheduler.
		files := sz.files / 2
		tb.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(c.scheme, "/bench/dp", files, total/int64(files))
			if err != nil {
				return
			}
			rows[i].wMBps = w.AggregateMBps()
			drainStart := ctx.Now()
			ctx.DrainBurstBuffer(c.scheme)
			rows[i].drainMS = (ctx.Now() - drainStart).Seconds() * 1e3
			if r, err := ctx.DFSIORead(c.scheme, "/bench/dp"); err == nil {
				rows[i].rMBps = r.AggregateMBps()
			}
		})
		reg, _ := tb.BurstBufferMetrics(c.scheme)
		rows[i].batchMean = reg.Histogram("flush.batch.blocks").Mean()
		rows[i].prefetch = reg.Counter("read.prefetch.hits").Value()
		rows[i].objs = tb.LustreStats().FilesCreated
	})
	for i, c := range cells {
		plane := "per-block"
		if c.coalesced {
			plane = "coalesced+ra"
		}
		r := rows[i]
		t.AddRow(c.scheme.String(), plane, r.wMBps, r.drainMS, r.rMBps,
			r.batchMean, r.objs, r.prefetch)
	}
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
	type cell struct {
		sched string
		jobs  int
	}
	var cells []cell
	for _, sp := range []string{"fcfs", "backfill"} {
		for _, n := range []int{1, 2, 4} {
			cells = append(cells, cell{sp, n})
		}
	}
	type orow struct {
		makespan, waitMean, waitMax, stageout, overlap, util float64
	}
	rows := make([]orow, len(cells))
	parallelFor(len(cells), func(i int) {
		c := cells[i]
		tb, err := New(Options{Nodes: sz.nodes, Seed: 1, ChunkSize: sz.chunk,
			BlockSize: 16 << 20, BBServers: 2, BBServerMemory: 4 << 30,
			BBFlushers: 1, BBSched: c.sched,
			LustreOSTs: 2, LustreStripeCount: 2})
		if err != nil {
			panic(err)
		}
		bricks := []int{5, 4, 2, 2}[:c.jobs]
		allocs := make([]*orchestrator.Allocation, c.jobs)
		tb.Run(func(ctx *Ctx) {
			orch, err := ctx.BufferOrchestrator(BackendBBAsync)
			if err != nil {
				panic(err)
			}
			// Per-job input waits on Lustre; each allocation stages its
			// share in before the job starts.
			for j := 0; j < c.jobs; j++ {
				for f := 0; f < stageFiles; f++ {
					if err := ctx.WriteFile(BackendLustre, j%sz.nodes,
						fmt.Sprintf("/in/job%d/f%d", j, f), perJob/stageFiles); err != nil {
						panic(err)
					}
				}
			}
			joins := make([]*Join, c.jobs)
			for j := 0; j < c.jobs; j++ {
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
		var waitSum, brickSecs float64
		var r orow
		runs := make([]tenantSpan, c.jobs)
		for j, a := range allocs {
			ti := a.Times
			if ti.Freed > end {
				end = ti.Freed
			}
			w := ti.QueueWait().Seconds()
			waitSum += w
			if w > r.waitMax {
				r.waitMax = w
			}
			r.stageout += ti.StageOut().Seconds() / float64(c.jobs)
			brickSecs += float64(bricks[j]) * (ti.Freed - ti.Placed).Seconds()
			runs[j] = tenantSpan{ti.Ready, ti.Released}
		}
		r.makespan = (end - start).Seconds()
		r.waitMean = waitSum / float64(c.jobs)
		// overlap: stage-out seconds spent while some other tenant's job
		// was computing — the drain the orchestrator hides.
		for j, a := range allocs {
			others := append(append([]tenantSpan(nil), runs[:j]...), runs[j+1:]...)
			r.overlap += overlapSecs(tenantSpan{a.Times.Released, a.Times.Freed}, others)
		}
		if r.makespan > 0 {
			r.util = brickSecs / (float64(totalBricks) * r.makespan)
		}
		rows[i] = r
	})
	for i, c := range cells {
		r := rows[i]
		t.AddRow(c.sched, c.jobs, r.makespan, r.waitMean, r.waitMax,
			r.stageout, r.overlap, r.util)
	}
	return t
}

// tab4 measures the extension features: in-buffer replication (durability
// for write cost) and read re-admission (warm re-reads after eviction).
func tab4(scale Scale) *metrics.Table {
	sz := sizingFor(scale)
	total := sz.sortSizes[0]
	t := metrics.NewTable("tab4: extensions (bb-async)",
		"config", "write MB/s", "lost-after-crash", "cold-read MB/s", "warm-read MB/s")
	cfgs := []struct {
		label    string
		replicas int
		readmit  bool
	}{
		{"baseline", 1, false},
		{"replicas=2", 2, false},
		{"readmit", 1, true},
	}
	type extResult struct {
		writeMBps          float64
		lost               int64
		coldMBps, warmMBps float64
	}
	results := make([]extResult, len(cfgs))
	parallelFor(len(cfgs), func(i int) {
		cfg := cfgs[i]
		// Run A — durability: crash one server right after the writes ack.
		tbA, err := New(Options{
			Nodes: sz.nodes, Seed: 1, ChunkSize: sz.chunk,
			BBReplicas: cfg.replicas, BBReadmitOnRead: cfg.readmit,
			BBFlushers: 1,
		})
		if err != nil {
			panic(err)
		}
		tbA.Run(func(ctx *Ctx) {
			w, err := ctx.DFSIOWrite(BackendBBAsync, "/bench/ext", sz.files, total/int64(sz.files))
			if err != nil {
				return
			}
			results[i].writeMBps = w.AggregateMBps()
			ctx.FailBufferServer(BackendBBAsync, 0)
		})
		stA, _ := tbA.BurstBufferStats(BackendBBAsync)
		results[i].lost = stA.BlocksLost

		// Run B — re-reads: write dataset A, then a larger dataset B that
		// evicts A, then delete B. The first re-read of A is cold (Lustre);
		// the second is warm only if re-admission refilled the cache.
		tbB, err := New(Options{
			Nodes: sz.nodes, Seed: 1, ChunkSize: sz.chunk,
			BBReplicas: cfg.replicas, BBReadmitOnRead: cfg.readmit,
			BBServerMemory: total / 2,
		})
		if err != nil {
			panic(err)
		}
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
				results[i].coldMBps = r.AggregateMBps()
			}
			ctx.Sleep(2 * time.Second) // let re-admission fills land
			if r, err := ctx.DFSIORead(BackendBBAsync, "/bench/a"); err == nil {
				results[i].warmMBps = r.AggregateMBps()
			}
		})
	})
	for i, cfg := range cfgs {
		r := results[i]
		t.AddRow(cfg.label, r.writeMBps, r.lost, r.coldMBps, r.warmMBps)
	}
	return t
}

// tab8 is the fleet-mode scaling table (ROADMAP item 2): a DFSIO-style
// replicated-write sweep over datacenter node counts, each run at one
// event heap and at a rack-sharded kernel, reporting the simulator's own
// scaling figures — wall-clock, events per file, retained MB of heap per
// node — plus the trace fingerprint demonstrating shard-count
// invariance. Cells run serially: each one uses every core via in-window
// shard workers, and the heap figure needs the host to itself.
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
	for _, nodes := range nodesAxis {
		for _, shards := range shardsAxis {
			fb, err := NewFleet(Options{Nodes: nodes, RacksOf: racksOf,
				Seed: 1, SimShards: shards})
			if err != nil {
				panic(err)
			}
			r := fb.DFSIOWrite(filesPerNode, fileSize)
			t.AddRow(r.Nodes, r.Racks, r.Shards, r.Ops,
				float64(r.Elapsed)/1e9, float64(r.Wall)/1e9,
				r.EventsPerOp, fmt.Sprintf("%.3f", r.HeapMBPerNode), r.Windows,
				fmt.Sprintf("%016x", r.Fingerprint))
		}
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
// population (BENCH_9.json records that A/B).
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
	for _, clients := range clientsAxis {
		for _, shards := range shardsAxis {
			r, linksPerOp := run(clients, shards, 256, 0)
			load := fmt.Sprintf("%.2fx", 100*float64(clients)*256/capRef)
			addRow(r, load, linksPerOp)
		}
	}
	for _, mult := range []int{1, 4, 20} {
		reqBytes := int(float64(mult) * capRef / (100 * float64(overClients)))
		r, linksPerOp := run(overClients, overShards, reqBytes, overCap)
		addRow(r, fmt.Sprintf("%dx", mult), linksPerOp)
	}
	return t
}
