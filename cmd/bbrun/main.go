// Command bbrun executes one workload on one storage backend of the
// simulated testbed and prints its metrics — the single-run companion to
// bbench's full sweeps.
//
// Usage:
//
//	bbrun -workload dfsio-write -backend bb-async -nodes 8 -files 32 -size-mb 1024
//	bbrun -workload sort -backend lustre -size-mb 8192
//	bbrun -fleet -swarm -nodes 240 -clients 100000 -qps 1e7 -zipf 1.1 -shards 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hbb"
	"hbb/internal/profiling"
)

func main() {
	var (
		workload = flag.String("workload", "dfsio-write", "dfsio-write | dfsio-read | randomwriter | sort | scan (with -fleet: dfsio-write | stress)")
		backend  = flag.String("backend", "bb-async", "storage backend: "+strings.Join(hbb.BackendNames(), " | "))
		nodes    = flag.Int("nodes", 8, "compute nodes")
		files    = flag.Int("files", 0, "files/maps (default: 4 per node)")
		sizeMB   = flag.Int64("size-mb", 1024, "per-file (dfsio/randomwriter) or total (sort/scan) MiB")
		transp   = flag.String("transport", "rdma", "rdma | ipoib | 10gige | 1gige")
		hardware = flag.String("hardware", "hpc-local", "hpc-local | diskless")
		seed     = flag.Int64("seed", 1, "simulation seed")
		fleet    = flag.Bool("fleet", false, "fleet mode: memory-lean flow-only nodes on a rack-sharded kernel (workloads: dfsio-write, stress)")
		shards   = flag.Int("shards", 1, "fleet mode: DES event-heap shards (racks partitioned round-robin)")
		racksOf  = flag.Int("racks-of", 20, "fleet mode: nodes per rack")
		swarm    = flag.Bool("swarm", false, "fleet mode: drive an open-loop client swarm instead of a -workload")
		clients  = flag.Int("clients", 100000, "swarm: open-loop client population")
		qps      = flag.Float64("qps", 1e7, "swarm: aggregate offered request rate")
		zipf     = flag.Float64("zipf", 1.1, "swarm: key-popularity skew (> 1, or 0 for uniform)")
		reqBytes = flag.Int64("req-bytes", 256, "swarm: request payload bytes")
		swarmMS  = flag.Int64("swarm-ms", 10, "swarm: generation horizon in virtual milliseconds")
		brickGiB = flag.Int("bb-brick-gib", 1, "burst-buffer capacity granule in GiB (orchestrated allocations are whole bricks)")
		bbSched  = flag.String("bb-sched", "fcfs", "buffer orchestrator queue discipline: fcfs | backfill")
		trace    = flag.String("trace", "", "write a per-operation FS trace to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbrun:", err)
		os.Exit(1)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "bbrun:", err)
		}
	}()

	if *swarm {
		if !*fleet {
			fmt.Fprintln(os.Stderr, "bbrun: -swarm requires -fleet")
			os.Exit(2)
		}
		runSwarm(*nodes, *racksOf, *shards, *seed, hbb.Transport(*transp), hbb.SwarmOptions{
			Clients:      *clients,
			TargetQPS:    *qps,
			Zipf:         *zipf,
			RequestBytes: *reqBytes,
			Duration:     time.Duration(*swarmMS) * time.Millisecond,
		})
		return
	}
	if *fleet {
		runFleet(*workload, *nodes, *racksOf, *shards, *files, *sizeMB, *seed, hbb.Transport(*transp))
		return
	}
	b, err := hbb.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbrun:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *files == 0 {
		*files = *nodes * 4
	}
	opts := hbb.Options{
		Nodes:      *nodes,
		Transport:  hbb.Transport(*transp),
		Hardware:   hbb.Hardware(*hardware),
		Seed:       *seed,
		ChunkSize:  4 << 20,
		BBBrickGiB: *brickGiB,
		BBSched:    *bbSched,
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bbrun:", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.Trace = f
	}
	tb, err := hbb.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbrun:", err)
		os.Exit(1)
	}
	size := *sizeMB << 20

	tb.Run(func(ctx *hbb.Ctx) {
		switch *workload {
		case "dfsio-write":
			res, err := ctx.DFSIOWrite(b, "/bench", *files, size)
			report(err, "files=%d x %dMiB  time=%.2fs  throughput=%.0f MB/s",
				res.Files, size>>20, res.Duration.Seconds(), res.AggregateMBps())
		case "dfsio-read":
			if _, err := ctx.DFSIOWrite(b, "/bench", *files, size); err != nil {
				report(err, "")
				return
			}
			res, err := ctx.DFSIORead(b, "/bench")
			report(err, "files=%d  time=%.2fs  throughput=%.0f MB/s  local-maps=%d/%d",
				res.Files, res.Duration.Seconds(), res.AggregateMBps(), res.DataLocalMaps, res.MapTasks)
		case "randomwriter":
			res, err := ctx.RandomWriter(b, "/bench", *files, size)
			report(err, "maps=%d  time=%.2fs  wrote=%.1f GiB",
				res.MapTasks, res.Duration.Seconds(), float64(res.BytesOutput)/(1<<30))
		case "sort":
			per := size / int64(*files)
			if _, err := ctx.RandomWriter(b, "/in", *files, per); err != nil {
				report(err, "")
				return
			}
			res, err := ctx.Sort(b, "/in", "/out", *nodes*2)
			report(err, "maps=%d reduces=%d  time=%.2fs  shuffled=%.1f GiB  local-maps=%d",
				res.MapTasks, res.ReduceTasks, res.Duration.Seconds(),
				float64(res.BytesShuffled)/(1<<30), res.DataLocalMaps)
		case "scan":
			per := size / int64(*files)
			if _, err := ctx.RandomWriter(b, "/in", *files, per); err != nil {
				report(err, "")
				return
			}
			res, err := ctx.Scan(b, "/in", "/out", 0.02)
			report(err, "maps=%d  time=%.2fs  read=%.1f GiB",
				res.MapTasks, res.Duration.Seconds(), float64(res.BytesInput)/(1<<30))
		default:
			fmt.Fprintf(os.Stderr, "bbrun: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		if st, ok := tb.BurstBufferStats(b); ok {
			fmt.Printf("burst buffer: flushed=%.1f GiB  reads buffer/local/lustre=%d/%d/%d  stalls=%d evictions=%d\n",
				float64(st.BytesFlushed)/(1<<30), st.ReadsBuffer, st.ReadsLocal, st.ReadsLustre,
				st.WriterStalls, st.Evictions)
		}
		if reg, ok := tb.BurstBufferMetrics(b); ok {
			fmt.Printf("flush latency: %s\n", reg.Histogram("flush.latency.s"))
		}
		net := tb.NetworkMetrics()
		fmt.Printf("network:")
		for _, name := range net.Names() {
			if strings.HasPrefix(name, "net.bytes.") {
				fmt.Printf("  %s=%.1fGiB", strings.TrimPrefix(name, "net.bytes."),
					float64(net.Counter(name).Value())/(1<<30))
			}
		}
		fmt.Printf("  flows=%d re-solves=%d aborts=%d  active=%s\n",
			net.Counter("net.flows.started").Value(),
			net.Counter("net.flow.resolves").Value(),
			net.Counter("net.flow.aborts").Value(),
			net.Histogram("net.flows.active"))
	})
}

// runFleet executes a fleet-mode workload: a DFSIO-style replicated
// write sweep or the mixed-traffic stress, on the sharded kernel.
func runFleet(workload string, nodes, racksOf, shards, files int, sizeMB, seed int64, transport hbb.Transport) {
	fb, err := hbb.NewFleet(hbb.Options{
		Nodes:     nodes,
		RacksOf:   racksOf,
		Transport: transport,
		Seed:      seed,
		SimShards: shards,
		FleetMode: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbrun:", err)
		os.Exit(1)
	}
	if files == 0 {
		files = 4
	}
	var res hbb.FleetResult
	switch workload {
	case "dfsio-write":
		res = fb.DFSIOWrite(files, sizeMB<<20)
	case "stress":
		res = fb.Stress(files)
	default:
		fmt.Fprintf(os.Stderr, "bbrun: fleet mode supports dfsio-write | stress, not %q\n", workload)
		os.Exit(2)
	}
	fmt.Printf("fleet: nodes=%d racks=%d shards=%d ops=%d moved=%.1fGiB\n",
		res.Nodes, res.Racks, res.Shards, res.Ops, float64(res.Bytes)/(1<<30))
	fmt.Printf("virtual=%.3fs wall=%.3fs events=%d (%.1f/op) windows=%d cross-shard-msgs=%d\n",
		res.Elapsed.Seconds(), res.Wall.Seconds(), res.Events, res.EventsPerOp,
		res.Windows, res.Messages)
	fmt.Printf("heap=%.3f MB/node fingerprint=%016x\n", res.HeapMBPerNode, res.Fingerprint)
}

// runSwarm drives the open-loop client swarm on a fleet testbed and
// prints the scaling figures plus the swarm metric namespace.
func runSwarm(nodes, racksOf, shards int, seed int64, transport hbb.Transport, so hbb.SwarmOptions) {
	fb, err := hbb.NewFleet(hbb.Options{
		Nodes:     nodes,
		RacksOf:   racksOf,
		Transport: transport,
		Seed:      seed,
		SimShards: shards,
		FleetMode: true,
		Swarm:     so,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbrun:", err)
		os.Exit(1)
	}
	res, err := fb.RunSwarm()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbrun:", err)
		os.Exit(1)
	}
	fmt.Printf("swarm: clients=%d nodes=%d racks=%d shards=%d requests=%d completed=%d\n",
		res.Clients, res.Nodes, res.Racks, res.Shards, res.Requests, res.Completed)
	fmt.Printf("virtual=%.3fs wall=%.3fs achieved=%.0f qps events=%d (%.2f/req) windows=%d cross-shard-msgs=%d\n",
		res.Elapsed.Seconds(), res.Wall.Seconds(), res.AchievedQPS,
		res.Events, res.EventsPerRequest, res.Windows, res.Messages)
	fmt.Printf("heap=%.1f B/client max-inflight=%d moved=%.2fGiB fingerprint=%016x\n",
		res.HeapBPerClient, res.MaxInflight, float64(res.Bytes)/(1<<30), res.Fingerprint)
	for _, line := range strings.Split(strings.TrimSuffix(fb.Metrics().String(), "\n"), "\n") {
		if strings.HasPrefix(line, "swarm.") {
			fmt.Printf("  %s\n", line)
		}
	}
}

func report(err error, format string, args ...any) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbrun: workload failed:", err)
		os.Exit(1)
	}
	fmt.Printf(format+"\n", args...)
}
