// Command bbrun executes one workload on one storage backend of the
// simulated testbed and prints its metrics — the single-run companion to
// bbench's full sweeps. A burst-buffer backend runs on its pool's
// default instance, so no flag reaches the multi-job orchestrator (bbench
// tab7 drives it).
//
// Usage:
//
//	bbrun -workload dfsio-write -backend bb-async -nodes 8 -files 32 -size-mb 1024
//	bbrun -workload sort -backend lustre -size-mb 8192
//	bbrun -fleet -swarm -nodes 240 -clients 100000 -qps 1e7 -zipf 1.1 -shards 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hbb"
	"hbb/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bbrun:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, runs the one workload and prints
// its metrics to stdout.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fset := flag.NewFlagSet("bbrun", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		workload = fset.String("workload", "dfsio-write", "dfsio-write | dfsio-read | randomwriter | sort | scan (with -fleet: dfsio-write | stress)")
		backend  = fset.String("backend", "bb-async", "storage backend: "+strings.Join(hbb.BackendNames(), " | "))
		nodes    = fset.Int("nodes", 8, "compute nodes")
		files    = fset.Int("files", 0, "files/maps (default: 4 per node)")
		sizeMB   = fset.Int64("size-mb", 1024, "per-file (dfsio/randomwriter) or total (sort/scan) MiB")
		transp   = fset.String("transport", "rdma", "rdma | ipoib | 10gige | 1gige")
		hardware = fset.String("hardware", "hpc-local", "hpc-local | diskless")
		seed     = fset.Int64("seed", 1, "simulation seed")
		fleet    = fset.Bool("fleet", false, "fleet mode: memory-lean flow-only nodes on a rack-sharded kernel (workloads: dfsio-write, stress)")
		shards   = fset.Int("shards", 1, "fleet mode: DES event-heap shards (racks partitioned round-robin)")
		racksOf  = fset.Int("racks-of", 20, "fleet mode: nodes per rack")
		swarm    = fset.Bool("swarm", false, "fleet mode: drive an open-loop client swarm instead of a -workload")
		clients  = fset.Int("clients", 100000, "swarm: open-loop client population")
		qps      = fset.Float64("qps", 1e7, "swarm: aggregate offered request rate")
		zipf     = fset.Float64("zipf", 1.1, "swarm: key-popularity skew (> 1, or 0 for uniform)")
		reqBytes = fset.Int64("req-bytes", 256, "swarm: request payload bytes")
		swarmMS  = fset.Int64("swarm-ms", 10, "swarm: generation horizon in virtual milliseconds")
		trace    = fset.String("trace", "", "write a per-operation FS trace to this file")
		cpuProf  = fset.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fset.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fset.Parse(args); err != nil {
		return err
	}

	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	if *swarm && !*fleet {
		return errors.New("-swarm requires -fleet")
	}
	if *fleet {
		opts := hbb.Options{
			Nodes:     *nodes,
			RacksOf:   *racksOf,
			Transport: hbb.Transport(*transp),
			Seed:      *seed,
			SimShards: *shards,
		}
		if *swarm {
			opts.Swarm = hbb.SwarmOptions{
				Clients:      *clients,
				TargetQPS:    *qps,
				Zipf:         *zipf,
				RequestBytes: *reqBytes,
				Duration:     time.Duration(*swarmMS) * time.Millisecond,
			}
		}
		fb, err := hbb.NewFleet(opts)
		if err != nil {
			return err
		}
		if *swarm {
			return runSwarm(stdout, fb)
		}
		return runFleet(stdout, fb, *workload, *files, *sizeMB<<20)
	}
	b, err := hbb.ParseBackend(*backend)
	if err != nil {
		return err
	}
	if *files == 0 {
		*files = *nodes * 4
	}
	opts := hbb.Options{
		Nodes:     *nodes,
		Transport: hbb.Transport(*transp),
		Hardware:  hbb.Hardware(*hardware),
		Seed:      *seed,
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		opts.Trace = f
	}
	tb, err := hbb.New(opts)
	if err != nil {
		return err
	}
	tb.Run(func(ctx *hbb.Ctx) {
		var line string
		if line, err = runWorkload(ctx, b, *workload, *files, *nodes, *sizeMB<<20); err != nil {
			return
		}
		fmt.Fprintln(stdout, line)
		if st, ok := tb.BurstBufferStats(b); ok {
			fmt.Fprintf(stdout, "burst buffer: flushed=%.1f GiB  reads buffer/local/lustre=%d/%d/%d  stalls=%d evictions=%d\n",
				float64(st.BytesFlushed)/(1<<30), st.ReadsBuffer, st.ReadsLocal, st.ReadsLustre,
				st.WriterStalls, st.Evictions)
		}
		if reg, ok := tb.BurstBufferMetrics(b); ok {
			fmt.Fprintf(stdout, "flush latency: %s\n", reg.Histogram("flush.latency.s"))
		}
		net := tb.NetworkMetrics()
		fmt.Fprintf(stdout, "network:")
		for _, name := range net.Names() {
			if strings.HasPrefix(name, "net.bytes.") {
				fmt.Fprintf(stdout, "  %s=%.3fMiB", strings.TrimPrefix(name, "net.bytes."),
					float64(net.Counter(name).Value())/(1<<20))
			}
		}
		fmt.Fprintf(stdout, "  flows=%d re-solves=%d aborts=%d  active=%s\n",
			net.Counter("net.flows.started").Value(),
			net.Counter("net.flow.resolves").Value(),
			net.Counter("net.flow.aborts").Value(),
			net.Histogram("net.flows.active"))
	})
	return err
}

// runWorkload runs one testbed workload of size bytes (per file for
// dfsio and randomwriter, in total for sort and scan) and returns its
// report line.
func runWorkload(ctx *hbb.Ctx, b hbb.Backend, workload string, files, nodes int, size int64) (string, error) {
	switch workload {
	case "dfsio-write":
		res, err := ctx.DFSIOWrite(b, "/bench", files, size)
		return fmt.Sprintf("files=%d x %dMiB  time=%.2fs  throughput=%.0f MB/s",
			res.Files, size>>20, res.Duration.Seconds(), res.AggregateMBps()), err
	case "dfsio-read":
		if _, err := ctx.DFSIOWrite(b, "/bench", files, size); err != nil {
			return "", err
		}
		res, err := ctx.DFSIORead(b, "/bench")
		return fmt.Sprintf("files=%d  time=%.2fs  throughput=%.0f MB/s  local-maps=%d/%d",
			res.Files, res.Duration.Seconds(), res.AggregateMBps(), res.DataLocalMaps, res.MapTasks), err
	case "randomwriter":
		res, err := ctx.RandomWriter(b, "/bench", files, size)
		return fmt.Sprintf("maps=%d  time=%.2fs  wrote=%.1f GiB",
			res.MapTasks, res.Duration.Seconds(), float64(res.BytesOutput)/(1<<30)), err
	case "sort":
		if _, err := ctx.RandomWriter(b, "/in", files, size/int64(files)); err != nil {
			return "", err
		}
		res, err := ctx.Sort(b, "/in", "/out", nodes*2)
		return fmt.Sprintf("maps=%d reduces=%d  time=%.2fs  shuffled=%.1f GiB  local-maps=%d",
			res.MapTasks, res.ReduceTasks, res.Duration.Seconds(),
			float64(res.BytesShuffled)/(1<<30), res.DataLocalMaps), err
	case "scan":
		if _, err := ctx.RandomWriter(b, "/in", files, size/int64(files)); err != nil {
			return "", err
		}
		res, err := ctx.Scan(b, "/in", "/out", 0.02)
		return fmt.Sprintf("maps=%d  time=%.2fs  read=%.1f GiB",
			res.MapTasks, res.Duration.Seconds(), float64(res.BytesInput)/(1<<30)), err
	}
	return "", fmt.Errorf("unknown workload %q", workload)
}

// runFleet executes a fleet-mode workload: a DFSIO-style replicated
// write sweep of files per node (4 if 0) of size bytes, or the
// mixed-traffic stress, on the sharded kernel.
func runFleet(w io.Writer, fb *hbb.FleetBed, workload string, files int, size int64) error {
	if files == 0 {
		files = 4
	}
	var res hbb.FleetResult
	switch workload {
	case "dfsio-write":
		res = fb.DFSIOWrite(files, size)
	case "stress":
		res = fb.Stress(files)
	default:
		return fmt.Errorf("fleet mode supports dfsio-write | stress, not %q", workload)
	}
	fmt.Fprintf(w, "fleet: nodes=%d racks=%d shards=%d ops=%d moved=%.1fGiB\n",
		res.Nodes, res.Racks, res.Shards, res.Ops, float64(res.Bytes)/(1<<30))
	fmt.Fprintf(w, "virtual=%.3fs wall=%.3fs events=%d (%.1f/op) windows=%d cross-shard-msgs=%d\n",
		res.Elapsed.Seconds(), res.Wall.Seconds(), res.Events, res.EventsPerOp,
		res.Windows, res.Messages)
	fmt.Fprintf(w, "heap=%.3f MB/node fingerprint=%016x\n", res.HeapMBPerNode, res.Fingerprint)
	return nil
}

// runSwarm drives the open-loop client swarm on a fleet testbed and
// prints the scaling figures plus the swarm metric namespace.
func runSwarm(w io.Writer, fb *hbb.FleetBed) error {
	res, err := fb.RunSwarm()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "swarm: clients=%d nodes=%d racks=%d shards=%d requests=%d completed=%d\n",
		res.Clients, res.Nodes, res.Racks, res.Shards, res.Requests, res.Completed)
	fmt.Fprintf(w, "virtual=%.3fs wall=%.3fs achieved=%.0f qps events=%d (%.2f/req) windows=%d cross-shard-msgs=%d\n",
		res.Elapsed.Seconds(), res.Wall.Seconds(), res.AchievedQPS,
		res.Events, res.EventsPerRequest, res.Windows, res.Messages)
	fmt.Fprintf(w, "heap=%.1f B/client max-inflight=%d moved=%.2fGiB fingerprint=%016x\n",
		res.HeapBPerClient, res.MaxInflight, float64(res.Bytes)/(1<<30), res.Fingerprint)
	for _, line := range strings.Split(strings.TrimSuffix(fb.Metrics().String(), "\n"), "\n") {
		if strings.HasPrefix(line, "swarm.") {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	return nil
}
