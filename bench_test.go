package hbb

// One testing.B benchmark per figure and table of the paper's evaluation.
// Each benchmark regenerates its experiment at small scale (fast enough
// for `go test -bench`) and logs the resulting table; `cmd/bbench
// -scale full` produces the paper-scale numbers recorded in
// EXPERIMENTS.md. The benchmark "time" is wall-clock simulation cost, not
// the virtual-time result — the tables carry the reproduced metrics.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hbb/internal/mapreduce"
	"hbb/internal/orchestrator"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var table string
	for i := 0; i < b.N; i++ {
		table = e.Run(ScaleSmall).String()
	}
	b.Logf("claim: %s\n%s", e.Claim, table)
}

// BenchmarkFig1MemcachedLatency regenerates the KV op-latency
// microbenchmark across transports.
func BenchmarkFig1MemcachedLatency(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2MemcachedThroughput regenerates the KV throughput scaling
// curve.
func BenchmarkFig2MemcachedThroughput(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3DFSIOWrite regenerates the TestDFSIO write sweep
// (claim: up to 2.6x over HDFS, 1.5x over Lustre).
func BenchmarkFig3DFSIOWrite(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4DFSIORead regenerates the TestDFSIO read sweep
// (claim: up to 8x read gain).
func BenchmarkFig4DFSIORead(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5Sort regenerates the Sort execution-time sweep
// (claim: -28% vs Lustre, -19% vs HDFS).
func BenchmarkFig5Sort(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6RandomWriter regenerates the RandomWriter sweep.
func BenchmarkFig6RandomWriter(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Scalability regenerates the cluster-size scaling sweep.
func BenchmarkFig7Scalability(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8IOIntensive regenerates the concurrent I/O-intensive mix.
func BenchmarkFig8IOIntensive(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9FaultTolerance regenerates the buffer-server-crash run.
func BenchmarkFig9FaultTolerance(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkTab1LocalStorage regenerates the local-storage-requirement
// table.
func BenchmarkTab1LocalStorage(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkTab2Ablation regenerates the flusher/memory ablation.
func BenchmarkTab2Ablation(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkTab3Stripes regenerates the Lustre stripe/transport ablation.
func BenchmarkTab3Stripes(b *testing.B) { benchExperiment(b, "tab3") }

// BenchmarkDFSIOWriteHeadline reports the headline write gains as
// benchmark metrics so regressions are visible in benchstat diffs.
func BenchmarkDFSIOWriteHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mbps := map[Backend]float64{}
		for _, bk := range []Backend{BackendHDFS, BackendLustre, BackendBBAsync} {
			bk := bk
			tb, err := New(Options{Nodes: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			tb.Run(func(ctx *Ctx) {
				res, err := ctx.DFSIOWrite(bk, "/bench", 32, 512<<20)
				if err != nil {
					b.Fatal(err)
				}
				mbps[bk] = res.AggregateMBps()
			})
		}
		if i == 0 {
			b.ReportMetric(mbps[BackendBBAsync]/mbps[BackendHDFS], "gain-vs-hdfs")
			b.ReportMetric(mbps[BackendBBAsync]/mbps[BackendLustre], "gain-vs-lustre")
			b.ReportMetric(mbps[BackendBBAsync], "bb-MB/s")
		}
	}
}

// BenchmarkSimKernel measures raw event throughput of the DES kernel — the
// cost floor under every experiment.
func BenchmarkSimKernel(b *testing.B) {
	tb, err := New(Options{Nodes: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	_ = tb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, _ := New(Options{Nodes: 4, Seed: int64(i + 1)})
		tb.Run(func(ctx *Ctx) {
			ctx.Sleep(time.Second)
		})
	}
}

// BenchmarkFig10Diskless regenerates the diskless-deployability run.
func BenchmarkFig10Diskless(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTab4Extensions regenerates the replication/re-admission
// extension table.
func BenchmarkTab4Extensions(b *testing.B) { benchExperiment(b, "tab4") }

// BenchmarkTab5PolicyMetrics regenerates the per-scheme burst-buffer
// metrics table (flush latency, writer stalls, read sources, adaptive
// mode split).
func BenchmarkTab5PolicyMetrics(b *testing.B) { benchExperiment(b, "tab5") }

// BenchmarkTab6DataPlane regenerates the stage-out data-plane comparison
// (run cap 8 with block readahead vs run cap 1).
func BenchmarkTab6DataPlane(b *testing.B) { benchExperiment(b, "tab6") }

// drainBurstOnce runs the tab6 checkpoint-burst shape once and returns the
// simulated drain time: 8 files x 8 blocks through two throttled buffer
// servers onto a narrow Lustre, then a timed full drain, at run cap 8
// when coalesced and run cap 1 otherwise.
func drainBurstOnce(b *testing.B, coalesced bool) time.Duration {
	opts := Options{Nodes: 4, Seed: 1,
		BlockSize: 16 << 20, BBServers: 2, BBFlushers: 1,
		LustreOSTs: 2, LustreStripeCount: 2}
	if coalesced {
		opts.BBFlushBatchBlocks = 8
	}
	tb, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	var drain time.Duration
	tb.Run(func(ctx *Ctx) {
		if _, err := ctx.DFSIOWrite(BackendBBAsync, "/bench/drain", 8, 128<<20); err != nil {
			b.Fatal(err)
		}
		start := ctx.Now()
		ctx.DrainBurstBuffer(BackendBBAsync)
		drain = ctx.Now() - start
	})
	return drain
}

// BenchmarkStageOutDrain reports the simulated drain time at run cap 1
// (one block per Lustre object) and run cap 8 side by side, so both the
// virtual-time win and the simulator's own alloc cost show up in
// benchstat diffs.
func BenchmarkStageOutDrain(b *testing.B) {
	b.ReportAllocs()
	var perBlock, coalesced time.Duration
	for i := 0; i < b.N; i++ {
		perBlock = drainBurstOnce(b, false)
		coalesced = drainBurstOnce(b, true)
	}
	b.ReportMetric(perBlock.Seconds()*1e3, "per-block-drain-ms")
	b.ReportMetric(coalesced.Seconds()*1e3, "coalesced-drain-ms")
	b.ReportMetric(perBlock.Seconds()/coalesced.Seconds(), "drain-speedup")
}

// BenchmarkReadAheadStreaming reports streaming read throughput with and
// without block readahead over the same buffered file set.
func BenchmarkReadAheadStreaming(b *testing.B) {
	b.ReportAllocs()
	run := func(readAhead int) float64 {
		tb, err := New(Options{Nodes: 4, Seed: 1,
			BlockSize: 16 << 20, BBReadAhead: readAhead})
		if err != nil {
			b.Fatal(err)
		}
		var mbps float64
		tb.Run(func(ctx *Ctx) {
			if _, err := ctx.DFSIOWrite(BackendBBAsync, "/bench/ra", 8, 64<<20); err != nil {
				b.Fatal(err)
			}
			ctx.DrainBurstBuffer(BackendBBAsync)
			r, err := ctx.DFSIORead(BackendBBAsync, "/bench/ra")
			if err != nil {
				b.Fatal(err)
			}
			mbps = r.AggregateMBps()
		})
		return mbps
	}
	var base, ahead float64
	for i := 0; i < b.N; i++ {
		base = run(0)
		ahead = run(2)
	}
	b.ReportMetric(base, "rd-MB/s")
	b.ReportMetric(ahead, "rd-MB/s-readahead")
	b.ReportMetric(ahead/base, "read-speedup")
}

// BenchmarkTab7Orchestration regenerates the multi-job buffer
// orchestration comparison (FCFS vs backfill over a shared brick pool).
func BenchmarkTab7Orchestration(b *testing.B) { benchExperiment(b, "tab7") }

// contentionOnce runs the tab7 four-job contention cell once under the
// given queue discipline and returns the simulated makespan: heterogeneous
// asks [5,4,2,2] against an 8-brick pool, each tenant staging in, running
// a map-only job on its instance, and releasing.
func contentionOnce(b *testing.B, sched string) time.Duration {
	tb, err := New(Options{Nodes: 4, Seed: 1,
		BlockSize: 16 << 20, BBServers: 2, BBServerMemory: 4 << 30,
		BBFlushers: 1, BBSched: sched,
		LustreOSTs: 2, LustreStripeCount: 2})
	if err != nil {
		b.Fatal(err)
	}
	bricks := []int{5, 4, 2, 2}
	allocs := make([]*orchestrator.Allocation, len(bricks))
	tb.Run(func(ctx *Ctx) {
		orch, err := ctx.BufferOrchestrator(BackendBBAsync)
		if err != nil {
			b.Error(err)
			return
		}
		for j := range bricks {
			if err := ctx.WriteFile(BackendLustre, j,
				fmt.Sprintf("/in/f%d", j), 32<<20); err != nil {
				b.Error(err)
				return
			}
		}
		joins := make([]*Join, len(bricks))
		for j := range bricks {
			a := orch.Submit(orchestrator.Request{
				Name:    fmt.Sprintf("job%d", j),
				Bricks:  bricks[j],
				Client:  tb.cluster.Nodes[j].ID,
				StageIn: []orchestrator.StagePair{{Src: fmt.Sprintf("/in/f%d", j), Dst: "/data/in"}},
			})
			allocs[j] = a
			j := j
			joins[j] = ctx.Go(fmt.Sprintf("tenant%d", j), func(c2 *Ctx) {
				if err := a.Await(c2.p); err != nil {
					b.Error(err)
					return
				}
				sub := c2.SubmitJob(mapreduce.Job{
					Name:           fmt.Sprintf("job%d", j),
					Input:          []string{"/data/in"},
					InputFS:        a.FS(),
					OutputFS:       a.FS(),
					OutputDir:      "/data/out",
					MapOutputRatio: 1.0,
				})
				if _, err := sub.Wait(c2.p); err != nil {
					b.Error(err)
					return
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
	var makespan time.Duration
	for _, a := range allocs {
		if span := a.Times.Freed - a.Times.Submitted; span > makespan {
			makespan = span
		}
	}
	return makespan
}

// BenchmarkMultiJobContention reports the simulated four-job makespan
// under FCFS and backfill side by side, so the queue-discipline trade-off
// and the orchestration layer's own alloc cost show up in benchstat diffs.
func BenchmarkMultiJobContention(b *testing.B) {
	b.ReportAllocs()
	var fcfs, backfill time.Duration
	for i := 0; i < b.N; i++ {
		fcfs = contentionOnce(b, "fcfs")
		backfill = contentionOnce(b, "backfill")
	}
	b.ReportMetric(fcfs.Seconds()*1e3, "fcfs-makespan-ms")
	b.ReportMetric(backfill.Seconds()*1e3, "backfill-makespan-ms")
	b.ReportMetric(fcfs.Seconds()/backfill.Seconds(), "backfill-speedup")
}

// BenchmarkExperiments regenerates a bundle of cheap experiments end to
// end at one worker and at four (runtime.GOMAXPROCS, restored after), and
// reports both wall times per bundle and their ratio: cells are
// independent seeded simulations, so only wall time changes.
func BenchmarkExperiments(b *testing.B) {
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		for _, procs := range []int{1, 4} {
			start := time.Now()
			withProcs(procs, func() {
				for _, id := range []string{"fig1", "fig2", "fig9"} {
					e, _ := ExperimentByID(id)
					_ = e.Run(ScaleSmall)
				}
			})
			if procs == 1 {
				serial += time.Since(start)
			} else {
				parallel += time.Since(start)
			}
		}
	}
	b.ReportMetric(serial.Seconds()*1e3/float64(b.N), "serial-ms")
	b.ReportMetric(parallel.Seconds()*1e3/float64(b.N), "procs4-ms")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
}

// BenchmarkTab8FleetScaling regenerates the fleet-mode scaling table at
// small scale (the full 10k-node sweep runs via `make bench-fleet`).
func BenchmarkTab8FleetScaling(b *testing.B) { benchExperiment(b, "tab8") }

// fleetDFSIOOnce runs one fleet DFSIO-write cell and reports the
// simulator-scaling metrics alongside the timing.
func fleetDFSIOOnce(b *testing.B, nodes, shards, filesPerNode int, fileSize int64) FleetResult {
	fb, err := NewFleet(Options{Nodes: nodes, RacksOf: 20, Seed: 1, SimShards: shards})
	if err != nil {
		b.Fatal(err)
	}
	return fb.DFSIOWrite(filesPerNode, fileSize)
}

// BenchmarkFleetDFSIO10k is the 10,000-node smoke: a million replicated
// file writes over 500 racks on a 4-way-sharded kernel. Run with
// -benchtime 1x (`make bench-fleet`); each iteration is one full sweep.
func BenchmarkFleetDFSIO10k(b *testing.B) {
	var r FleetResult
	for i := 0; i < b.N; i++ {
		r = fleetDFSIOOnce(b, 10000, 4, 100, 8<<20)
	}
	b.ReportMetric(r.EventsPerOp, "events/op")
	b.ReportMetric(r.HeapMBPerNode, "MB-heap/node")
	b.ReportMetric(r.Wall.Seconds(), "wall-s")
	b.ReportMetric(float64(r.Ops), "files")
}

// BenchmarkTab9SwarmScaling regenerates the open-loop swarm scaling
// table at small scale (the full million-client sweep runs via
// `make bench-swarm`).
func BenchmarkTab9SwarmScaling(b *testing.B) { benchExperiment(b, "tab9") }

// swarmOnce runs one open-loop swarm cell and reports the scaling
// metrics alongside the timing. Requests are KV-sized (256 B) to keep
// the zipf-hot node inside its NIC capacity — see tab9.
func swarmOnce(b *testing.B, clients, shards int) SwarmResult {
	fb, err := NewFleet(Options{Nodes: 240, RacksOf: 20, FleetMode: true,
		Seed: 1, SimShards: shards,
		Swarm: SwarmOptions{
			Clients:      clients,
			TargetQPS:    100 * float64(clients),
			Zipf:         1.1,
			RequestBytes: 256,
			Duration:     10 * time.Millisecond,
		}})
	if err != nil {
		b.Fatal(err)
	}
	r, err := fb.RunSwarm()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkSwarmMillion is the million-client smoke: 10^6 open-loop
// clients at 100 QPS each on a 4-way-sharded 240-node fleet. Run with
// -benchtime 1x (`make bench-swarm`); each iteration is one full run.
// The headline figure is retained heap bytes per client.
func BenchmarkSwarmMillion(b *testing.B) {
	var r SwarmResult
	for i := 0; i < b.N; i++ {
		r = swarmOnce(b, 1000000, 4)
	}
	b.ReportMetric(r.HeapBPerClient, "B-heap/client")
	b.ReportMetric(r.EventsPerRequest, "events/req")
	b.ReportMetric(float64(r.Requests)/r.Wall.Seconds(), "req/wall-s")
	b.ReportMetric(float64(r.Requests), "requests")
}

// swarmOverloadOnce drives one oversubscribed open-loop swarm run:
// ~100k requests whose byte stream is ~20x what the zipf-hot NICs
// can drain (the 10 GB offered in the 10 ms horizon takes ~23x that
// long to clear), so a deep backlog of transfers piles onto the
// fabric while the run drains to empty.
func swarmOverloadOnce(b *testing.B) (SwarmResult, *FleetBed) {
	fb, err := NewFleet(Options{Nodes: 240, RacksOf: 20, FleetMode: true,
		Seed: 1, SimShards: 4,
		Swarm: SwarmOptions{
			Clients:      20000,
			TargetQPS:    1e7,
			Zipf:         1.1,
			RequestBytes: 96 << 10,
			Duration:     10 * time.Millisecond,
		}})
	if err != nil {
		b.Fatal(err)
	}
	r, err := fb.RunSwarm()
	if err != nil {
		b.Fatal(err)
	}
	return r, fb
}

// BenchmarkSwarmOverload runs the counted-bundle max-min solver on a
// 20x-oversubscribed swarm; req/wall-s is the headline. links/op is
// solver links touched per rack settle — bounded by the affected
// components however deep the backlog grows. (CHANGES.md's incremental
// max-min solver entry records the ~27x this engine gained over the
// per-leg full re-solve it replaced.)
func BenchmarkSwarmOverload(b *testing.B) {
	runtime.GC()
	b.ResetTimer()
	var r SwarmResult
	var fb *FleetBed
	for i := 0; i < b.N; i++ {
		r, fb = swarmOverloadOnce(b)
	}
	b.StopTimer()
	m := fb.Metrics()
	resolves := m.Counter("fleet.resolves").Value()
	if resolves > 0 {
		b.ReportMetric(float64(m.Counter("fleet.links.touched").Value())/float64(resolves), "links/op")
	}
	b.ReportMetric(float64(r.Requests)/r.Wall.Seconds(), "req/wall-s")
	b.ReportMetric(float64(r.Requests), "requests")
}

// BenchmarkSwarmShardSpeedup runs the same 100k-client swarm on one
// heap and on a 4-way-sharded kernel so benchstat shows the multi-core
// win (identical fingerprints; only wall-clock differs — on a 1-core
// host the sharded run must stay within ~2%).
func BenchmarkSwarmShardSpeedup(b *testing.B) {
	for _, shards := range []int{1, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			var r SwarmResult
			for i := 0; i < b.N; i++ {
				r = swarmOnce(b, 100000, shards)
			}
			b.ReportMetric(r.EventsPerRequest, "events/req")
			b.ReportMetric(float64(r.Requests)/r.Wall.Seconds(), "req/wall-s")
		})
	}
}

// BenchmarkFleetShardSpeedup runs the same 1000-node sweep on one heap
// and on a 4-way-sharded kernel so benchstat shows the multi-core win
// (the traces are identical; only wall-clock differs).
func BenchmarkFleetShardSpeedup(b *testing.B) {
	for _, shards := range []int{1, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			// Earlier benchmarks in the suite leave heap garbage whose GC
			// lands inside this sub-second measurement; start clean so the
			// shards=1 vs 4 comparison isn't skewed by suite order.
			runtime.GC()
			b.ResetTimer()
			var r FleetResult
			for i := 0; i < b.N; i++ {
				r = fleetDFSIOOnce(b, 1000, shards, 20, 8<<20)
			}
			b.ReportMetric(r.EventsPerOp, "events/op")
			b.ReportMetric(r.HeapMBPerNode, "MB-heap/node")
		})
	}
}
