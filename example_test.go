package hbb_test

import (
	"fmt"
	"time"

	"hbb"
)

// The simulation is deterministic, so examples assert exact output.

// The tour of the public API: build a simulated 8-node HPC cluster, write
// a file through the async burst buffer and read it back from another
// node, compare a small TestDFSIO write across three backends, and see
// where the buffer put the bytes.
func Example() {
	tb, err := hbb.New(hbb.Options{Nodes: 8, Seed: 7})
	if err != nil {
		panic(err)
	}
	tb.Run(func(ctx *hbb.Ctx) {
		// 1. Plain file I/O: write 512 MiB from node 0, read it from node 3.
		const size = 512 << 20
		if err := ctx.WriteFile(hbb.BackendBBAsync, 0, "/demo/hello", size); err != nil {
			panic(err)
		}
		start := ctx.Now()
		n, err := ctx.ReadFile(hbb.BackendBBAsync, 3, "/demo/hello")
		if err != nil {
			panic(err)
		}
		fmt.Printf("read %d MiB from the burst buffer in %v of virtual time\n",
			n>>20, ctx.Now()-start)

		// 2. A miniature TestDFSIO write across three backends.
		fmt.Println("\nTestDFSIO write, 16 x 256 MiB:")
		for _, b := range []hbb.Backend{hbb.BackendHDFS, hbb.BackendLustre, hbb.BackendBBAsync} {
			res, err := ctx.DFSIOWrite(b, "/bench/"+b.String(), 16, 256<<20)
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-12s %7.0f MB/s  (%.2fs)\n", b, res.AggregateMBps(), res.Duration.Seconds())
			ctx.Cleanup(b, "/bench/"+b.String())
		}

		// 3. Where did the burst buffer put the bytes?
		ctx.DrainBurstBuffer(hbb.BackendBBAsync)
		st, _ := tb.BurstBufferStats(hbb.BackendBBAsync)
		fmt.Printf("\nburst buffer: wrote %.1f GiB, flushed %.1f GiB to Lustre in the background\n",
			float64(st.BytesWritten)/(1<<30), float64(st.BytesFlushed)/(1<<30))
	})
	// Output:
	// read 512 MiB from the burst buffer in 90.046804ms of virtual time
	//
	// TestDFSIO write, 16 x 256 MiB:
	//   hdfs            1693 MB/s  (2.54s)
	//   lustre          3908 MB/s  (1.10s)
	//   bb-async        4749 MB/s  (0.90s)
	//
	// burst buffer: wrote 4.5 GiB, flushed 2.1 GiB to Lustre in the background
}

// Compare the paper's headline TestDFSIO write ordering across the two
// baselines and the async burst buffer.
func ExampleCtx_DFSIOWrite() {
	results := map[hbb.Backend]float64{}
	for _, b := range []hbb.Backend{hbb.BackendHDFS, hbb.BackendLustre, hbb.BackendBBAsync} {
		b := b
		tb, _ := hbb.New(hbb.Options{Nodes: 8, Seed: 1})
		tb.Run(func(ctx *hbb.Ctx) {
			res, err := ctx.DFSIOWrite(b, "/bench", 32, 512<<20)
			if err != nil {
				panic(err)
			}
			results[b] = res.AggregateMBps()
		})
	}
	fmt.Println("buffer beats Lustre:", results[hbb.BackendBBAsync] > results[hbb.BackendLustre])
	fmt.Println("Lustre beats HDFS:  ", results[hbb.BackendLustre] > results[hbb.BackendHDFS])
	// Output:
	// buffer beats Lustre: true
	// Lustre beats HDFS:   true
}

// Crash half the buffer pool while data is still dirty and watch the
// three integration schemes diverge: the async scheme loses its
// un-flushed window, the locality scheme re-flushes from its node-local
// replicas, and the write-through (sync) scheme never had a window.
func ExampleCtx_FailBufferServer() {
	const files = 16
	for _, b := range []hbb.Backend{hbb.BackendBBAsync, hbb.BackendBBLocality, hbb.BackendBBSync} {
		tb, err := hbb.New(hbb.Options{Nodes: 8, Seed: 3, BBFlushers: 1})
		if err != nil {
			panic(err)
		}
		tb.Run(func(ctx *hbb.Ctx) {
			if _, err := ctx.DFSIOWrite(b, "/data", files, 256<<20); err != nil {
				panic(err)
			}
			// Crash two of the four servers right after the writes ack,
			// before the flushers finish draining.
			ctx.FailBufferServer(b, 0)
			ctx.FailBufferServer(b, 1)
			ctx.Sleep(5 * time.Second) // let recovery (if any) run

			readable := 0
			var failed error
			for i := 0; i < files; i++ {
				if _, err := ctx.ReadFile(b, i%8, fmt.Sprintf("/data/part-m-%05d", i)); err != nil {
					failed = err
					continue
				}
				readable++
			}
			st, _ := tb.BurstBufferStats(b)
			fmt.Printf("%-12s readable %2d/%d files   lost=%d recovered=%d",
				b, readable, files, st.BlocksLost, st.BlocksRecovered)
			if failed != nil {
				fmt.Printf("   (first failure: %v)", failed)
			}
			fmt.Println()
		})
	}
	fmt.Println("\nasync loses its un-flushed window; locality re-flushes from local replicas; sync never had a window.")
	// Output:
	// bb-async     readable 12/16 files   lost=4 recovered=0   (first failure: dfs: block unavailable or corrupt: block 32 of "/data/part-m-00015" (state lost) has no live source)
	// bb-locality  readable 16/16 files   lost=0 recovered=4
	// bb-sync      readable 16/16 files   lost=0 recovered=0
	//
	// async loses its un-flushed window; locality re-flushes from local replicas; sync never had a window.
}

// The paper's Sort benchmark end to end: generate records with
// RandomWriter, sort them with a full map/shuffle/reduce job, and compare
// execution time across every registered backend, with where each
// backend's map tasks ran and how much data the shuffle moved.
func ExampleCtx_Sort() {
	const (
		nodes   = 8
		maps    = 32
		totalGB = 8
	)
	fmt.Printf("Sort of %d GiB on %d nodes (%d maps):\n\n", totalGB, nodes, maps)
	fmt.Printf("%-12s %9s %9s %12s %11s\n", "backend", "gen(s)", "sort(s)", "local-maps", "shuffled")
	var hdfsTime, lustreTime float64
	for _, b := range hbb.AllBackends {
		tb, err := hbb.New(hbb.Options{Nodes: nodes, Seed: 11})
		if err != nil {
			panic(err)
		}
		tb.Run(func(ctx *hbb.Ctx) {
			gen, err := ctx.RandomWriter(b, "/records", maps, int64(totalGB)<<30/maps)
			if err != nil {
				panic(err)
			}
			res, err := ctx.Sort(b, "/records", "/sorted", nodes*2)
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-12s %9.2f %9.2f %8d/%-3d %8.1f GiB\n",
				b, gen.Duration.Seconds(), res.Duration.Seconds(),
				res.DataLocalMaps, res.MapTasks, float64(res.BytesShuffled)/(1<<30))
			switch b {
			case hbb.BackendHDFS:
				hdfsTime = res.Duration.Seconds()
			case hbb.BackendLustre:
				lustreTime = res.Duration.Seconds()
			case hbb.BackendBBAsync:
				fmt.Printf("\n  bb-async sort vs HDFS: %+.0f%%   vs Lustre: %+.0f%%\n",
					(res.Duration.Seconds()-hdfsTime)/hdfsTime*100,
					(res.Duration.Seconds()-lustreTime)/lustreTime*100)
			}
		})
	}
	// Output:
	// Sort of 8 GiB on 8 nodes (32 maps):
	//
	// backend         gen(s)   sort(s)   local-maps    shuffled
	// hdfs              4.03     16.14       32/32       8.0 GiB
	// lustre            2.20     17.19        0/32       8.0 GiB
	// bb-async          1.80     13.25        0/32       8.0 GiB
	//
	//   bb-async sort vs HDFS: -18%   vs Lustre: -23%
	// bb-locality       1.80     13.22       32/32       8.0 GiB
	// bb-sync           2.21     13.64        0/32       8.0 GiB
	// bb-adaptive       1.80     13.24        0/32       8.0 GiB
}

// The paper's motivating scenario: a Stampede-like cluster whose compute
// nodes have no persistent local storage, only a 12 GiB RAM disk. Stock
// HDFS (3-way replication) holds at most nodes x 12/3 GiB; past that it
// cannot take writes, while the burst buffer streams arbitrarily large
// datasets through to Lustre.
func ExampleHardware() {
	const nodes = 8
	hdfsCapGB := nodes * 12 / 3
	fmt.Printf("%d diskless nodes: stock HDFS can hold at most ~%d GB\n\n", nodes, hdfsCapGB)
	for _, totalGB := range []int64{int64(hdfsCapGB) / 2, int64(hdfsCapGB) * 2} {
		fmt.Printf("writing %d GB:\n", totalGB)
		for _, b := range []hbb.Backend{hbb.BackendHDFS, hbb.BackendBBAsync} {
			tb, err := hbb.New(hbb.Options{Nodes: nodes, Hardware: hbb.HardwareDiskless, Seed: 21})
			if err != nil {
				panic(err)
			}
			tb.Run(func(ctx *hbb.Ctx) {
				files := nodes * 4
				res, err := ctx.DFSIOWrite(b, "/data", files, totalGB<<30/int64(files))
				if err != nil {
					fmt.Printf("  %-10s FAILS: %v\n", b, err)
					return
				}
				ctx.DrainBurstBuffer(b)
				fmt.Printf("  %-10s ok: %.0f MB/s (local storage used: %.1f GB)\n",
					b, res.AggregateMBps(), float64(tb.LocalStorageUsed())/(1<<30))
			})
		}
		fmt.Println()
	}
	// Output:
	// 8 diskless nodes: stock HDFS can hold at most ~32 GB
	//
	// writing 16 GB:
	//   hdfs       ok: 9232 MB/s (local storage used: 48.0 GB)
	//   bb-async   ok: 5309 MB/s (local storage used: 0.0 GB)
	//
	// writing 64 GB:
	//   hdfs       FAILS: mapreduce: map task 5 failed 4 times: dfs: no space left: no usable datanode for 134217728-byte block
	//   bb-async   ok: 4974 MB/s (local storage used: 0.0 GB)
}
