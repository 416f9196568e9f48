package main

import (
	"runtime"
	"time"
)

// sizes scales every workload. fullSizes is what the benchmark runs;
// tinySizes keeps the same code paths small enough for the tests.
type sizes struct {
	setups int // set-ups per untraced run at least; setup_s is their median
	// setupBudget buys a cheap set-up more repeats: while the set-ups of a
	// run have taken less than this in total, up to 3*setups are made, so
	// that a 0.2 s set-up is not judged by three samples.
	setupBudget time.Duration
	minUnits    int // timed units per run at least, however short -seconds is
	outDir      string

	suiteWarm int // paper_suite iterations discarded per set-up

	fleetNodes, fleetRacksOf, fleetShards int
	swarmClients, overloadClients         int
	swarmQPS, overloadQPS                 float64 // offered load; times the 10 ms horizon, the requests per run
	fleetWarm                             int

	// kv_zipf_read and kv_uniform_mixed
	kvAddrs        []string // the three servers; fixed, because hashring hashes the ip:port string
	kvProbeAddr    string   // the lone server of the mcclient layer replay
	kvKeys         int      // preloaded keys, a power of two
	kvValueBytes   int
	kvMemLimit     int64
	zipfCallers    int
	zipfWindowOps  int
	zipfWarmOps    int
	unifCallers    int
	unifWindowOps  int
	unifWarmOps    int
	kvStreamOps    int // pre-generated ops per caller; a caller wraps around
	replayOps      int // ops replayed against the in-memory layers
	replaySockOps  int // ops replayed through one client, then through the cluster
	frontCacheWait time.Duration

	// kv_block_stream
	blkMemLimit   int64
	blkCallers    int
	blkBlocks     int // blocks per caller per pass
	blkChunks     int // chunks per block: one SetMulti, one GetMulti
	blkChunkBytes int
	blkWarmPasses int

	probeDiv int // divides the sim and netsim probes' iteration counts
}

func fullSizes() *sizes {
	nproc := runtime.NumCPU()
	return &sizes{
		setups:      3,
		setupBudget: 2 * time.Second,
		minUnits:    12,
		outDir:      "benchmark/out",

		suiteWarm: 1,

		fleetNodes: 240, fleetRacksOf: 20, fleetShards: 2,
		swarmClients: 1_000_000, overloadClients: 20_000,
		swarmQPS: 1e8, overloadQPS: 1e7,
		fleetWarm: 1,

		kvAddrs:        []string{"127.0.0.11:11211", "127.0.0.12:11211", "127.0.0.13:11211"},
		kvProbeAddr:    "127.0.0.14:11211",
		kvKeys:         1 << 18,
		kvValueBytes:   64,
		kvMemLimit:     256 << 20,
		zipfCallers:    nproc,
		zipfWindowOps:  150_000,
		zipfWarmOps:    150_000,
		unifCallers:    8,
		unifWindowOps:  60_000,
		unifWarmOps:    60_000,
		kvStreamOps:    1 << 19,
		replayOps:      200_000,
		replaySockOps:  40_000,
		frontCacheWait: 200 * time.Millisecond, // twice mccluster's default front-cache TTL

		blkMemLimit:   96 << 20,
		blkCallers:    nproc,
		blkBlocks:     4,
		blkChunks:     32,
		blkChunkBytes: 256 << 10,
		blkWarmPasses: 8,

		probeDiv: 1,
	}
}
