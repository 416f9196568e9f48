# Convenience targets; everything is plain `go` underneath.

.PHONY: all test vet loc race fuzz bench bench-smoke bench-kernel bench-dataplane bench-netsim bench-orchestration bench-fleet bench-swarm bench-cluster golden determinism stress repro tools clean

all: test

test:
	go build ./... && go vet ./... && go test ./...

vet:
	go vet ./...

# Non-test Go lines outside benchmark/: the size ROADMAP item 5 tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

# Race-detector pass; the sim kernel runs one process at a time but the
# harness, mcserver, mcclient, and CLIs use real goroutines.
race:
	go test -race ./...

# Fuzz for FUZZTIME each: the one frame decoder (binproto.ReadHead), the
# client's reply reader against arbitrary server bytes, the engine against
# its plain-map model over arbitrary operation programs (on a roomy engine
# and on a four-page one that fills: per-class LRU eviction, an overwrite
# reusing its key's own chunk, pinned items passed over, ErrNoMemory with
# every item of a class pinned; the hash index starts at one bucket, so
# every program crosses its doublings and walks chains of several items,
# and the model checks the index's size after every step), the sim
# kernel's event heap against its sorted-slice oracle over arbitrary
# schedule/pop/cancel/reschedule programs, and the log-linear
# metrics.Histogram against its sorted-sample oracle (zeros, negatives,
# +-1e308; exact count/min/max/mean, quantiles within 1/32, Merge equal to
# observing both streams): five targets. `go test` takes one -fuzz target
# per run; plain `go test ./...` runs their seed corpora.
FUZZTIME ?= 30s
fuzz:
	go test -run '^$$' -fuzz '^FuzzReadHead$$' -fuzztime $(FUZZTIME) ./internal/memcached/binproto/
	go test -run '^$$' -fuzz '^FuzzClientReplies$$' -fuzztime $(FUZZTIME) ./internal/memcached/mcclient/
	go test -run '^$$' -fuzz '^FuzzEngineModel$$' -fuzztime $(FUZZTIME) ./internal/memcached/
	go test -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime $(FUZZTIME) ./internal/sim/
	go test -run '^$$' -fuzz '^FuzzHistogram$$' -fuzztime $(FUZZTIME) ./internal/metrics/

# Full micro-benchmark suite with allocation stats, summarized to
# BENCH_10.json (serving-cluster PR: ClusterZipf is the headline — a
# zipf(1.1) read stream over 2^20 keys against 3 real-socket servers,
# FrontCacheSpread must sustain >= 2x SinglePrimary req/s with the
# front-cache hit rate and shed fraction reported alongside). The
# -benchtime 1x smokes run via bench-fleet/bench-swarm; this target
# excludes them to keep the full-suite wall time bounded.
bench: tools
	go test -run '^$$' -bench . -benchmem -skip 'FleetDFSIO10k|SwarmMillion|SwarmOverload' ./... > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go test -run '^$$' -bench 'FleetDFSIO10k|SwarmMillion|SwarmOverload' -benchtime 1x . >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	./bin/benchjson -out BENCH_10.json -note "host: $$(nproc) CPU core(s); serving-cluster PR — ClusterZipf A/Bs hot-key-blind single-primary placement against the replicated cluster client (space-saver hot-key detection, front cache, replica read spreading, admission control) over real loopback sockets: FrontCacheSpread must hold >= 2x SinglePrimary req/s (hit% and shed% reported); sim-side numbers must match BENCH_9" < bench.out
	rm -f bench.out

# One-iteration benchmark pass: proves every benchmark still compiles and
# runs without burning CI time on stable numbers.
bench-smoke:
	go test -run '^$$' -bench . -benchmem -benchtime 1x ./...

# The simulation-kernel micro-benchmarks (sleep alone and contended, timer,
# spawn, timeout, pipe, netsim RPC) plus the serial experiment set they
# add up to, merged into BENCH_13.json under LABEL. The file's "before" side
# is the parent commit's output of the same commands, fed through
# `benchjson -label before`.
LABEL ?= after
bench-kernel: tools
	go test -run '^$$' -bench 'Sim|Pipe|Netsim' -benchmem ./internal/sim/ ./internal/netsim/ > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go test -run '^$$' -bench 'Experiments$$' -benchmem . >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	./bin/benchjson -out BENCH_13.json -label $(LABEL) -note "host: $$(nproc) CPU core(s), one sample per benchmark; coroutine hand-off PR — before = channel handshake through a scheduler goroutine (parent commit), after = iter.Pull switches with inline self-continuation; SimSleepContended (two alternating sleepers) is the path that still switches; events/op and allocs/op must match between the sides except WaitTimeout (-1 alloc: no timeout closure) and Experiments (ring build formats no strings)" < bench.out
	rm -f bench.out

# Just the stage-out data-plane benchmarks: drain at run cap 8 vs run
# cap 1, streaming readahead, and the tab6 experiment regeneration.
bench-dataplane:
	go test -run '^$$' -bench 'StageOutDrain|ReadAheadStreaming|Tab6' -benchmem .

# One netsim flow on a raw 128 MiB payload and the 3-replica HDFS
# pipeline write that rides the flows (events/op and allocs/op).
bench-netsim:
	go test -run '^$$' -bench 'FlowTransfer|PipelineWrite' -benchmem ./internal/netsim/ ./internal/hdfs/

# Multi-job orchestration benchmarks: the tab7 experiment regeneration and
# the four-job contention makespan comparison (FCFS vs backfill).
bench-orchestration:
	go test -run '^$$' -bench 'Tab7|MultiJobContention' -benchmem .

# Fleet-mode scaling: regenerate the tab8 table and run the 10k-node,
# million-file DFSIO smoke once (-benchtime 1x), plus the shards=1 vs 4
# wall-clock comparison and the node-failure abort benchmark.
bench-fleet:
	go test -run '^$$' -bench 'Tab8FleetScaling|FleetDFSIO10k|FleetShardSpeedup' -benchmem -benchtime 1x -timeout 20m .
	go test -run '^$$' -bench 'SetDownAbort' -benchmem ./internal/netsim/

# Open-loop swarm, merged into BENCH_19.json under LABEL (the file's
# "before" side is the parent commit running the same commands with
# internal/swarm/bench_test.go copied in): the zero-alloc arrival engine
# hot path at 25 k clients per rack (cache-resident) and 250 k per rack
# (cache-cold, where the million-client runs are) in ns/arrival, then what
# rides on it — adaptive sync's window count beside the fixed-horizon
# oracle the sim tests keep (ShardSyncSparse), the max-min solver's cost
# pins (links touched per flow and per settle; req/wall-s on the
# 20x-overloaded swarm), the tab9 table, and the million-client smoke once
# (-benchtime 1x; req/wall-s and B-heap/client headline).
bench-swarm: tools
	go test -run '^$$' -bench 'SwarmArrivals' -benchmem ./internal/swarm/ > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go test -run '^$$' -bench 'ShardSyncSparse' -benchmem ./internal/sim/ >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go test -run '^$$' -bench 'FleetResolveTouched' -benchmem ./internal/netsim/ >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go test -run '^$$' -bench 'SwarmShardSpeedup' -benchmem . >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go test -run '^$$' -bench 'Tab9SwarmScaling|SwarmMillion|SwarmOverload' -benchmem -benchtime 1x -timeout 20m . >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	./bin/benchjson -out BENCH_19.json -label $(LABEL) -note "host: $$(nproc) CPU core(s), one sample per benchmark; swarm tick-calendar PR — before = per-rack 4-ary index heap of clients keyed by next arrival (parent commit), after = per-rack tick calendar (one list head per tick, one link per client); SwarmArrivals ns/arrival and SwarmMillion req/wall-s are the headline; allocs/op, events/req, links/op, requests and B-heap/client (to 0.1) must match between the sides; ShardSyncSparse and FleetResolveTouched do not execute internal/swarm" < bench.out
	rm -f bench.out

# Serving-tier benchmarks, merged into BENCH_14.json under LABEL (the
# file's "before" side is the parent commit's output of the same commands
# with the two new benchmark files copied in): ClientParallel (8 callers on
# one connection, writes/op from a counting conn) and ClusterSet (R=2
# fan-out, allocs/op) are the group-commit headline; the ClusterZipf
# placement A/B (2s per variant for stable req/s) and the hot-path micros
# (front-cache get, space-saver offer) ride along, and so does the block
# path beside its roofline: BlockRoofline moves kv_block_stream's 32 x 256
# KiB blocks over loopback with writev/io.ReadFull and no protocol (R=2 for
# writes), BlockCluster moves them through SetMulti/GetMulti; both in MB/s.
bench-cluster: tools
	go test -run '^$$' -bench 'ClientParallel|ClientSequential' -benchmem ./internal/memcached/mcclient/ > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go test -run '^$$' -bench 'ClusterSet|FrontCacheGet|SpaceSaverOffer|BlockRoofline|BlockCluster' -benchmem ./internal/memcached/mccluster/ >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go test -run '^$$' -bench 'ClusterZipf' -benchtime 2s ./internal/memcached/mccluster/ >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	./bin/benchjson -out BENCH_14.json -label $(LABEL) -note "host: $$(nproc) CPU core(s), one sample per benchmark; mcclient group-commit PR — before = one write, one reader lock and (for a SET) two goroutines per round-trip (parent commit), after = leader/follower flush, batched dispatch, goroutine-free replica fan-out; ClientParallel writes/op is exactly 1 before; ClientSequential (a lone caller) must stay at 1 write and must not slow down" < bench.out
	rm -f bench.out

# Golden determinism suite: the seed schemes, bb-adaptive (with its
# write-through/async block split), run cap 8, and the multi-job
# orchestration fingerprint must match their recorded values; the paper
# suite's small-scale tables must match their FNV-64a (model.tables_fnv64);
# and the abstract's claims must hold on the full-scale fig3/fig4/fig5/fig8/
# fig9/tab1 tables, whose FNV-64a EXPERIMENTS.md's numbers are pinned to.
golden:
	go test -run 'TestGolden|TestPaperClaims|TestSuiteTablesPin' -v .

# Determinism matrix: the goldens (bb-adaptive's included), the paper
# suite's table hash (cells on 1 and 4 workers), the swarm and DFSIO pins
# (each cell at 1, 2, 4 and 7 shards, swarm cells -short), the fleet,
# swarm and shard-group cross-shard checks (each also over its own
# GOMAXPROCS values, the one worker control), the shard-group worker
# tests (10^5 one-event windows handed between the coordinator and its
# workers, same-shard and cross-shard deliveries in one instant, 10^6
# sends of a lone shard to itself), the pinned netsim solver traces,
# fig2's callback clients against their process oracle (rows and event
# counts), a node failing under a callback chain and three parked writers
# (each completed once, at the failure, in arrival order), and
# the burst buffer's crash-during-write sweep (no panic, the buffer's
# ledger holding and no writer slot left at each of 413 crash instants
# per scheme and replica count) and a buffer read racing its block's
# eviction (the GETs find nothing and the read falls back to Lustre) must
# hold under GOMAXPROCS 1/2/8 x GOGC 1/off. The test binaries are built once, so the settings apply to the
# simulation, not to the compiler; the sim binary runs under a short
# timeout, so a lost worker wake-up fails fast.
determinism:
	mkdir -p bin
	go test -c -o bin/hbb.test .
	go test -c -o bin/netsim.test ./internal/netsim/
	go test -c -o bin/sim.test ./internal/sim/
	go test -c -o bin/core.test ./internal/core/
	for procs in 1 2 8; do for gc in 1 off; do \
		echo "GOMAXPROCS=$$procs GOGC=$$gc"; \
		GOMAXPROCS=$$procs GOGC=$$gc ./bin/hbb.test -test.short -test.run 'TestGolden|TestSuiteTablesPin|TestSwarmFingerprintPins|TestFleetDFSIOWritePins|TestFleetCrossShardStress|TestFleetDFSIOWriteDeterminism|TestSwarmCrossShardStress|TestFig2MatchesProcessOracle' || exit 1; \
		GOMAXPROCS=$$procs GOGC=$$gc ./bin/netsim.test -test.run 'DifferentialStress|SameInstantStress|TestFleetDeterminismAcrossShardsAndWorkers|TestSetDownCompletesChainsAndParkedWriters' || exit 1; \
		GOMAXPROCS=$$procs GOGC=$$gc ./bin/sim.test -test.run 'TestShard' -test.timeout 2m || exit 1; \
		GOMAXPROCS=$$procs GOGC=$$gc ./bin/core.test -test.run 'TestCrashDuringWriteSweep|TestBufferReadRacesEviction' || exit 1; \
	done; done

# Concurrency stress tests under the race detector: the one engine under
# 16 goroutines (every exported call; counters and slab ledger checked
# after), its slab ledger (10^5 random store/reserve/pin steps), pinned
# readers against concurrent writers (eviction passes the pinned item
# over), 16 goroutines overwriting their own keys of a full class through
# Reserve/Commit (each reuses its key's chunk: no eviction), TCP server
# (GET replies sent from pinned chunks while writers overwrite them),
# pipelined client and its
# group commit (shared writes, queued followers, failed flush, value
# ownership), the cluster's replica fan-out and GetMulti's overlapped
# per-server bursts, concurrent shard windows
# (adaptive against the fixed-horizon oracle), the persistent shard
# workers' hand-off (10^5 one-event windows at GOMAXPROCS 1/2/8; a lost
# or stale wake-up hangs it, hence the short timeout), same-shard sends
# against cross-shard ones in one instant, the cross-shard swarm
# fingerprint, the swarm's tick calendar against its time-ordered heap
# oracle (also over a 4-slot wheel), Env.Reschedule against Cancel + At,
# the max-min solver against its full-re-solve oracle (differential over
# single and coalesced events, fairness certificate, weight =
# multiplicity, Crossing order), and the pinned flow and fleet solver
# traces (the fleet's also on a same-instant-heavy grid).
stress:
	go test -race -timeout 5m -run 'Stress|Concurrent|Pipelined|GroupCommit|FanOut' -count 2 ./internal/memcached/... ./internal/sim/ ./internal/maxmin/ ./internal/netsim/ ./internal/swarm/ .

# Regenerate every paper figure/table at full scale (EXPERIMENTS.md data).
repro: tools
	./bin/bbench -experiment all -scale full

tools:
	mkdir -p bin
	go build -o bin/bbench ./cmd/bbench
	go build -o bin/bbrun ./cmd/bbrun
	go build -o bin/memcachedd ./cmd/memcachedd
	go build -o bin/benchjson ./cmd/benchjson

clean:
	rm -rf bin
