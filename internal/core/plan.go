package core

import "fmt"

// scheme is the burst buffer's integration scheme, parsed once from
// Config.Policy. The schemes differ only in the per-block write plan
// (planBlock); the writer, reader, flusher and eviction are shared.
type scheme int

const (
	// schemeAsync ("bb-async") is the paper's raw-I/O-performance scheme:
	// every block lands in the KV buffer and is acknowledged immediately;
	// the flusher pool drains it to Lustre in the background. Fastest
	// writes, a loss window until the flush completes, no local storage.
	schemeAsync scheme = iota
	// schemeLocality ("bb-locality") is the paper's data-locality scheme:
	// one replica of every block is written to the writer's node-local
	// storage in parallel with the buffer write, so map tasks retain
	// HDFS-style locality; Lustre persistence stays asynchronous. When no
	// local device has room the block behaves like bb-async.
	schemeLocality
	// schemeSync ("bb-sync") is the paper's fault-tolerance scheme: the
	// Lustre write completes before the client's block ack (write-through);
	// the buffer then serves reads as an RDMA cache. Zero loss window,
	// writes bounded by Lustre.
	schemeSync
	// schemeAdaptive ("bb-adaptive") detects traffic, after Shi et al.
	// ("Optimizing the SSD Burst Buffer by Traffic Detection"): while the
	// buffer is calm every block is written through (no loss window, no
	// backlog); when a burst arrives it degrades to async flushing so
	// writers see buffer speed and the flusher pool absorbs the backlog.
	// The signal is the number of blocks in flight (streaming writers plus
	// flusher backlog), with hysteresis between adaptiveBurstBlocks and
	// adaptiveCalmBlocks so the detector does not flap.
	schemeAdaptive
)

// schemeNames are the schemes' Config.Policy names and report labels.
var schemeNames = [...]string{"bb-async", "bb-locality", "bb-sync", "bb-adaptive"}

func (s scheme) String() string { return schemeNames[s] }

// parseScheme resolves a Config.Policy name; empty means bb-async.
func parseScheme(name string) (scheme, error) {
	if name == "" {
		return schemeAsync, nil
	}
	for i, n := range schemeNames {
		if n == name {
			return scheme(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q (valid: %v)", name, schemeNames)
}

// blockPlan is the write plan of one block. writeThrough tees every chunk
// to the block's Lustre object and acks only once it persisted, so the
// block is born clean; otherwise it is born dirty and queued for the
// flushers. localTee writes one replica to the writer's node-local
// storage in parallel.
type blockPlan struct {
	writeThrough bool
	localTee     bool
}

// planBlock decides the plan of a block about to stream. The writer has
// already counted the block in openBlocks, so bb-adaptive's detector sees
// its own writer's stream as load.
func (inst *Instance) planBlock() blockPlan {
	switch inst.pool.scheme {
	case schemeLocality:
		return blockPlan{localTee: true}
	case schemeSync:
		return blockPlan{writeThrough: true}
	case schemeAdaptive:
		inFlight := inst.openBlocks
		for _, s := range inst.servers {
			inFlight += s.dirtyBacklog() + s.flushing
		}
		if inst.burst {
			inst.burst = inFlight > adaptiveCalmBlocks
		} else {
			inst.burst = inFlight >= adaptiveBurstBlocks
		}
		if inst.burst {
			inst.metrics.Counter("adaptive.blocks.async").Inc()
			return blockPlan{}
		}
		inst.metrics.Counter("adaptive.blocks.writethrough").Inc()
		return blockPlan{writeThrough: true}
	}
	return blockPlan{}
}
