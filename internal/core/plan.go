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

// blockState is where a block's bytes live: one step of its lifecycle.
type blockState int

const (
	// stateOpen: its writer is still streaming it; only the writer's exit
	// (endAttempt) moves it on, or a delete.
	stateOpen blockState = iota
	// stateDirty: only in the buffer; not yet on Lustre.
	stateDirty
	// stateFlushing: a flusher is copying it to Lustre.
	stateFlushing
	// stateClean: in the buffer and on Lustre (evictable).
	stateClean
	// stateEvicted: on Lustre only.
	stateEvicted
	// stateLost: its last buffer copy went before it reached Lustre.
	stateLost
	// stateDeleted: its file was deleted; terminal.
	stateDeleted
)

var stateNames = [...]string{"open", "dirty", "flushing", "clean", "evicted", "lost", "deleted"}

func (s blockState) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "invalid"
	}
	return stateNames[s]
}

// legalMoves[from] holds one bit per state a block in from may move to.
var legalMoves = [...]uint8{
	stateOpen:     1<<stateDirty | 1<<stateClean | 1<<stateLost | 1<<stateDeleted,
	stateDirty:    1<<stateFlushing | 1<<stateEvicted | 1<<stateLost | 1<<stateDeleted,
	stateFlushing: 1<<stateDirty | 1<<stateClean | 1<<stateEvicted | 1<<stateLost | 1<<stateDeleted,
	stateClean:    1<<stateEvicted | 1<<stateDeleted,
	stateEvicted:  1<<stateClean | 1<<stateDeleted,
	stateLost:     1 << stateDeleted,
	stateDeleted:  0,
}

// move is the one place a block changes state. It panics on a move
// legalMoves does not list, and keeps the move's counters: a block turning
// clean joins its holders' clean LRUs and counts as flushed (readmitted,
// if it came from Lustre); a loss counts in BlocksLost, a dirty block's
// recovery to Lustre in BlocksRecovered.
func (b *bbBlock) move(to blockState) {
	from := b.state
	if legalMoves[from]&(1<<to) == 0 {
		panic(fmt.Sprintf("core: block %d (%v) cannot move %v -> %v", b.id, b.inst.pool.scheme, from, to))
	}
	b.state = to
	st := &b.inst.stats
	switch {
	case to == stateClean:
		for _, s := range b.srvs {
			s.cleanLRU = append(s.cleanLRU, b)
		}
		if from == stateEvicted {
			st.Readmissions++
		} else {
			st.BytesFlushed += b.size
		}
	case to == stateLost:
		st.BlocksLost++
	case to == stateEvicted && from != stateClean:
		st.BlocksRecovered++
	}
}
