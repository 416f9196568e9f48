// Package core implements the paper's primary contribution: a burst buffer
// built from RDMA-based Memcached servers, interposed between HDFS-style
// clients and Lustre. How the buffer integrates the two file systems is
// decided by a pluggable Policy (see policy.go): the write path asks the
// policy for a per-block BlockPlan (flush mode plus optional Lustre/local
// tees), the read path asks it for the ordered list of sources to try, and
// eviction notifies it. Policies register by name via RegisterPolicy and
// are selected with Config.Policy.
//
// Four policies are built in. The first three are the paper's schemes,
// one per design axis the abstract names — raw I/O performance,
// data-locality, and fault-tolerance:
//
//   - "bb-async" (asyncPolicy): writes land in the key-value burst buffer
//     and are acknowledged immediately; a flusher pool drains dirty blocks
//     to Lustre in the background. Fastest writes; a loss window exists
//     until flush completes. No local storage used.
//   - "bb-locality" (localityPolicy): one replica of each block is written
//     to the writer's node-local storage in parallel with the buffer
//     write, so map tasks retain HDFS-style data-locality; Lustre
//     persistence stays asynchronous.
//   - "bb-sync" (syncPolicy): the Lustre write happens before the client's
//     block ack (write-through); the buffer then serves reads as an RDMA
//     cache. Zero loss window, writes bounded by Lustre.
//   - "bb-adaptive" (adaptivePolicy): traffic-detecting hybrid. While the
//     buffer is calm it plans write-through blocks (sync-like, no loss
//     window); when concurrent writers and flusher backlog cross
//     Config.AdaptiveBurstBlocks it degrades to async buffering until the
//     backlog falls to Config.AdaptiveCalmBlocks (hysteresis).
//
// The buffer servers run the real memcached engine
// (internal/memcached) with virtual (size-only) items, so allocator, LRU,
// and statistics behaviour come from real code while simulated payloads
// cost no host memory.
package core

import (
	"fmt"
	"time"
)

// Scheme selects the HDFS-Lustre integration mode.
type Scheme int

// The three schemes from the paper (named by design axis; see the package
// comment and DESIGN.md for the mapping).
const (
	SchemeAsyncLustre Scheme = iota
	SchemeLocalityAware
	SchemeSyncLustre
)

// String returns the scheme's name as used in reports.
func (s Scheme) String() string {
	switch s {
	case SchemeAsyncLustre:
		return "bb-async"
	case SchemeLocalityAware:
		return "bb-locality"
	case SchemeSyncLustre:
		return "bb-sync"
	default:
		return "bb-unknown"
	}
}

// Config parametrizes the burst buffer file system.
type Config struct {
	// Scheme selects the integration mode. It is the legacy selector kept
	// for compatibility: when Policy is empty the scheme's name picks the
	// policy ("bb-async", "bb-locality", "bb-sync").
	Scheme Scheme
	// Policy selects the integration policy by registry name (see
	// RegisterPolicy); it takes precedence over Scheme. The built-ins are
	// "bb-async", "bb-locality", "bb-sync", and "bb-adaptive".
	Policy string
	// Servers is the number of dedicated burst-buffer (RDMA-Memcached)
	// server nodes. Zero defaults to 4.
	Servers int
	// ServerMemory is each server's item-memory budget. Zero defaults to
	// 16 GiB.
	ServerMemory int64
	// BlockSize is the file block size. Zero defaults to 128 MiB.
	BlockSize int64
	// ItemChunk is the KV item payload granularity blocks are split into
	// (RDMA-Memcached stores large values as chunked items). Zero
	// defaults to 1 MiB.
	ItemChunk int64
	// Flushers is the number of background flusher processes per server.
	// Zero defaults to 4.
	Flushers int
	// HighWatermark is the buffer-fullness fraction beyond which writers
	// stall waiting for flushes (dirty data is never evicted). Zero
	// defaults to 0.9.
	HighWatermark float64
	// MDOpLatency is the metadata manager's per-op processing cost. Zero
	// defaults to 30 µs (the manager is a lean service compared to a
	// NameNode).
	MDOpLatency time.Duration
	// ServerOpLatency is the per-request processing cost on a buffer
	// server (RDMA-Memcached's server-side fast path). Zero defaults to
	// 3 µs.
	ServerOpLatency time.Duration
	// ServerIngestRate bounds a server's SET-side payload processing
	// (slab writes, memory registration): two-sided set traffic contends
	// on it, while GETs are one-sided RDMA reads that bypass the server
	// CPU entirely — the asymmetry at the heart of the RDMA-Memcached
	// design. Zero defaults to 1.5 GB/s, in line with published
	// RDMA-Memcached single-server throughput for MB-scale values.
	ServerIngestRate float64
	// PrefetchWindow bounds in-flight chunk fetches per read stream. Zero
	// defaults to 8.
	PrefetchWindow int
	// BufferReplicas stores each block on this many buffer servers
	// (default 1). With 2+, a server crash promotes a surviving replica
	// instead of opening a loss window — the in-store-replication
	// extension of the paper's design space, paid for with extra client
	// egress and server ingest on every write.
	BufferReplicas int
	// ReadmitOnRead re-admits blocks served from Lustre back into the
	// buffer as clean cache fills (when the owning server has free space),
	// so repeated reads of evicted data regain RDMA speed.
	ReadmitOnRead bool
	// FlushTick, when positive, bounds how long a FlushDeferred block may
	// sit parked dirty: the first deferral arms a kernel callback timer
	// (sim.Env.After — no ticker process), and when it fires every parked
	// block is promoted into the flusher queues. Zero (the default)
	// disables the tick, leaving promotion to drains, shutdown, and buffer
	// pressure, exactly as before the timer existed.
	FlushTick time.Duration
	// AdaptiveBurstBlocks is the bb-adaptive traffic detector's high
	// watermark: when the number of in-flight blocks (streaming writers
	// plus flusher backlog) reaches it, the policy degrades from
	// write-through to async flushing. Zero defaults to 4.
	AdaptiveBurstBlocks int
	// AdaptiveCalmBlocks is the matching low watermark: once in-flight
	// blocks fall back to this level the policy returns to write-through.
	// Zero defaults to 1 (hysteresis: Calm < Burst).
	AdaptiveCalmBlocks int
	// FlushBatchBlocks, when > 1, enables the coalescing stage-out
	// scheduler: dirty blocks are grouped by file, runs of adjacent blocks
	// are flushed as a single Lustre object (one Create + one metadata
	// round-trip per run instead of per block), and eviction-pressure
	// promotions jump ahead of background flushes. It caps the number of
	// blocks per coalesced run. Zero or 1 (the default) keeps the seed
	// FIFO one-object-per-block behavior byte-identical.
	FlushBatchBlocks int
	// FlushConcurrency, when positive, overrides Flushers as the number of
	// concurrent flusher processes per server — the bound on in-flight
	// flush bytes (FlushConcurrency × FlushBatchBlocks × BlockSize). Zero
	// (the default) uses Flushers.
	FlushConcurrency int
	// ReadAhead is the number of whole blocks a reader prefetches ahead of
	// the one it is streaming, overlapping the next block's source choice
	// and fetch (Lustre metadata + first stripes, or KV lookups) with
	// current-block delivery. Zero (the default) disables readahead,
	// keeping seed read behavior.
	ReadAhead int
	// BrickSize is the pool's capacity-accounting granule for buffer
	// instances: NewInstance grants capacity in whole bricks per server,
	// and the orchestrator schedules jobs against the pool's brick
	// inventory (ServerMemory/BrickSize bricks per server). It has no
	// effect on the default single-tenant path, which spans full server
	// memory unmetered. Zero defaults to 1 GiB.
	BrickSize int64
}

func (c Config) withDefaults() Config {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.ServerMemory == 0 {
		c.ServerMemory = 16 << 30
	}
	if c.BlockSize == 0 {
		c.BlockSize = 128 << 20
	}
	if c.ItemChunk == 0 {
		c.ItemChunk = 1 << 20
	}
	if c.Flushers == 0 {
		c.Flushers = 4
	}
	if c.HighWatermark == 0 {
		c.HighWatermark = 0.9
	}
	if c.MDOpLatency == 0 {
		c.MDOpLatency = 30 * time.Microsecond
	}
	if c.ServerOpLatency == 0 {
		c.ServerOpLatency = 3 * time.Microsecond
	}
	if c.ServerIngestRate == 0 {
		c.ServerIngestRate = 1.5e9
	}
	if c.PrefetchWindow == 0 {
		c.PrefetchWindow = 8
	}
	if c.BufferReplicas == 0 {
		c.BufferReplicas = 1
	}
	if c.AdaptiveBurstBlocks == 0 {
		c.AdaptiveBurstBlocks = 4
	}
	if c.AdaptiveCalmBlocks == 0 {
		c.AdaptiveCalmBlocks = 1
	}
	if c.BrickSize == 0 {
		c.BrickSize = 1 << 30
	}
	return c
}

// Validate rejects configurations that would hang, divide, or silently do
// nothing later in the data plane. It is applied after defaulting, so a
// zero value is fine (it means "use the default") but an explicit negative
// is not. New panics on an invalid Config; callers that assemble configs
// from user input (flags, orchestrator requests) should Validate first.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.Servers <= 0 {
		return fmt.Errorf("core: Servers must be positive, got %d", c.Servers)
	}
	if d.ServerMemory <= 0 {
		return fmt.Errorf("core: ServerMemory must be positive, got %d", c.ServerMemory)
	}
	if d.BlockSize <= 0 {
		return fmt.Errorf("core: BlockSize must be positive, got %d", c.BlockSize)
	}
	if d.ItemChunk <= 0 {
		return fmt.Errorf("core: ItemChunk must be positive, got %d", c.ItemChunk)
	}
	if d.BrickSize <= 0 {
		return fmt.Errorf("core: BrickSize must be positive, got %d", c.BrickSize)
	}
	if d.HighWatermark <= 0 || d.HighWatermark > 1 {
		return fmt.Errorf("core: HighWatermark must be in (0,1], got %g", c.HighWatermark)
	}
	if d.PrefetchWindow <= 0 {
		return fmt.Errorf("core: PrefetchWindow must be positive, got %d", c.PrefetchWindow)
	}
	if d.BufferReplicas <= 0 {
		return fmt.Errorf("core: BufferReplicas must be positive, got %d", c.BufferReplicas)
	}
	if d.FlushBatchBlocks < 0 {
		return fmt.Errorf("core: FlushBatchBlocks cannot be negative, got %d", c.FlushBatchBlocks)
	}
	if d.coalescing() && d.effectiveFlushers() < 1 {
		return fmt.Errorf("core: FlushBatchBlocks=%d needs at least one flusher, got %d",
			d.FlushBatchBlocks, d.effectiveFlushers())
	}
	if d.Flushers < 0 {
		return fmt.Errorf("core: Flushers cannot be negative, got %d", c.Flushers)
	}
	if d.FlushConcurrency < 0 {
		return fmt.Errorf("core: FlushConcurrency cannot be negative, got %d", c.FlushConcurrency)
	}
	if d.ReadAhead < 0 {
		return fmt.Errorf("core: ReadAhead cannot be negative, got %d", c.ReadAhead)
	}
	if d.AdaptiveCalmBlocks > d.AdaptiveBurstBlocks {
		return fmt.Errorf("core: AdaptiveCalmBlocks %d must not exceed AdaptiveBurstBlocks %d (hysteresis)",
			d.AdaptiveCalmBlocks, d.AdaptiveBurstBlocks)
	}
	if int64(float64(d.ServerMemory)*d.HighWatermark) < d.BlockSize {
		return fmt.Errorf("core: server memory %d cannot admit a single %d-byte block",
			d.ServerMemory, d.BlockSize)
	}
	return nil
}

// effectiveFlushers resolves the flusher-pool size per server:
// FlushConcurrency when set, else Flushers.
func (c Config) effectiveFlushers() int {
	if c.FlushConcurrency > 0 {
		return c.FlushConcurrency
	}
	return c.Flushers
}

// coalescing reports whether the stage-out scheduler is enabled.
func (c Config) coalescing() bool { return c.FlushBatchBlocks > 1 }

// policyName resolves the effective policy registry key.
func (c Config) policyName() string {
	if c.Policy != "" {
		return c.Policy
	}
	return c.Scheme.String()
}

// blockState tracks where a block's bytes currently live.
type blockState int

const (
	// stateDirty: only in the buffer; not yet on Lustre.
	stateDirty blockState = iota
	// stateFlushing: flusher is copying it to Lustre.
	stateFlushing
	// stateClean: in the buffer and on Lustre (evictable).
	stateClean
	// stateEvicted: on Lustre only.
	stateEvicted
	// stateLost: buffer server died before the block reached Lustre.
	stateLost
)

func (s blockState) String() string {
	switch s {
	case stateDirty:
		return "dirty"
	case stateFlushing:
		return "flushing"
	case stateClean:
		return "clean"
	case stateEvicted:
		return "evicted"
	case stateLost:
		return "lost"
	default:
		return "invalid"
	}
}
