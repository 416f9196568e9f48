// Package core implements the paper's primary contribution: a burst buffer
// built from RDMA-based Memcached servers, interposed between HDFS-style
// clients and Lustre. How the buffer integrates the two file systems is
// its scheme, named by Config.Policy, one per design axis the abstract
// names plus a traffic-detecting hybrid (see plan.go):
//
//   - "bb-async" (raw I/O performance): blocks are acknowledged once in
//     the buffer; a flusher pool drains them to Lustre in the background.
//   - "bb-locality" (data-locality): a replica of each block also goes to
//     the writer's node-local storage; Lustre persistence stays async.
//   - "bb-sync" (fault-tolerance): each block is written through to
//     Lustre before its ack; the buffer serves reads as an RDMA cache.
//   - "bb-adaptive": write-through while calm, async during a burst.
//
// The schemes differ only in the per-block write plan (Instance.planBlock);
// the writer, the reader's source order (node-local replica, buffer,
// remote replica, Lustre), the flushers and eviction are shared.
package core

import (
	"fmt"
	"time"
)

// Config parametrizes the burst buffer file system.
type Config struct {
	// Policy names the integration scheme: "bb-async", "bb-locality",
	// "bb-sync" or "bb-adaptive"; empty means "bb-async". Any other name
	// fails Validate.
	Policy string
	// Servers is the number of dedicated burst-buffer (RDMA-Memcached)
	// server nodes. Zero defaults to 4.
	Servers int
	// ServerMemory is each server's byte budget: the default instance's
	// share limit and the bricks metered instances are granted. Zero
	// defaults to 16 GiB.
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
	// FlushBatchBlocks caps the blocks one Lustre object takes: the flush
	// scheduler claims runs of up to this many adjacent dirty blocks of a
	// file and flushes each run as one object (one Create + one metadata
	// round-trip per run instead of per block). Zero or 1 (the default)
	// flushes every block to its own object.
	FlushBatchBlocks int
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

// The buffer's fixed parameters.
const (
	// HighWatermark is the buffer-fullness fraction beyond which writers
	// stall waiting for flushes (dirty data is never evicted).
	HighWatermark = 0.9
	// mdOpLatency is the metadata manager's per-op processing cost (the
	// manager is a lean service compared to a NameNode).
	mdOpLatency = 30 * time.Microsecond
	// serverOpLatency is the per-request processing cost on a buffer
	// server (RDMA-Memcached's server-side fast path).
	serverOpLatency = 3 * time.Microsecond
	// serverIngestRate bounds a server's SET-side payload processing
	// (slab writes, memory registration) in bytes/s: two-sided set traffic
	// contends on it, while GETs are one-sided RDMA reads that bypass the
	// server CPU entirely — the asymmetry at the heart of the
	// RDMA-Memcached design. 1.5 GB/s is in line with published
	// RDMA-Memcached single-server throughput for MB-scale values.
	serverIngestRate = 1.5e9
	// prefetchWindow bounds in-flight chunk fetches per read stream and
	// chunks queued per write tee.
	prefetchWindow = 8
	// adaptiveBurstBlocks is the bb-adaptive traffic detector's high
	// watermark: when the number of in-flight blocks (streaming writers
	// plus flusher backlog) reaches it, the scheme degrades from
	// write-through to async flushing.
	adaptiveBurstBlocks = 4
	// adaptiveCalmBlocks is the matching low watermark: once in-flight
	// blocks fall back to this level the scheme returns to write-through.
	adaptiveCalmBlocks = 1
)

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
	if c.BufferReplicas == 0 {
		c.BufferReplicas = 1
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
	if d.BufferReplicas <= 0 {
		return fmt.Errorf("core: BufferReplicas must be positive, got %d", c.BufferReplicas)
	}
	if d.FlushBatchBlocks < 0 {
		return fmt.Errorf("core: FlushBatchBlocks cannot be negative, got %d", c.FlushBatchBlocks)
	}
	if d.Flushers < 0 {
		return fmt.Errorf("core: Flushers cannot be negative, got %d", c.Flushers)
	}
	if d.ReadAhead < 0 {
		return fmt.Errorf("core: ReadAhead cannot be negative, got %d", c.ReadAhead)
	}
	if _, err := parseScheme(d.Policy); err != nil {
		return err
	}
	if int64(float64(d.ServerMemory)*HighWatermark) < d.BlockSize {
		return fmt.Errorf("core: server memory %d cannot admit a single %d-byte block",
			d.ServerMemory, d.BlockSize)
	}
	return nil
}
