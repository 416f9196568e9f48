package core

import (
	"testing"
	"time"

	"hbb/internal/lustre"
	"hbb/internal/sim"
)

// coalescedCfg is testCfg with the stage-out scheduler enabled.
func coalescedCfg(policy string, batch int) Config {
	cfg := testCfg(policy)
	cfg.FlushBatchBlocks = batch
	return cfg
}

// TestFlushSchedulerRunClaim unit-tests the coalescing scheduler's two
// policies directly: urgent work preempts background work, and a claim
// extends over the pending run of adjacent same-file blocks, sorted,
// capped at the batch size.
func TestFlushSchedulerRunClaim(t *testing.T) {
	rig := newRig(2, coalescedCfg("bb-async", 3))
	s := rig.fs.Servers()[0]
	mk := func(file string, idx int) *bbBlock {
		return &bbBlock{id: int64(idx), file: file, fileIdx: idx, size: mib,
			state: stateDirty, srvs: []*BufferServer{s}, localNode: -1}
	}
	// Background: five adjacent blocks of /a enqueued out of order, plus a
	// lone block of /b. Urgent: a block of /c arriving last.
	a0, a1, a2, a3, a4 := mk("/a", 0), mk("/a", 1), mk("/a", 2), mk("/a", 3), mk("/a", 4)
	b0, c0 := mk("/b", 0), mk("/c", 0)
	for _, b := range []*bbBlock{a2, a0, a3, a1, a4, b0} {
		s.sched.enqueue(b, false)
	}
	s.sched.enqueue(c0, true)
	if got := s.sched.pendingCount(); got != 7 {
		t.Fatalf("pendingCount = %d, want 7", got)
	}
	// Urgent /c preempts everything that arrived before it.
	run := s.sched.next()
	if len(run) != 1 || run[0] != c0 {
		t.Fatalf("first claim = %v, want the urgent /c block", runIDs(run))
	}
	// Oldest background seed is a2; the claim extends backward first, so
	// the run coalesces to [a0 a1 a2], sorted, capped at max=3.
	run = s.sched.next()
	if len(run) != 3 || run[0] != a0 || run[1] != a1 || run[2] != a2 {
		t.Fatalf("second claim = %v, want sorted run [a0 a1 a2]", runIDs(run))
	}
	// A block invalidated while pending (deleted) must not be claimed, not
	// even as a run extension of its neighbor a3.
	a4.deleted = true
	run = s.sched.next()
	if len(run) != 1 || run[0] != a3 {
		t.Fatalf("third claim = %v, want [a3] (deleted a4 not extended)", runIDs(run))
	}
	run = s.sched.next()
	if len(run) != 1 || run[0] != b0 {
		t.Fatalf("fourth claim = %v, want [b0] (deleted a4 dropped)", runIDs(run))
	}
	if run = s.sched.next(); run != nil {
		t.Fatalf("drained scheduler returned %v", runIDs(run))
	}
	if got := s.sched.pendingCount(); got != 0 {
		t.Fatalf("pendingCount after drain = %d, want 0", got)
	}
}

func runIDs(run []*bbBlock) []int64 {
	ids := make([]int64, len(run))
	for i, b := range run {
		ids[i] = b.id
	}
	return ids
}

// TestCoalescedDrainRoundTrip drains a multi-block file through the
// coalescing pipeline and verifies the batching actually happened: one
// Lustre object for the whole run instead of eight, and byte-exact
// payload accounting. A single server whose flushers start only after the
// write makes the backlog deterministic: all 8 blocks are queued before
// any flusher runs, so the scheduler sees the full adjacent run at once.
func TestCoalescedDrainRoundTrip(t *testing.T) {
	cfg := coalescedCfg("bb-async", 8)
	cfg.Servers = 1
	cfg.Flushers = 2
	c := newRigCluster(2)
	l := lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2})
	rig := &testRig{c: c, l: l, fs: New(c, l, cfg)}
	const size = 128 * mib // 8 blocks of 16 MiB
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/data/f", size)
		rig.fs.Start()
		rig.fs.DrainFlushers(p)
		if got := readFile(t, p, rig.fs, 1, "/data/f"); got != size {
			t.Fatalf("read %d, want %d", got, size)
		}
	})
	st := rig.fs.Stats()
	if st.BytesFlushed != size {
		t.Errorf("BytesFlushed = %d, want %d", st.BytesFlushed, size)
	}
	batches := rig.fs.Metrics().Histogram("flush.batch.blocks")
	if batches.Count() != 1 || batches.Mean() != 8 {
		t.Errorf("flush.batch.blocks count=%d mean=%.1f; want one run of 8", batches.Count(), batches.Mean())
	}
	// The whole drain is one coalesced run: one Lustre object, not 8.
	if created := rig.l.Stats().FilesCreated; created != 1 {
		t.Errorf("Lustre objects created = %d, want 1 (one per coalesced run)", created)
	}
	if inflight := rig.fs.Metrics().Histogram("flush.bytes.inflight"); inflight.Count() == 0 {
		t.Error("flush.bytes.inflight recorded no samples")
	}
}

// TestCoalescedLustreReadAfterEviction forces evicted blocks to stream
// back out of shared run objects: the ranged Lustre read path.
func TestCoalescedLustreReadAfterEviction(t *testing.T) {
	cfg := coalescedCfg("bb-async", 4)
	cfg.ServerMemory = 64 * mib
	rig := newRig(2, cfg)
	const sizeA = 64 * mib
	const sizeB = 96 * mib
	var gotA int64
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/a", sizeA)
		rig.fs.DrainFlushers(p)
		writeFile(t, p, rig.fs, 0, "/b", sizeB) // evicts /a's clean blocks
		rig.fs.DrainFlushers(p)
		gotA = readFile(t, p, rig.fs, 1, "/a")
	})
	if gotA != sizeA {
		t.Fatalf("read %d of /a, want %d", gotA, sizeA)
	}
	st := rig.fs.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions; test did not exercise the Lustre read path (stats %+v)", st)
	}
	if st.ReadsLustre == 0 {
		t.Errorf("no Lustre reads; evicted run blocks were not read back (stats %+v)", st)
	}
}

// TestReadAheadPrefetch verifies the reader overlaps the next block's
// fetch with the current one and counts every adopted prefetch.
func TestReadAheadPrefetch(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.ReadAhead = 1
	rig := newRig(2, cfg)
	const size = 64 * mib // 4 blocks
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		if got := readFile(t, p, rig.fs, 1, "/f"); got != size {
			t.Fatalf("read %d, want %d", got, size)
		}
	})
	// Blocks 2..4 ride prefetched fetches; block 1 is fetched foreground.
	if hits := rig.fs.Metrics().Counter("read.prefetch.hits").Value(); hits != 3 {
		t.Errorf("read.prefetch.hits = %d, want 3", hits)
	}
	if st := rig.fs.Stats(); st.BytesRead != size {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead, size)
	}
}

// TestReadAheadWithCoalescedLustre combines both new paths: readahead over
// blocks that must stream from shared run objects on Lustre.
func TestReadAheadWithCoalescedLustre(t *testing.T) {
	cfg := coalescedCfg("bb-async", 4)
	cfg.ServerMemory = 64 * mib
	cfg.ReadAhead = 2
	rig := newRig(2, cfg)
	const sizeA = 64 * mib
	var gotA int64
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/a", sizeA)
		rig.fs.DrainFlushers(p)
		writeFile(t, p, rig.fs, 0, "/b", 96*mib)
		rig.fs.DrainFlushers(p)
		gotA = readFile(t, p, rig.fs, 1, "/a")
	})
	if gotA != sizeA {
		t.Fatalf("read %d of /a, want %d", gotA, sizeA)
	}
	if hits := rig.fs.Metrics().Counter("read.prefetch.hits").Value(); hits == 0 {
		t.Error("no prefetch hits on the Lustre-fallback read")
	}
}

// TestFlushRetryExhaustionReleasesWriter is the retry-exhaustion contract
// (both drain paths): a block that burns through maxBlockRetries must be
// accounted exactly once per attempt — never double-counted, never marked
// lost — and a writer stalled on flush progress must not be stranded once
// space frees up by other means (here: deleting the un-flushable file).
func TestFlushRetryExhaustionReleasesWriter(t *testing.T) {
	for _, batch := range []int{0, 4} {
		name := "seed-path"
		if batch > 1 {
			name = "coalesced-path"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testCfg("bb-async")
			cfg.Servers = 1
			cfg.ServerMemory = 64 * mib // budget 57.6 MiB: three 16 MiB blocks fit
			cfg.FlushBatchBlocks = batch
			c := newRigCluster(2)
			l := newTinyLustre(c, 2*mib) // every flush fails with ErrNoSpace
			fs := New(c, l, cfg)
			fs.Start()
			rig := &testRig{c: c, l: l, fs: fs}
			var wrote2 bool
			rig.run(t, func(p *sim.Proc) {
				// Three blocks fill the buffer; none can ever flush.
				writeFile(t, p, rig.fs, 0, "/stuck", 48*mib)
				// A second writer needs a fourth block and stalls: nothing
				// is clean, nothing flushes. Each retry attempt must keep
				// signalling it, and the eventual delete must release it.
				done := &sim.Event{}
				rig.c.Env.Spawn("writer2", func(q *sim.Proc) {
					defer done.Trigger()
					writeFile(t, q, rig.fs, 1, "/next", 16*mib)
					wrote2 = true
				})
				p.Sleep(500 * time.Millisecond) // retries exhaust long before this
				if got := rig.fs.Stats().FlushRetries; got != 3*maxBlockRetries {
					t.Errorf("FlushRetries before delete = %d, want %d (3 blocks x %d)",
						got, 3*maxBlockRetries, maxBlockRetries)
				}
				if err := rig.fs.Delete(p, 0, "/stuck"); err != nil {
					t.Fatalf("delete /stuck: %v", err)
				}
				done.Wait(p)
				// Let the late block's own retries exhaust before run's
				// deferred Shutdown closes the flusher queues.
				p.Sleep(500 * time.Millisecond)
			})
			if !wrote2 {
				t.Fatal("stalled writer never completed after the delete freed space")
			}
			st := rig.fs.Stats()
			// Exactly once per attempt: 3 stuck blocks + the late block,
			// each retried maxBlockRetries times, no double accounting.
			if st.FlushRetries != 4*maxBlockRetries {
				t.Errorf("FlushRetries = %d, want %d", st.FlushRetries, 4*maxBlockRetries)
			}
			if st.BlocksLost != 0 || st.BytesFlushed != 0 {
				t.Errorf("lost=%d flushed=%d; exhausted retries must not leak into loss or flush stats",
					st.BlocksLost, st.BytesFlushed)
			}
			if st.WriterStalls == 0 {
				t.Error("second writer never stalled; test lost its backpressure scenario")
			}
		})
	}
}

// TestDeletedBlockFlushShortCircuit deletes a file while its only block is
// mid-flush: the flusher must abort the remaining chunk writes instead of
// staging bytes that are already gone.
func TestDeletedBlockFlushShortCircuit(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Flushers = 1
	rig := newRig(2, cfg)
	const size = 16 * mib // one block
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		// The single flusher is now mid-copy; delete lands mid-block.
		if err := rig.fs.Delete(p, 0, "/f"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		rig.fs.DrainFlushers(p)
	})
	st := rig.fs.Stats()
	if st.BytesFlushed != 0 {
		t.Errorf("BytesFlushed = %d, want 0 (block was deleted)", st.BytesFlushed)
	}
	if lw := rig.l.Stats().BytesWritten; lw >= size {
		t.Errorf("Lustre saw %d bytes of a deleted %d-byte block; flush did not short-circuit", lw, size)
	}
}
