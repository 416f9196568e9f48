package core

import (
	"fmt"
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

// TestFlushSchedulerRunClaim unit-tests the flush scheduler's two
// policies directly: urgent work preempts background work, and a claim
// extends over the pending run of adjacent same-file blocks, sorted,
// capped at the run cap. The default config (cap 1) claims the same
// blocks one at a time, urgent first, then in arrival order.
func TestFlushSchedulerRunClaim(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		order [][]int // expected claims as indices into the blocks below
	}{
		// Oldest background seed is a2; the claim extends backward first,
		// so the run coalesces to [a0 a1 a2], sorted, capped at 3. The
		// deleted a4 is never claimed, not even as a3's run extension.
		{"cap-3", coalescedCfg("bb-async", 3), [][]int{{6}, {1, 3, 0}, {2}, {5}}},
		{"cap-1", testCfg("bb-async"), [][]int{{6}, {0}, {1}, {2}, {3}, {5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(2, tc.cfg)
			s := rig.fs.Servers()[0]
			mk := func(id int64, file string, idx int) *bbBlock {
				return &bbBlock{id: id, file: file, fileIdx: idx, size: mib,
					state: stateDirty, srvs: []*BufferServer{s}, localNode: -1}
			}
			// Background: five adjacent blocks of /a enqueued out of order,
			// plus a lone block of /b. Urgent: a block of /c arriving last.
			blocks := []*bbBlock{mk(2, "/a", 2), mk(0, "/a", 0), mk(3, "/a", 3),
				mk(1, "/a", 1), mk(4, "/a", 4), mk(5, "/b", 0), mk(6, "/c", 0)}
			for _, b := range blocks[:6] {
				s.sched.enqueue(b, false)
			}
			s.sched.enqueue(blocks[6], true)
			if got := s.dirtyBacklog(); got != 7 {
				t.Fatalf("dirtyBacklog = %d, want 7", got)
			}
			blocks[4].state = stateDeleted // invalidated while pending
			var run []*bbBlock
			for i, want := range tc.order {
				run = s.sched.next(run)
				ok := len(run) == len(want)
				for j := 0; ok && j < len(want); j++ {
					ok = run[j] == blocks[want[j]]
				}
				if !ok {
					t.Fatalf("claim %d = %v, want blocks %v", i, runIDs(run), want)
				}
			}
			if run = s.sched.next(run); len(run) != 0 {
				t.Fatalf("drained scheduler returned %v", runIDs(run))
			}
			if got := s.dirtyBacklog(); got != 0 {
				t.Fatalf("dirtyBacklog after drain = %d, want 0", got)
			}
		})
	}
}

// TestFlushSchedulerDisplacedSlot deletes a file while its block is
// pending and rewrites it under the same name: the new block takes the
// old one's (file, index) slot. The backlog must count it once and drain
// to zero, or DrainFlushers would wait forever.
func TestFlushSchedulerDisplacedSlot(t *testing.T) {
	rig := newRig(2, testCfg("bb-async"))
	s := rig.fs.Servers()[0]
	old := &bbBlock{id: 1, file: "/f", state: stateDirty, srvs: []*BufferServer{s}, localNode: -1}
	s.sched.enqueue(old, false)
	old.state = stateDeleted
	rewritten := &bbBlock{id: 2, file: "/f", state: stateDirty, srvs: []*BufferServer{s}, localNode: -1}
	s.sched.enqueue(rewritten, false)
	if got := s.dirtyBacklog(); got != 1 {
		t.Fatalf("dirtyBacklog = %d, want 1", got)
	}
	if run := s.sched.next(nil); len(run) != 1 || run[0] != rewritten {
		t.Fatalf("claim = %v, want the rewritten block", runIDs(run))
	}
	if run := s.sched.next(nil); len(run) != 0 {
		t.Fatalf("drained scheduler returned %v", runIDs(run))
	}
	if got := s.dirtyBacklog(); got != 0 {
		t.Fatalf("dirtyBacklog after drain = %d, want 0", got)
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
	rig := rigOn(c, l, cfg)
	const size = 128 * mib // 8 blocks of 16 MiB
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/data/f", size)
		rig.pool.Start()
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
// (at run caps 1 and 4): a block that burns through maxBlockRetries must be
// accounted exactly once per attempt — never double-counted, never marked
// lost — and a writer stalled on flush progress must not be stranded once
// space frees up by other means (here: deleting the un-flushable file).
func TestFlushRetryExhaustionReleasesWriter(t *testing.T) {
	for _, batch := range []int{0, 4} {
		t.Run(fmt.Sprintf("cap-%d", max(batch, 1)), func(t *testing.T) {
			cfg := testCfg("bb-async")
			cfg.Servers = 1
			cfg.ServerMemory = 64 * mib // budget 57.6 MiB: three 16 MiB blocks fit
			cfg.FlushBatchBlocks = batch
			c := newRigCluster(2)
			l := newTinyLustre(c, 2*mib) // every flush fails with ErrNoSpace
			rig := rigOn(c, l, cfg)
			rig.pool.Start()
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
			checkOSTLedger(t, rig)
			checkBufferLedger(t, rig)
		})
	}
}

// fileBlocks returns the default instance's blocks of path, in file order.
func fileBlocks(t *testing.T, fs *Instance, path string) []*bbBlock {
	t.Helper()
	f, err := fs.tree.GetFile(path)
	if err != nil {
		t.Fatalf("lookup %s: %v", path, err)
	}
	return filePayload(f).blocks
}

// TestFlushRetryTakesFreshObjectName leaves a partial object under a lone
// block's Lustre name, as a flush that failed mid-write does, before the
// flushers start. The first attempt collides with it; the retry must take
// a fresh name and succeed, at run cap 1 and at run cap 4 alike.
func TestFlushRetryTakesFreshObjectName(t *testing.T) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("cap-%d", batch), func(t *testing.T) {
			cfg := coalescedCfg("bb-async", batch)
			cfg.Servers = 1
			c := newRigCluster(2)
			l := lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2})
			rig := rigOn(c, l, cfg)
			const size = 16 * mib // one block
			var b *bbBlock
			var partial string
			rig.run(t, func(p *sim.Proc) {
				writeFile(t, p, rig.fs, 0, "/f", size)
				b = fileBlocks(t, rig.fs, "/f")[0]
				partial = rig.pool.blockLustrePath(b)
				w, err := rig.l.Create(p, 0, partial)
				if err != nil {
					t.Fatalf("create partial object: %v", err)
				}
				if err := w.Write(p, mib); err != nil {
					t.Fatalf("write partial object: %v", err)
				}
				rig.pool.Start()
				rig.fs.DrainFlushers(p)
				// The colliding object is this test's own: remove it so the
				// ledger sees only the flush's objects.
				if err := rig.l.Delete(p, 0, partial); err != nil {
					t.Fatalf("delete partial object: %v", err)
				}
			})
			st := rig.fs.Stats()
			if st.FlushRetries != 1 || st.BytesFlushed != size {
				t.Errorf("retries=%d flushed=%d; want one retry, then the whole block flushed",
					st.FlushRetries, st.BytesFlushed)
			}
			if b.state != stateClean || b.lustrePath == partial || b.lustreOff != 0 {
				t.Errorf("block state=%v path=%q off=%d; want clean in its own fresh object (not %q)",
					b.state, b.lustrePath, b.lustreOff, partial)
			}
			checkOSTLedger(t, rig)
			checkBufferLedger(t, rig)
		})
	}
}

// TestFailedFlushReclaimsPartialObject caps the OSTs below one block, so
// every flush attempt fails mid-write. Each attempt must delete the partial
// object it created, and the delete must free every stripe the writer
// allocated (an unclosed object has size 0). Once the retries run out and
// the file is deleted, the OSTs hold nothing, at run cap 1 and 4 alike.
func TestFailedFlushReclaimsPartialObject(t *testing.T) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("cap-%d", batch), func(t *testing.T) {
			cfg := coalescedCfg("bb-async", batch)
			cfg.Servers = 1
			c := newRigCluster(2)
			l := newTinyLustre(c, 6*mib) // a block stripes over two 6 MiB OSTs
			rig := rigOn(c, l, cfg)
			rig.pool.Start()
			rig.run(t, func(p *sim.Proc) {
				writeFile(t, p, rig.fs, 0, "/f", 16*mib)
				p.Sleep(time.Second) // every attempt fails, then the retries run out
				if err := rig.fs.Delete(p, 0, "/f"); err != nil {
					t.Fatalf("delete: %v", err)
				}
			})
			if got := rig.fs.Stats().FlushRetries; got != maxBlockRetries {
				t.Errorf("FlushRetries = %d, want %d", got, maxBlockRetries)
			}
			var held int64
			for _, d := range l.OSTDevices() {
				held += d.Used()
			}
			if held != 0 {
				t.Errorf("OSTs hold %d bytes after the file was deleted; failed flushes leaked their objects", held)
			}
			checkOSTLedger(t, rig)
			checkBufferLedger(t, rig)
		})
	}
}

// TestLocalityRecoveryAfterMidRunCrash crashes the only buffer server
// while it writes the second block of an eight-block run. Every block of
// the run is recovered from its node-local replica into an object of its
// own, so each must read back from offset 0 of that object, not from the
// run offset the failed attempt recorded.
func TestLocalityRecoveryAfterMidRunCrash(t *testing.T) {
	cfg := coalescedCfg("bb-locality", 8)
	cfg.Servers = 1
	cfg.Flushers = 1
	c := newRigCluster(4)
	l := lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2})
	rig := rigOn(c, l, cfg)
	const size = 128 * mib // 8 blocks of 16 MiB
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		second := fileBlocks(t, rig.fs, "/f")[1]
		rig.pool.Start()
		for second.lustreOff == 0 { // set as the run's second block starts out
			p.Sleep(time.Millisecond)
		}
		rig.pool.FailServer(0)
		p.Sleep(5 * time.Second)    // allow local->Lustre recovery to finish
		rig.fs.net.SetDown(0, true) // the local replicas go too: Lustre only
		if got := readFile(t, p, rig.fs, 3, "/f"); got != size {
			t.Fatalf("read %d after the crash, want %d", got, size)
		}
		// The crashed flusher could not delete its partial run object;
		// remove it by hand so the ledger checks everything else.
		if err := rig.l.Delete(p, rig.pool.MgrNode, lustreDir+"/run-1"); err != nil {
			t.Fatalf("delete the crashed flusher's run object: %v", err)
		}
	})
	st := rig.fs.Stats()
	if st.BlocksRecovered != 8 || st.BlocksLost != 0 || st.ReadsLustre == 0 {
		t.Errorf("recovered=%d lost=%d lustre-reads=%d; want all 8 recovered and read from Lustre",
			st.BlocksRecovered, st.BlocksLost, st.ReadsLustre)
	}
	checkOSTLedger(t, rig)
	checkBufferLedger(t, rig)
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
	checkOSTLedger(t, rig)
	checkBufferLedger(t, rig)
}
