package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hbb/internal/netsim"
	"hbb/internal/sim"
)

func TestUnknownPolicyPanicsAtConstruction(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("BurstFS with unknown policy constructed")
		}
		msg := fmt.Sprint(r)
		for _, name := range []string{"no-such-policy", "bb-async", "bb-locality", "bb-sync", "bb-adaptive"} {
			if !strings.Contains(msg, name) {
				t.Errorf("construction error %q does not name %q", msg, name)
			}
		}
	}()
	cfg := testCfg("bb-async")
	cfg.Policy = "no-such-policy"
	_ = newRig(2, cfg)
}

// readSrcCounts snapshots the reader's per-source metrics counters.
func readSrcCounts(fs *Instance) map[string]int64 {
	out := map[string]int64{}
	for _, k := range []string{"local", "buffer", "remote-local", "lustre"} {
		out[k] = fs.Metrics().Counter("read.src." + k).Value()
	}
	return out
}

// TestReaderFallbackOrdering kills read sources one by one and asserts the
// reader walks the default policy order — node-local replica, buffer,
// remote node-local, Lustre — recording each hop in the metrics registry.
func TestReaderFallbackOrdering(t *testing.T) {
	const size = 16 * mib // one block
	steps := []struct {
		name string
		// kill disables one more source tier before the read.
		kill    func(rig *testRig)
		client  netsim.NodeID
		wantSrc string
	}{
		{"local-replica-first", func(*testRig) {}, 0, "local"},
		// Same node, local device gone: falls to the buffer.
		{"buffer-after-local", func(rig *testRig) {
			for _, s := range rig.fs.Servers() {
				for b := range s.resident {
					b.localDev, b.localNode = nil, -1
				}
			}
		}, 0, "buffer"},
		// Remote reader, buffer servers dead, replica restored: remote-local.
		{"remote-local-after-buffer", func(rig *testRig) {
			rig.pool.FailServer(0)
			rig.pool.FailServer(1)
		}, 3, "remote-local"},
		// Replica node down too: Lustre is the last resort.
		{"lustre-last", func(rig *testRig) {
			rig.pool.FailServer(0)
			rig.pool.FailServer(1)
			rig.fs.net.SetDown(0, true)
		}, 3, "lustre"},
	}
	for _, step := range steps {
		step := step
		t.Run(step.name, func(t *testing.T) {
			cfg := testCfg("bb-locality")
			rig := newRig(4, cfg)
			rig.run(t, func(p *sim.Proc) {
				writeFile(t, p, rig.fs, 0, "/f", size)
				rig.fs.DrainFlushers(p) // lustrePath set on every block
				step.kill(rig)
				if got := readFile(t, p, rig.fs, step.client, "/f"); got != size {
					t.Fatalf("read %d, want %d", got, size)
				}
				srcs := readSrcCounts(rig.fs)
				if srcs[step.wantSrc] != 1 {
					t.Errorf("source counts = %v, want exactly one %q read", srcs, step.wantSrc)
				}
				for k, v := range srcs {
					if k != step.wantSrc && v != 0 {
						t.Errorf("unexpected %q read (counts %v)", k, srcs)
					}
				}
			})
		})
	}
}

// TestReaderFallbackMidBlockPrefixRefetch starts a buffered read, crashes
// the serving tier mid-block, and checks the reader re-fetches the consumed
// prefix from the next source in order without data loss.
func TestReaderFallbackMidBlockPrefixRefetch(t *testing.T) {
	cfg := testCfg("bb-locality")
	cfg.Servers = 2
	rig := newRig(4, cfg)
	const size = 16 * mib // one block
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		rig.fs.DrainFlushers(p)
		// Remote reader: first source is the buffer.
		r, err := rig.fs.Open(p, 3, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(p, 5*mib); err != nil {
			t.Fatal(err)
		}
		// Kill both buffer servers mid-block; the replica on node 0 is next.
		rig.pool.FailServer(0)
		rig.pool.FailServer(1)
		var total int64 = 5 * mib
		for {
			n, err := r.Read(p, 3*mib)
			if err != nil {
				t.Fatalf("read after crash: %v", err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		r.Close(p)
		if total != size {
			t.Fatalf("read %d, want %d", total, size)
		}
		srcs := readSrcCounts(rig.fs)
		if srcs["buffer"] != 1 || srcs["remote-local"] != 1 {
			t.Errorf("source counts = %v, want one buffer then one remote-local fetch", srcs)
		}
	})
}

func TestAdaptiveCalmWritesThrough(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Policy = "bb-adaptive"
	rig := newRig(2, cfg)
	const size = 48 * mib // 3 blocks, written sequentially
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		// A lone sequential writer never exceeds the burst watermark, so
		// every block write-throughs: durable at ack, like bb-sync.
		if got := rig.fs.Stats().BytesFlushed; got != size {
			t.Errorf("flushed %d at ack, want %d (calm traffic should write through)", got, size)
		}
	})
	wt := rig.fs.Metrics().Counter("adaptive.blocks.writethrough").Value()
	async := rig.fs.Metrics().Counter("adaptive.blocks.async").Value()
	if wt != 3 || async != 0 {
		t.Errorf("mode split wt/async = %d/%d, want 3/0", wt, async)
	}
}

func TestAdaptiveBurstDegradesToAsync(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.Policy = "bb-adaptive"
	rig := newRig(4, cfg)
	const writers = 6
	const size = 32 * mib
	var flushedAtAck int64
	rig.run(t, func(p *sim.Proc) {
		var wg sim.WaitGroup
		for i := 0; i < writers; i++ {
			i := i
			wg.Add(1)
			rig.c.Env.Spawn(fmt.Sprintf("burst.w%d", i), func(q *sim.Proc) {
				defer wg.Done()
				writeFile(t, q, rig.fs, netsim.NodeID(i%4), fmt.Sprintf("/f%d", i), size)
			})
		}
		wg.Wait(p)
		flushedAtAck = rig.fs.Stats().BytesFlushed
		rig.fs.DrainFlushers(p)
	})
	total := int64(writers) * size
	if got := rig.fs.Stats().BytesFlushed; got != total {
		t.Errorf("flushed %d after drain, want %d", got, total)
	}
	if flushedAtAck >= total {
		t.Error("burst fully flushed at ack; detector never degraded to async")
	}
	async := rig.fs.Metrics().Counter("adaptive.blocks.async").Value()
	if async == 0 {
		t.Error("no blocks took the async path under a 6-writer burst")
	}
}

// TestWriterStallsUnderPressure oversubscribes 2 servers x 64 MiB with
// 192 MiB of async writes from two nodes, faster than one flusher per
// server drains them to Lustre: writers can only proceed as flushes make
// blocks clean and evictable. A lost wake-up deadlocks, which run()
// reports.
func TestWriterStallsUnderPressure(t *testing.T) {
	cfg := testCfg("bb-async")
	cfg.ServerMemory = 64 * mib
	cfg.Flushers = 1
	rig := newRig(2, cfg)
	const size = 96 * mib // per writer
	rig.run(t, func(p *sim.Proc) {
		var wg sim.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			rig.c.Env.Spawn(fmt.Sprintf("w%d", i), func(q *sim.Proc) {
				defer wg.Done()
				writeFile(t, q, rig.fs, netsim.NodeID(i), fmt.Sprintf("/f%d", i), size)
			})
		}
		wg.Wait(p)
		rig.fs.DrainFlushers(p)
	})
	if got := rig.fs.Stats().BytesFlushed; got != 2*size {
		t.Errorf("flushed %d, want %d", got, 2*size)
	}
	if rig.fs.Stats().WriterStalls == 0 {
		t.Error("no writer stalls despite 1.5x memory oversubscription")
	}
}

// TestFlushRetryAccounting fills Lustre so flushes fail transiently (the
// server itself is healthy): each failed flush re-queues the block —
// accounted exactly once per attempt — and the retry cap leaves the block
// dirty rather than spinning forever.
func TestFlushRetryAccounting(t *testing.T) {
	c := newRigCluster(2)
	l := newTinyLustre(c, 2*mib) // OSTs far smaller than one block
	cfg := testCfg("bb-async")
	rig := rigOn(c, l, cfg)
	rig.pool.Start()
	const size = 16 * mib // one block
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", size)
		p.Sleep(10 * time.Second) // let every retry attempt fail
		// The block must still be readable from the buffer.
		if got := readFile(t, p, rig.fs, 1, "/f"); got != size {
			t.Fatalf("read %d, want %d", got, size)
		}
	})
	st := rig.fs.Stats()
	if st.BytesFlushed != 0 {
		t.Errorf("flushed %d into a full Lustre", st.BytesFlushed)
	}
	if st.FlushRetries != maxBlockRetries {
		t.Errorf("flush retries = %d, want %d (once per attempt, then capped)", st.FlushRetries, maxBlockRetries)
	}
	if st.BlocksLost != 0 {
		t.Errorf("lost %d blocks; a transient flush failure must not lose data", st.BlocksLost)
	}
}
