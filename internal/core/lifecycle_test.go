package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hbb/internal/dfs"
	"hbb/internal/lustre"
	"hbb/internal/netsim"
	"hbb/internal/sim"
	"hbb/internal/storage"
)

// checkOSTLedger asserts, once a rig's run is over, that the OSTs hold
// exactly the Lustre objects that live, non-imported blocks reference
// (each once, however many blocks share it) plus the files outside the
// buffer's directory. A leaked partial object, or a stripe freed twice,
// breaks the equality.
func checkOSTLedger(t *testing.T, rig *testRig) {
	t.Helper()
	if held, want := ostLedger(t, rig); held != want {
		t.Errorf("OSTs hold %d bytes; live blocks' objects and user files account for %d", held, want)
	}
}

// ostLedger returns what the OSTs hold and what live blocks' objects and
// user files account for.
func ostLedger(t *testing.T, rig *testRig) (held, want int64) {
	t.Helper()
	for _, d := range rig.l.OSTDevices() {
		held += d.Used()
	}
	refs := map[string]bool{}
	for _, inst := range rig.pool.instances {
		for _, b := range treeBlocks(t, inst.tree, "/") {
			if b.lustrePath != "" && !b.imported {
				refs[b.lustrePath] = true
			}
		}
	}
	node := rig.pool.MgrNode
	rig.c.Env.Spawn("ledger", func(p *sim.Proc) {
		for path := range refs {
			fi, err := rig.l.Stat(p, node, path)
			if err != nil {
				t.Errorf("a live block references %s: %v", path, err)
				continue
			}
			want += fi.Size
		}
		want += lustreUserBytes(t, p, rig.l, node, "/")
	})
	rig.c.Env.Run()
	return held, want
}

// checkBufferLedger asserts, once a rig's run is over, that the buffer's
// space adds up to its blocks' ledgers: each live share holds exactly the
// holds its files' blocks record on it, each node-local device exactly
// the local bytes they record on it, and openBlocks counts exactly the
// blocks a writer holds a slot for. A deleted or failed block that kept a
// hold, or a hold released twice, breaks an equality.
func checkBufferLedger(t *testing.T, rig *testRig) {
	t.Helper()
	for _, msg := range bufferLedgerFaults(t, rig) {
		t.Error(msg)
	}
}

// bufferLedgerFaults returns checkBufferLedger's mismatches, one message
// each.
func bufferLedgerFaults(t *testing.T, rig *testRig) []string {
	t.Helper()
	var faults []string
	local := map[*storage.Device]int64{}
	for _, inst := range rig.pool.instances {
		shares := map[*BufferServer]int64{}
		open := 0
		for _, b := range treeBlocks(t, inst.tree, "/") {
			for _, h := range b.held {
				shares[h.s] += h.n
			}
			if b.localDev != nil {
				local[b.localDev] += b.localBytes
			}
			if b.open {
				open++
			}
		}
		for _, s := range inst.servers {
			if !s.phys.failed && s.bytes != shares[s] {
				faults = append(faults, fmt.Sprintf("%s holds %d bytes; its blocks' holds sum to %d", s.name, s.bytes, shares[s]))
			}
		}
		if inst.openBlocks != open {
			faults = append(faults, fmt.Sprintf("openBlocks = %d; %d blocks hold a writer's slot", inst.openBlocks, open))
		}
	}
	for _, n := range rig.c.Nodes {
		for _, d := range n.LocalDevices() {
			if d.Used() != local[d] {
				faults = append(faults, fmt.Sprintf("%s uses %d bytes; local replicas hold %d", d.Name(), d.Used(), local[d]))
			}
		}
	}
	return faults
}

// treeBlocks returns the blocks of every file under dir.
func treeBlocks(t *testing.T, tree *dfs.Tree, dir string) []*bbBlock {
	t.Helper()
	fis, err := tree.List(dir)
	if err != nil {
		t.Fatalf("list %s: %v", dir, err)
	}
	var out []*bbBlock
	for _, fi := range fis {
		if fi.IsDir {
			out = append(out, treeBlocks(t, tree, fi.Path)...)
			continue
		}
		f, err := tree.GetFile(fi.Path)
		if err != nil {
			t.Fatalf("lookup %s: %v", fi.Path, err)
		}
		out = append(out, filePayload(f).blocks...)
	}
	return out
}

// lustreUserBytes sums the sizes of the Lustre files under dir that are
// not the buffer's own objects.
func lustreUserBytes(t *testing.T, p *sim.Proc, l *lustre.Lustre, node netsim.NodeID, dir string) int64 {
	fis, err := l.List(p, node, dir)
	if err != nil {
		t.Errorf("list %s: %v", dir, err)
		return 0
	}
	var n int64
	for _, fi := range fis {
		switch {
		case fi.Path == lustreDir:
		case fi.IsDir:
			n += lustreUserBytes(t, p, l, node, fi.Path)
		default:
			n += fi.Size
		}
	}
	return n
}

// TestWriteThroughFailureDiscardsObject fails a bb-sync write-through: a
// 16 MiB block cannot fit on the two 6 MiB OSTs its object stripes over.
// The tee must delete its partial object, so nothing is left once the
// file is deleted.
func TestWriteThroughFailureDiscardsObject(t *testing.T) {
	cfg := testCfg("bb-sync")
	cfg.Servers = 1
	c := newRigCluster(2)
	rig := rigOn(c, newTinyLustre(c, 6*mib), cfg)
	rig.pool.Start()
	rig.run(t, func(p *sim.Proc) {
		w, err := rig.fs.Create(p, 0, "/f")
		if err != nil {
			t.Fatal(err)
		}
		err = w.Write(p, 16*mib)
		if err == nil || !strings.Contains(err.Error(), "sync flush failed") || !errors.Is(err, dfs.ErrNoSpace) {
			t.Fatalf("write = %v, want a failed sync flush for lack of space", err)
		}
		if err := rig.fs.Delete(p, 0, "/f"); err != nil {
			t.Fatalf("delete: %v", err)
		}
	})
	checkOSTLedger(t, rig)
	checkBufferLedger(t, rig)
}

// TestFailedLocalRecoveryDiscardsObject crashes the only bb-locality
// server before its flushers start, so the block's one way to Lustre is
// recovery from its local replica, and that fails on 6 MiB OSTs. The
// block is lost, and recovery must delete its partial object.
func TestFailedLocalRecoveryDiscardsObject(t *testing.T) {
	cfg := testCfg("bb-locality")
	cfg.Servers = 1
	c := newRigCluster(2)
	rig := rigOn(c, newTinyLustre(c, 6*mib), cfg)
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", 16*mib)
		rig.pool.FailServer(0)
		p.Sleep(time.Second) // recovery fails long before this
		if err := rig.fs.Delete(p, 0, "/f"); err != nil {
			t.Fatalf("delete: %v", err)
		}
	})
	if st := rig.fs.Stats(); st.BlocksLost != 1 || st.BlocksRecovered != 0 {
		t.Errorf("lost=%d recovered=%d; want the block lost", st.BlocksLost, st.BlocksRecovered)
	}
	checkOSTLedger(t, rig)
	checkBufferLedger(t, rig)
}

// TestDeleteDuringRecovery deletes a bb-locality file 1 ms after its only
// server crashed, while all four of its blocks recover from their local
// replicas. Recovery must not touch the replica the delete released, must
// leave each block deleted, and must delete the objects it was writing.
func TestDeleteDuringRecovery(t *testing.T) {
	cfg := testCfg("bb-locality")
	cfg.Servers = 1
	c := newRigCluster(2)
	rig := rigOn(c, lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2}), cfg)
	var blocks []*bbBlock
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", 64*mib)
		blocks = fileBlocks(t, rig.fs, "/f")
		rig.pool.FailServer(0)
		p.Sleep(time.Millisecond)
		if err := rig.fs.Delete(p, 0, "/f"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		p.Sleep(5 * time.Second) // every recovery has stopped by now
	})
	for _, b := range blocks {
		if b.state.String() != "deleted" {
			t.Errorf("block %d ended %v, want deleted", b.id, b.state)
		}
	}
	if st := rig.fs.Stats(); st.BlocksRecovered != 0 || st.BlocksLost != 0 {
		t.Errorf("recovered=%d lost=%d; a deleted block is neither", st.BlocksRecovered, st.BlocksLost)
	}
	checkOSTLedger(t, rig)
	checkBufferLedger(t, rig)
}

// TestDrainFlushersAfterFailServer writes 256 MiB over three bb-async
// servers before their flushers start, crashes the first and drains. The
// crashed share's queued blocks were promoted or lost, so the drain must
// return rather than wait on a scheduler whose flushers are gone.
func TestDrainFlushersAfterFailServer(t *testing.T) {
	for _, tc := range []struct {
		replicas         int
		lost, promotions int64
		flushed          int64
	}{
		{replicas: 1, lost: 4, flushed: 192 * mib},
		{replicas: 2, promotions: 9, flushed: 256 * mib},
	} {
		t.Run(fmt.Sprintf("replicas-%d", tc.replicas), func(t *testing.T) {
			cfg := testCfg("bb-async")
			cfg.Servers = 3
			cfg.Flushers = 1
			cfg.BufferReplicas = tc.replicas
			c := newRigCluster(2)
			rig := rigOn(c, lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2}), cfg)
			drained := false
			c.Env.Spawn("driver", func(p *sim.Proc) {
				defer rig.pool.Shutdown()
				writeFile(t, p, rig.fs, 0, "/f", 256*mib)
				rig.pool.Start()
				rig.pool.FailServer(0)
				rig.fs.DrainFlushers(p)
				drained = true
			})
			c.Env.RunUntil(120 * time.Second)
			if !drained {
				backlog := make([]int, len(rig.fs.servers))
				for i, s := range rig.fs.servers {
					backlog[i] = s.dirtyBacklog()
				}
				t.Fatalf("DrainFlushers still waiting at %v; backlog %v", c.Env.Now(), backlog)
			}
			st := rig.fs.Stats()
			if st.BlocksLost != tc.lost || st.Promotions != tc.promotions || st.BytesFlushed != tc.flushed {
				t.Errorf("lost=%d promotions=%d flushed=%d; want %d, %d, %d",
					st.BlocksLost, st.Promotions, st.BytesFlushed, tc.lost, tc.promotions, tc.flushed)
			}
			checkOSTLedger(t, rig)
			checkBufferLedger(t, rig)
		})
	}
}

// TestDeleteWhileWriting deletes a file while its writer is half way
// through the first block. The writer's next block boundary must report
// the file gone, whatever the scheme, and no tee may keep what it wrote
// for the deleted block: no Lustre object, no local replica. The block
// must give back its reservation and its writer's slot.
func TestDeleteWhileWriting(t *testing.T) {
	for _, policy := range []string{"bb-async", "bb-locality", "bb-sync"} {
		t.Run(policy, func(t *testing.T) {
			rig := newRig(2, testCfg(policy))
			rig.run(t, func(p *sim.Proc) {
				w, err := rig.fs.Create(p, 0, "/f")
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Write(p, 8*mib); err != nil {
					t.Fatal(err)
				}
				if err := rig.fs.Delete(p, 1, "/f"); err != nil {
					t.Fatalf("delete: %v", err)
				}
				if err := w.Write(p, 8*mib); !errors.Is(err, dfs.ErrNotFound) {
					t.Errorf("write after the delete = %v, want ErrNotFound", err)
				}
				p.Sleep(time.Second)
			})
			if used := localUsed(rig.c); used != 0 {
				t.Errorf("local storage holds %d bytes of a deleted file", used)
			}
			checkOSTLedger(t, rig)
			checkBufferLedger(t, rig)
		})
	}
}

// TestReleaseFreesLocalReplicas releases a bb-locality instance whose
// writes have drained: its node-local replicas go with it.
func TestReleaseFreesLocalReplicas(t *testing.T) {
	rig := newRig(2, testCfg("bb-locality"))
	inst, err := rig.pool.NewInstance(InstanceSpec{Name: "job", BricksPerServer: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, inst, 0, "/f", 32*mib)
		inst.DrainFlushers(p)
		if used := localUsed(rig.c); used != 32*mib {
			t.Errorf("local replicas hold %d bytes before the release, want %d", used, 32*mib)
		}
		inst.Release()
	})
	checkBufferLedger(t, rig)
	if used := localUsed(rig.c); used != 0 {
		t.Errorf("local storage holds %d bytes of a released instance", used)
	}
}

// TestBufferReadRacesEviction evicts a clean 16 MiB block from its server
// while a reader streams it from there. The GETs that reach the server
// after the eviction find nothing (ErrNotFound), and the reader falls
// back to the block's Lustre copy: it reads the whole block, once from
// each source, and the buffer's ledger holds.
func TestBufferReadRacesEviction(t *testing.T) {
	rig := newRig(2, testCfg("bb-sync"))
	rig.run(t, func(p *sim.Proc) {
		writeFile(t, p, rig.fs, 0, "/f", 16*mib)
		r, err := rig.fs.Open(p, 1, "/f")
		if err != nil {
			t.Fatal(err)
		}
		total, err := r.Read(p, mib) // the buffer fetchers are under way
		if err != nil {
			t.Fatal(err)
		}
		// Evict the block as ensureSpace does.
		b := r.(*bbReader).blocks[0]
		s := b.primary()
		if b.state != stateClean || s == nil {
			t.Fatalf("block is %v on %v, want clean in the buffer", b.state, s)
		}
		b.releaseShare(s)
		b.dropServer(s)
		b.move(stateEvicted)
		for {
			n, err := r.Read(p, 4*mib)
			if err != nil {
				t.Fatalf("read after the eviction: %v", err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		r.Close(p)
		if total != 16*mib {
			t.Errorf("read %d bytes, want %d", total, 16*mib)
		}
		rig.fs.DrainFlushers(p)
	})
	if st := rig.fs.Stats(); st.ReadsBuffer != 1 || st.ReadsLustre != 1 {
		t.Errorf("reads: %d from the buffer, %d from Lustre; want 1 and 1", st.ReadsBuffer, st.ReadsLustre)
	}
	checkBufferLedger(t, rig)
}

// TestCrashDuringWriteSweep crashes buffer server 0 at every 97 µs of the
// first 40 ms of a 32 MiB write (413 instants), under every scheme with
// one and two buffer replicas, then closes the file and lets recovery run
// for 3 s. Whatever the instant, nothing may panic or hang, the buffer's
// ledger must hold, no writer slot may stay taken, and a write and close
// that succeed must leave a file of exactly the bytes written. Objects a
// crashed writer leaves on Lustre are counted, not asserted: they are
// ROADMAP 14a's remaining case.
func TestCrashDuringWriteSweep(t *testing.T) {
	const size = 32 * mib
	for _, policy := range []string{"bb-async", "bb-locality", "bb-sync", "bb-adaptive"} {
		for _, replicas := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/replicas-%d", policy, replicas), func(t *testing.T) {
				var runs, panics, ledger, open, sizes, objects int
				first := ""
				for at := time.Duration(0); at < 40*time.Millisecond; at += 97 * time.Microsecond {
					runs++
					cfg := testCfg(policy)
					cfg.BufferReplicas = replicas
					rig := newRig(3, cfg)
					var faults []string
					if got, msg := crashDuringWrite(rig, at, size); msg != "" {
						panics++
						faults = append(faults, msg)
					} else {
						if got >= 0 && got != size {
							sizes++
							faults = append(faults, fmt.Sprintf("wrote %d bytes, the file holds %d", size, got))
						}
						for _, f := range bufferLedgerFaults(t, rig) {
							if strings.HasPrefix(f, "openBlocks") {
								open++
							} else {
								ledger++
							}
							faults = append(faults, f)
						}
						if held, want := ostLedger(t, rig); held != want {
							objects++
						}
					}
					if first == "" && len(faults) > 0 {
						first = fmt.Sprintf("crash at %v: %s", at, strings.Join(faults, "; "))
					}
				}
				if first != "" {
					t.Errorf("%d runs: %d panicked or hung, %d ledger faults, %d left writer slots taken, %d files of the wrong size; first: %s",
						runs, panics, ledger, open, sizes, first)
				}
				t.Logf("%d runs; %d leave a crashed writer's objects on the OSTs", runs, objects)
			})
		}
	}
}

// crashDuringWrite writes size bytes from node 0 while server 0 crashes
// at at, closes the file and waits 3 s. It returns the file's size if the
// write and close succeeded (else -1), and why the run did not end
// cleanly: a panic's message or the processes left blocked.
func crashDuringWrite(rig *testRig, at time.Duration, size int64) (got int64, msg string) {
	got = -1
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	rig.c.Env.Spawn("crash", func(p *sim.Proc) {
		p.Sleep(at)
		rig.pool.FailServer(0)
	})
	rig.c.Env.Spawn("driver", func(p *sim.Proc) {
		defer rig.pool.Shutdown()
		w, err := rig.fs.Create(p, 0, "/f")
		if err != nil {
			return
		}
		if w.Write(p, size) == nil && w.Close(p) == nil {
			if fi, err := rig.fs.Stat(p, 0, "/f"); err == nil {
				got = fi.Size
			}
		}
		p.Sleep(3 * time.Second)
	})
	rig.c.Env.Run()
	if dl := rig.c.Env.Deadlocked(); len(dl) != 0 {
		return got, fmt.Sprintf("deadlocked: %v", dl)
	}
	return got, ""
}
