package hbb

import (
	"fmt"
	"testing"

	"hbb/internal/mapreduce"
	"hbb/internal/orchestrator"
)

// multiJobRun is the deterministic fingerprint of the canonical two-job
// contention scenario: a 4-brick pool (two servers × 2 GiB), two tenants
// asking 3 bricks each, so the second queues until the first job's
// stage-out returns its bricks. Each tenant stages two 32 MiB files in
// from Lustre, runs a map-only job whose output dirties its instance, and
// releases. The per-tenant lifecycle timestamps pin the whole
// orchestration pipeline — placement, stage-in, concurrent-job
// submission, and overlapped stage-out — the same way goldenRun pins the
// single-tenant data plane.
type multiJobRun struct {
	queueWaitNS [2]int64
	readyNS     [2]int64
	freedNS     [2]int64
	staged      [2]int
	totalNS     int64
}

// multiJobFingerprint runs the canonical contention scenario.
func multiJobFingerprint(t *testing.T, sched string) multiJobRun {
	t.Helper()
	tb, err := New(Options{
		Nodes: 4, Seed: 42, ChunkSize: 4 << 20, BlockSize: 16 << 20,
		BBServers: 2, BBServerMemory: 2 << 30, BBFlushers: 1,
		BBSched: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	var g multiJobRun
	allocs := make([]*orchestrator.Allocation, 2)
	total := tb.Run(func(ctx *Ctx) {
		orch, err := ctx.BufferOrchestrator(BackendBBAsync)
		if err != nil {
			t.Error(err)
			return
		}
		for j := 0; j < 2; j++ {
			for f := 0; f < 2; f++ {
				if err := ctx.WriteFile(BackendLustre, j,
					fmt.Sprintf("/in/job%d/f%d", j, f), 32<<20); err != nil {
					t.Error(err)
					return
				}
			}
		}
		joins := make([]*Join, 2)
		for j := 0; j < 2; j++ {
			req := orchestrator.Request{
				Name:   fmt.Sprintf("job%d", j),
				Bricks: 3,
				Client: tb.cluster.Nodes[j].ID,
			}
			var input []string
			for f := 0; f < 2; f++ {
				dst := fmt.Sprintf("/data/f%d", f)
				req.StageIn = append(req.StageIn,
					orchestrator.StagePair{Src: fmt.Sprintf("/in/job%d/f%d", j, f), Dst: dst})
				input = append(input, dst)
			}
			a := orch.Submit(req)
			allocs[j] = a
			j := j
			joins[j] = ctx.Go(fmt.Sprintf("tenant%d", j), func(c2 *Ctx) {
				if err := a.Await(c2.p); err != nil {
					t.Error(err)
					return
				}
				sub := c2.SubmitJob(mapreduce.Job{
					Name:           fmt.Sprintf("job%d", j),
					Input:          input,
					InputFS:        a.FS(),
					OutputFS:       a.FS(),
					OutputDir:      "/data/out",
					MapOutputRatio: 1.0,
				})
				if _, err := sub.Wait(c2.p); err != nil {
					t.Error(err)
					return
				}
				orch.Release(a)
			})
		}
		for _, jn := range joins {
			jn.Wait(ctx)
		}
		for _, a := range allocs {
			a.AwaitFreed(ctx.p)
		}
	})
	g.totalNS = int64(total)
	for j, a := range allocs {
		g.queueWaitNS[j] = int64(a.Times.QueueWait())
		g.readyNS[j] = int64(a.Times.Ready)
		g.freedNS[j] = int64(a.Times.Freed)
		g.staged[j] = a.StagedBlocks()
	}
	return g
}

// multiJobGolden is the recorded fingerprint of the FCFS contention
// scenario. Regenerate with `go test -run TestGoldenMultiJob -v` and copy
// the logged actual values ONLY when an orchestration-behaviour change is
// intentional.
var multiJobGolden = multiJobRun{
	queueWaitNS: [2]int64{0, 129399209},
	readyNS:     [2]int64{155742070, 285135281},
	freedNS:     [2]int64{213809345, 340774058},
	staged:      [2]int{4, 4},
	totalNS:     340774058,
}

func TestGoldenMultiJob(t *testing.T) {
	got := multiJobFingerprint(t, "fcfs")
	t.Logf("actual: {queueWaitNS: [2]int64{%d, %d}, readyNS: [2]int64{%d, %d}, freedNS: [2]int64{%d, %d}, staged: [2]int{%d, %d}, totalNS: %d}",
		got.queueWaitNS[0], got.queueWaitNS[1], got.readyNS[0], got.readyNS[1],
		got.freedNS[0], got.freedNS[1], got.staged[0], got.staged[1], got.totalNS)
	if got != multiJobGolden {
		t.Errorf("multi-job fingerprint drifted from recorded golden:\n got: %+v\nwant: %+v", got, multiJobGolden)
	}
	// Structural invariants that must hold whatever the exact timings:
	// both tenants staged 2 files × 2 blocks, and the second tenant waited
	// for the first's stage-out (3+3 bricks > 4-brick pool).
	if got.staged[0] != 4 || got.staged[1] != 4 {
		t.Errorf("staged blocks = %v, want [4 4]", got.staged)
	}
	if got.queueWaitNS[1] <= 0 {
		t.Error("second tenant recorded no queue wait despite brick contention")
	}
}

// TestConcurrentBufferInstances drives two buffer instances through their
// full lifecycle — stage-in, concurrent MapReduce jobs, overlapped
// stage-out — at the same virtual time. Its job under `make stress`
// (-race, -count 2) is to catch data races between instances sharing
// physical serverNodes and to prove the run is repeatable.
func TestConcurrentBufferInstances(t *testing.T) {
	run := func() (freeBricks int, times [2]int64) {
		tb, err := New(Options{
			Nodes: 4, Seed: 7, ChunkSize: 4 << 20, BlockSize: 16 << 20,
			BBServers: 2, BBServerMemory: 4 << 30, BBFlushers: 2,
			BBSched: "backfill",
		})
		if err != nil {
			t.Fatal(err)
		}
		allocs := make([]*orchestrator.Allocation, 2)
		tb.Run(func(ctx *Ctx) {
			orch, err := ctx.BufferOrchestrator(BackendBBAsync)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 2; j++ {
				if err := ctx.WriteFile(BackendLustre, j,
					fmt.Sprintf("/in/f%d", j), 48<<20); err != nil {
					t.Error(err)
					return
				}
			}
			// Both fit at once (3+3 of 8 bricks): the two instances run
			// their stage-ins, jobs, and stage-outs truly concurrently.
			joins := make([]*Join, 2)
			for j := 0; j < 2; j++ {
				a := orch.Submit(orchestrator.Request{
					Name:    fmt.Sprintf("tenant%d", j),
					Bricks:  3,
					Client:  tb.cluster.Nodes[j].ID,
					StageIn: []orchestrator.StagePair{{Src: fmt.Sprintf("/in/f%d", j), Dst: "/data/in"}},
				})
				allocs[j] = a
				j := j
				joins[j] = ctx.Go(fmt.Sprintf("tenant%d", j), func(c2 *Ctx) {
					if err := a.Await(c2.p); err != nil {
						t.Error(err)
						return
					}
					sub := c2.SubmitJob(mapreduce.Job{
						Name:           fmt.Sprintf("tenant%d", j),
						Input:          []string{"/data/in"},
						InputFS:        a.FS(),
						OutputFS:       a.FS(),
						OutputDir:      "/data/out",
						MapOutputRatio: 1.0,
					})
					if _, err := sub.Wait(c2.p); err != nil {
						t.Error(err)
						return
					}
					orch.Release(a)
				})
			}
			for _, jn := range joins {
				jn.Wait(ctx)
			}
			for _, a := range allocs {
				a.AwaitFreed(ctx.p)
			}
		})
		for j, a := range allocs {
			if a.Times.QueueWait() != 0 {
				t.Errorf("tenant%d queued %v; both should fit at once", j, a.Times.QueueWait())
			}
			times[j] = int64(a.Times.Freed)
		}
		return tb.bb[BackendBBAsync].FreeBricks(), times
	}
	free1, t1 := run()
	if free1 != 8 {
		t.Errorf("free bricks after both tenants freed = %d, want 8", free1)
	}
	free2, t2 := run()
	if free1 != free2 || t1 != t2 {
		t.Errorf("concurrent lifecycle not repeatable: run1=(%d,%v) run2=(%d,%v)",
			free1, t1, free2, t2)
	}
}
