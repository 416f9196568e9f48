package mapreduce

import (
	"fmt"
	"testing"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/hdfs"
	"hbb/internal/lustre"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

const mib = int64(1) << 20

type rig struct {
	c *cluster.Cluster
	h *hdfs.HDFS
	l *lustre.Lustre
}

func newRig(nodes int) *rig {
	c := cluster.New(cluster.Config{
		Nodes:     nodes,
		RacksOf:   4,
		Transport: netsim.IPoIB,
		Hardware: cluster.HardwareSpec{
			RAMDiskCapacity: 1 << 30,
			SSDCapacity:     8 << 30,
			MapSlots:        2,
			ReduceSlots:     2,
			ComputeRate:     400e6,
		},
		Seed: 9,
	})
	h, err := hdfs.New(c, hdfs.Config{BlockSize: 16 * mib, PacketSize: mib})
	if err != nil {
		panic(err)
	}
	h.Start()
	l := lustre.New(c, lustre.Config{OSTs: 4, StripeCount: 2})
	return &rig{c: c, h: h, l: l}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.c.Env.Spawn("driver", func(p *sim.Proc) {
		defer r.h.Shutdown()
		fn(p)
	})
	r.c.Env.Run()
	if dl := r.c.Env.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked: %v", dl)
	}
}

func TestGeneratorMapOnlyJob(t *testing.T) {
	r := newRig(4)
	var res Result
	r.run(t, func(p *sim.Proc) {
		var err error
		res, err = Run(p, r.c, Job{
			Name:           "gen",
			Maps:           8,
			GenBytesPerMap: 16 * mib,
			OutputFS:       r.h,
			OutputDir:      "/out",
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		fis, err := r.h.List(p, 0, "/out")
		if err != nil || len(fis) != 8 {
			t.Fatalf("output files = %d, %v", len(fis), err)
		}
		for _, fi := range fis {
			if fi.Size != 16*mib {
				t.Errorf("%s size = %d", fi.Path, fi.Size)
			}
		}
	})
	if res.MapTasks != 8 || res.BytesOutput != 8*16*mib || res.BytesInput != 8*16*mib {
		t.Errorf("result = %+v", res)
	}
	if res.ReduceTasks != 0 || res.BytesShuffled != 0 {
		t.Errorf("map-only job shuffled: %+v", res)
	}
}

func TestReadOnlyJob(t *testing.T) {
	r := newRig(4)
	var res Result
	r.run(t, func(p *sim.Proc) {
		var inputs []string
		for i := 0; i < 4; i++ {
			path := fmt.Sprintf("/in/f%d", i)
			w, err := r.h.Create(p, netsim.NodeID(i), path)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(p, 24*mib)
			w.Close(p)
			inputs = append(inputs, path)
		}
		var err error
		res, err = Run(p, r.c, Job{Name: "read", Input: inputs, InputFS: r.h})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if res.BytesInput != 4*24*mib {
		t.Errorf("bytes input = %d", res.BytesInput)
	}
	if res.BytesOutput != 0 {
		t.Errorf("read-only job produced output: %+v", res)
	}
}

func TestLocalityScheduling(t *testing.T) {
	r := newRig(8)
	var res Result
	r.run(t, func(p *sim.Proc) {
		var inputs []string
		for i := 0; i < 8; i++ {
			path := fmt.Sprintf("/in/f%d", i)
			w, _ := r.h.Create(p, netsim.NodeID(i), path)
			w.Write(p, 16*mib)
			w.Close(p)
			inputs = append(inputs, path)
		}
		var err error
		res, err = Run(p, r.c, Job{Name: "local", Input: inputs, InputFS: r.h})
		if err != nil {
			t.Fatal(err)
		}
	})
	// Every file has 3 replicas across 8 nodes; the scheduler should place
	// the large majority of maps data-locally.
	if res.DataLocalMaps < 6 {
		t.Errorf("data-local maps = %d of 8", res.DataLocalMaps)
	}
}

func TestLustreInputHasNoLocality(t *testing.T) {
	r := newRig(4)
	var res Result
	r.run(t, func(p *sim.Proc) {
		var inputs []string
		for i := 0; i < 4; i++ {
			path := fmt.Sprintf("/in/f%d", i)
			w, _ := r.l.Create(p, 0, path)
			w.Write(p, 16*mib)
			w.Close(p)
			inputs = append(inputs, path)
		}
		var err error
		res, err = Run(p, r.c, Job{Name: "lread", Input: inputs, InputFS: r.l})
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.DataLocalMaps != 0 {
		t.Errorf("lustre input produced %d data-local maps", res.DataLocalMaps)
	}
}

func TestFullSortJob(t *testing.T) {
	r := newRig(4)
	var res Result
	r.run(t, func(p *sim.Proc) {
		// Generate input.
		if _, err := Run(p, r.c, Job{
			Name: "randomwriter", Maps: 4, GenBytesPerMap: 32 * mib,
			OutputFS: r.h, OutputDir: "/rw",
		}); err != nil {
			t.Fatal(err)
		}
		fis, _ := r.h.List(p, 0, "/rw")
		var inputs []string
		for _, fi := range fis {
			inputs = append(inputs, fi.Path)
		}
		var err error
		res, err = Run(p, r.c, Job{
			Name: "sort", Input: inputs, InputFS: r.h,
			OutputFS: r.h, OutputDir: "/sorted",
			NumReducers:     4,
			MapCPUFactor:    0.2,
			MapOutputRatio:  1.0,
			ReduceCPUFactor: 0.3, ReduceOutputRatio: 1.0,
		})
		if err != nil {
			t.Fatal(err)
		}
		fis, err = r.h.List(p, 0, "/sorted")
		if err != nil || len(fis) != 4 {
			t.Fatalf("sorted parts = %d, %v", len(fis), err)
		}
		var outTotal int64
		for _, fi := range fis {
			outTotal += fi.Size
		}
		if outTotal != 4*32*mib {
			t.Errorf("sorted output = %d, want %d (conservation)", outTotal, 4*32*mib)
		}
	})
	if res.BytesShuffled != 4*32*mib {
		t.Errorf("shuffled = %d, want all map output", res.BytesShuffled)
	}
	if res.BytesInput != 4*32*mib || res.BytesOutput != 4*32*mib {
		t.Errorf("result = %+v", res)
	}
}

func TestIntermediateSpaceReleased(t *testing.T) {
	r := newRig(4)
	r.run(t, func(p *sim.Proc) {
		if _, err := Run(p, r.c, Job{
			Name: "gen", Maps: 4, GenBytesPerMap: 16 * mib,
			OutputFS: r.h, OutputDir: "/in",
		}); err != nil {
			t.Fatal(err)
		}
		fis, _ := r.h.List(p, 0, "/in")
		var inputs []string
		for _, fi := range fis {
			inputs = append(inputs, fi.Path)
		}
		if _, err := Run(p, r.c, Job{
			Name: "mr", Input: inputs, InputFS: r.h,
			OutputFS: r.h, OutputDir: "/out",
			NumReducers: 2, MapOutputRatio: 1.0, ReduceOutputRatio: 1.0,
		}); err != nil {
			t.Fatal(err)
		}
		// RAM disks held the intermediates; all must be freed again.
		for _, n := range r.c.Nodes {
			if n.RAMDisk.Used() != 0 {
				t.Errorf("node %d RAM disk still holds %d bytes", n.ID, n.RAMDisk.Used())
			}
		}
	})
}

func TestSlotLimitSerializesWaves(t *testing.T) {
	r := newRig(2) // 2 nodes x 2 map slots = 4 concurrent maps
	var oneWave, fourWaves time.Duration
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, err := Run(p, r.c, Job{
			Name: "w1", Maps: 4, GenBytesPerMap: 8 * mib, MapCPUFactor: 2,
			OutputFS: r.h, OutputDir: "/w1",
		}); err != nil {
			t.Fatal(err)
		}
		oneWave = p.Now() - start
		start = p.Now()
		if _, err := Run(p, r.c, Job{
			Name: "w4", Maps: 16, GenBytesPerMap: 8 * mib, MapCPUFactor: 2,
			OutputFS: r.h, OutputDir: "/w4",
		}); err != nil {
			t.Fatal(err)
		}
		fourWaves = p.Now() - start
	})
	if fourWaves < 3*oneWave {
		t.Errorf("16 maps (%v) should take ~4x as long as 4 maps (%v) on 4 slots", fourWaves, oneWave)
	}
}

func TestCPUFactorSlowsJob(t *testing.T) {
	r := newRig(2)
	var cheap, heavy time.Duration
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		Run(p, r.c, Job{Name: "cheap", Maps: 4, GenBytesPerMap: 16 * mib, OutputFS: r.h, OutputDir: "/a"})
		cheap = p.Now() - start
		start = p.Now()
		Run(p, r.c, Job{Name: "heavy", Maps: 4, GenBytesPerMap: 16 * mib, MapCPUFactor: 5, OutputFS: r.h, OutputDir: "/b"})
		heavy = p.Now() - start
	})
	if heavy <= cheap {
		t.Errorf("CPU-heavy job (%v) not slower than cheap one (%v)", heavy, cheap)
	}
}

func TestJobSurvivesNodeFailure(t *testing.T) {
	r := newRig(6)
	var res Result
	r.run(t, func(p *sim.Proc) {
		// Input on HDFS.
		if _, err := Run(p, r.c, Job{
			Name: "gen", Maps: 6, GenBytesPerMap: 32 * mib,
			OutputFS: r.h, OutputDir: "/in",
		}); err != nil {
			t.Fatal(err)
		}
		fis, _ := r.h.List(p, 0, "/in")
		var inputs []string
		for _, fi := range fis {
			inputs = append(inputs, fi.Path)
		}
		// Kill a node mid-job.
		r.c.Env.Spawn("killer", func(q *sim.Proc) {
			q.Sleep(300 * time.Millisecond)
			r.h.FailDataNode(5)
		})
		var err error
		res, err = Run(p, r.c, Job{
			Name: "sort", Input: inputs, InputFS: r.h,
			OutputFS: r.h, OutputDir: "/out",
			NumReducers: 4, MapCPUFactor: 0.5, MapOutputRatio: 1.0,
			ReduceCPUFactor: 0.5, ReduceOutputRatio: 1.0,
		})
		if err != nil {
			t.Fatalf("job failed despite retries: %v", err)
		}
		fis, err = r.h.List(p, 0, "/out")
		if err != nil || len(fis) != 4 {
			t.Fatalf("output parts = %d, %v", len(fis), err)
		}
	})
	t.Logf("retries=%d rerun=%d localmaps=%d", res.TaskRetries, res.MapsReRun, res.DataLocalMaps)
}

func TestMissingInputFailsJob(t *testing.T) {
	r := newRig(2)
	r.run(t, func(p *sim.Proc) {
		_, err := Run(p, r.c, Job{Name: "bad", Input: []string{"/nope"}, InputFS: r.h})
		if err == nil {
			t.Error("job with missing input succeeded")
		}
	})
}

func TestThroughputMetric(t *testing.T) {
	res := Result{BytesInput: 100e6, Duration: 2 * time.Second}
	if tp := res.Throughput(); tp != 50 {
		t.Errorf("throughput = %v, want 50 MB/s", tp)
	}
	if (Result{}).Throughput() != 0 {
		t.Error("zero result throughput not 0")
	}
}

func TestIntermediatesOnLustreUseRangeReads(t *testing.T) {
	r := newRig(4)
	r.run(t, func(p *sim.Proc) {
		if _, err := Run(p, r.c, Job{
			Name: "gen", Maps: 4, GenBytesPerMap: 16 * mib,
			OutputFS: r.l, OutputDir: "/in",
		}); err != nil {
			t.Fatal(err)
		}
		fis, _ := r.l.List(p, 0, "/in")
		var inputs []string
		for _, fi := range fis {
			inputs = append(inputs, fi.Path)
		}
		before := r.l.Stats().BytesRead
		if _, err := Run(p, r.c, Job{
			Name: "lu-int", Input: inputs, InputFS: r.l,
			OutputFS: r.l, OutputDir: "/out",
			IntermediateFS: r.l,
			NumReducers:    4, MapOutputRatio: 1.0, ReduceOutputRatio: 1.0,
		}); err != nil {
			t.Fatal(err)
		}
		read := r.l.Stats().BytesRead - before
		// Input 64 MiB + shuffle 64 MiB; range reads must not amplify the
		// shuffle beyond a small tolerance.
		want := int64(2 * 4 * 16 * mib)
		if read < want || read > want*11/10 {
			t.Errorf("lustre read %d bytes, want ~%d (no shuffle amplification)", read, want)
		}
		// Intermediate files were cleaned up after the job.
		if _, err := r.l.Stat(p, 0, "/.mr-lu-int"); err == nil {
			t.Error("intermediate directory survived the job")
		}
	})
}

func TestGeneratorJobWithReducers(t *testing.T) {
	r := newRig(2)
	var res Result
	r.run(t, func(p *sim.Proc) {
		var err error
		res, err = Run(p, r.c, Job{
			Name: "genred", Maps: 4, GenBytesPerMap: 8 * mib,
			OutputFS: r.h, OutputDir: "/out",
			NumReducers: 2, MapCPUFactor: 0.1, MapOutputRatio: 0.5, ReduceOutputRatio: 1.0,
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.BytesShuffled != 4*4*mib {
		t.Errorf("shuffled = %d, want half the generated bytes", res.BytesShuffled)
	}
}

func TestJobValidation(t *testing.T) {
	r := newRig(2)
	r.run(t, func(p *sim.Proc) {
		if _, err := Run(p, r.c, Job{Name: "empty"}); err == nil {
			t.Error("job without input or maps accepted")
		}
		if _, err := Run(p, r.c, Job{Name: "noin", Input: []string{"/x"}}); err == nil {
			t.Error("input without InputFS accepted")
		}
		if _, err := Run(p, r.c, Job{Name: "noout", Maps: 1, GenBytesPerMap: 1}); err == nil {
			t.Error("generator without output accepted")
		}
	})
}
