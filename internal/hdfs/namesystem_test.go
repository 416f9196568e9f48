package hdfs

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hbb/internal/dfs"
	"hbb/internal/netsim"
)

func testNamesystem(t *testing.T, dns int, racksOf int, capacity int64) *Namesystem {
	t.Helper()
	n := NewNamesystem(Config{BlockSize: 64 << 20}, rand.New(rand.NewSource(7)))
	for i := 0; i < dns; i++ {
		n.RegisterDatanode(netsim.NodeID(i), i/racksOf, capacity, 0)
	}
	return n
}

func TestPlacementPrefersWriterThenRacks(t *testing.T) {
	n := testNamesystem(t, 8, 4, 1<<40) // racks {0..3}, {4..7}
	if err := n.CreateFile("/f"); err != nil {
		t.Fatal(err)
	}
	_, targets, err := n.AddBlock("/f", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 3 {
		t.Fatalf("targets = %v", targets)
	}
	if targets[0] != 2 {
		t.Errorf("first replica on %d, want the writer (2)", targets[0])
	}
	rack := func(id netsim.NodeID) int { return int(id) / 4 }
	if rack(targets[1]) == rack(targets[0]) {
		t.Errorf("second replica on the writer's rack: %v", targets)
	}
	if rack(targets[2]) != rack(targets[1]) {
		t.Errorf("third replica not on the second's rack: %v", targets)
	}
}

func TestPlacementExcludes(t *testing.T) {
	n := testNamesystem(t, 4, 4, 1<<40)
	n.CreateFile("/f")
	_, targets, err := n.AddBlock("/f", 0, []netsim.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		if tg == 0 || tg == 1 {
			t.Errorf("excluded node chosen: %v", targets)
		}
	}
}

func TestPlacementSkipsFullNodes(t *testing.T) {
	n := testNamesystem(t, 3, 3, 100<<20) // capacity below two blocks
	n.CreateFile("/f")
	// Fill node 0.
	n.Heartbeat(0, 90<<20, 0)
	_, targets, err := n.AddBlock("/f", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		if tg == 0 {
			t.Errorf("full node chosen: %v", targets)
		}
	}
}

func TestPlacementNoSpace(t *testing.T) {
	n := testNamesystem(t, 2, 2, 1<<20) // capacity below one block
	n.CreateFile("/f")
	if _, _, err := n.AddBlock("/f", 0, nil); !errors.Is(err, dfs.ErrNoSpace) {
		t.Errorf("err = %v, want ErrNoSpace", err)
	}
}

func TestBlockLifecycle(t *testing.T) {
	n := testNamesystem(t, 3, 3, 1<<40)
	n.CreateFile("/f")
	id, targets, err := n.AddBlock("/f", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		n.BlockReceived(tg, id, 64<<20)
	}
	if err := n.CommitBlock("/f", id, 64<<20); err != nil {
		t.Fatal(err)
	}
	if err := n.CompleteFile("/f"); err != nil {
		t.Fatal(err)
	}
	blocks, err := n.FileBlocks("/f")
	if err != nil || len(blocks) != 1 {
		t.Fatalf("blocks = %v, %v", blocks, err)
	}
	if blocks[0].Size != 64<<20 || len(blocks[0].Locations) != 3 {
		t.Errorf("block = %+v", blocks[0])
	}
	fi, _ := n.ns.Stat("/f")
	if fi.Size != 64<<20 {
		t.Errorf("file size = %d", fi.Size)
	}
	// Writing to a sealed file fails.
	if _, _, err := n.AddBlock("/f", 0, nil); !errors.Is(err, dfs.ErrReadOnly) {
		t.Errorf("addBlock on sealed file: %v", err)
	}
}

func TestDeleteFreesReplicas(t *testing.T) {
	n := testNamesystem(t, 3, 3, 1<<40)
	n.CreateFile("/f")
	id, targets, _ := n.AddBlock("/f", 0, nil)
	for _, tg := range targets {
		n.BlockReceived(tg, id, 32<<20)
	}
	n.CommitBlock("/f", id, 32<<20)
	n.CompleteFile("/f")
	freed, err := n.Delete("/f")
	if err != nil {
		t.Fatal(err)
	}
	replicas := 0
	for _, blocks := range freed {
		replicas += len(blocks)
	}
	if replicas != 3 {
		t.Errorf("freed %d replicas, want 3", replicas)
	}
	if _, err := n.FileBlocks("/f"); !errors.Is(err, dfs.ErrNotFound) {
		t.Errorf("file still present: %v", err)
	}
}

func TestDeadDatanodeDetectionAndReplicationTasks(t *testing.T) {
	n := testNamesystem(t, 4, 4, 1<<40)
	n.CreateFile("/f")
	id, targets, _ := n.AddBlock("/f", 0, nil)
	for _, tg := range targets {
		n.BlockReceived(tg, id, 64<<20)
	}
	n.CommitBlock("/f", id, 64<<20)
	n.CompleteFile("/f")

	// Heartbeat everyone at t=1s, then let the first target go silent.
	for i := 0; i < 4; i++ {
		n.Heartbeat(netsim.NodeID(i), 0, time.Second)
	}
	victim := targets[0]
	for i := 0; i < 4; i++ {
		if netsim.NodeID(i) != victim {
			n.Heartbeat(netsim.NodeID(i), 0, 8*time.Second)
		}
	}
	dead := n.CheckDatanodes(8 * time.Second)
	if len(dead) != 1 || dead[0] != victim {
		t.Fatalf("dead = %v, want [%d]", dead, victim)
	}
	blocks, _ := n.FileBlocks("/f")
	if len(blocks[0].Locations) != 2 {
		t.Errorf("locations after death = %v", blocks[0].Locations)
	}
	tasks := n.ReplicationTasks(10)
	if len(tasks) != 1 {
		t.Fatalf("tasks = %v", tasks)
	}
	task := tasks[0]
	if task.Block != id || task.Target == victim || task.Source == victim {
		t.Errorf("task = %+v", task)
	}
	// Marked pending: no duplicate task.
	if again := n.ReplicationTasks(10); len(again) != 0 {
		t.Errorf("duplicate tasks issued: %v", again)
	}
	// Completion restores replication; no more tasks.
	n.BlockReceived(task.Target, id, 64<<20)
	if again := n.ReplicationTasks(10); len(again) != 0 {
		t.Errorf("tasks after recovery: %v", again)
	}
	blocks, _ = n.FileBlocks("/f")
	if len(blocks[0].Locations) != 3 {
		t.Errorf("replication not restored: %v", blocks[0].Locations)
	}
}

func TestAbandonBlock(t *testing.T) {
	n := testNamesystem(t, 3, 3, 1<<40)
	n.CreateFile("/f")
	id, targets, _ := n.AddBlock("/f", 0, nil)
	n.AbandonBlock("/f", id)
	n.UnscheduleBlock(targets)
	n.CompleteFile("/f")
	blocks, err := n.FileBlocks("/f")
	if err != nil || len(blocks) != 0 {
		t.Errorf("blocks after abandon = %v, %v", blocks, err)
	}
}

func TestFileBlocksOffsets(t *testing.T) {
	n := testNamesystem(t, 3, 3, 1<<40)
	n.CreateFile("/f")
	sizes := []int64{64 << 20, 64 << 20, 10 << 20}
	for _, s := range sizes {
		id, targets, err := n.AddBlock("/f", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range targets {
			n.BlockReceived(tg, id, s)
		}
		n.CommitBlock("/f", id, s)
	}
	n.CompleteFile("/f")
	blocks, _ := n.FileBlocks("/f")
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	wantOff := []int64{0, 64 << 20, 128 << 20}
	for i, b := range blocks {
		if b.Offset != wantOff[i] || b.Size != sizes[i] {
			t.Errorf("block %d = %+v", i, b)
		}
	}
}
