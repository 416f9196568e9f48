package hbb

import "testing"

// fleetStressFingerprint runs the stress workload with windows executed
// on procs workers (GOMAXPROCS).
func fleetStressFingerprint(t *testing.T, shards, procs int) (res FleetResult) {
	t.Helper()
	fb, err := NewFleet(Options{Nodes: 48, RacksOf: 8, Seed: 42, SimShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	withProcs(procs, func() { res = fb.Stress(8) })
	return res
}

// TestFleetCrossShardStress is the kitchen-sink determinism check: mixed
// pipeline/buffer/stripe/shuffle traffic spanning six racks must produce
// the identical event-trace fingerprint whether the racks share one event
// heap or are spread over four, and whatever GOMAXPROCS bounds the
// workers. It runs under -race via `make stress`.
func TestFleetCrossShardStress(t *testing.T) {
	base := fleetStressFingerprint(t, 1, 1)
	if base.Ops != 48*8 || base.Bytes == 0 || base.Events == 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	for _, tc := range []struct{ shards, procs int }{
		{1, 8}, {4, 1}, {4, 8}, {6, 8},
	} {
		got := fleetStressFingerprint(t, tc.shards, tc.procs)
		if got.Fingerprint != base.Fingerprint {
			t.Errorf("shards=%d GOMAXPROCS=%d fingerprint %x, want %x",
				tc.shards, tc.procs, got.Fingerprint, base.Fingerprint)
		}
		if got.Elapsed != base.Elapsed {
			t.Errorf("shards=%d GOMAXPROCS=%d elapsed %v, want %v",
				tc.shards, tc.procs, got.Elapsed, base.Elapsed)
		}
		if got.Bytes != base.Bytes {
			t.Errorf("shards=%d GOMAXPROCS=%d bytes %d, want %d",
				tc.shards, tc.procs, got.Bytes, base.Bytes)
		}
	}
}

func TestFleetDFSIOWriteDeterminism(t *testing.T) {
	run := func(shards, procs int) (res FleetResult) {
		fb, err := NewFleet(Options{Nodes: 60, RacksOf: 10, Seed: 7, SimShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		withProcs(procs, func() { res = fb.DFSIOWrite(4, 2<<20) })
		return res
	}
	base := run(1, 1)
	if base.Ops != 240 || base.Bytes != 240*2*(2<<20) {
		t.Fatalf("unexpected volume: ops=%d bytes=%d", base.Ops, base.Bytes)
	}
	for _, tc := range []struct{ shards, procs int }{{4, 4}, {6, 8}} {
		got := run(tc.shards, tc.procs)
		if got.Fingerprint != base.Fingerprint || got.Elapsed != base.Elapsed {
			t.Errorf("shards=%d GOMAXPROCS=%d (fp %x, elapsed %v), want (fp %x, elapsed %v)",
				tc.shards, tc.procs, got.Fingerprint, got.Elapsed, base.Fingerprint, base.Elapsed)
		}
	}
}

// TestFleetDFSIOWritePins holds DFSIOWrite's trace fixed across commits.
// Its fingerprint folds every file's completion instant, so unlike the
// swarm's it sees completion order and timing directly. The first two
// cells are tab8's small-scale rows; the 240-node cell doubles the files
// and their size. The values were recorded at the parent of the commit
// that coalesced each rack's same-instant rate events into one settle,
// under per-event re-solving. Windows are pinned per shard count; one
// shard runs as one window. The 100-node fleet has 5
// racks, too few for 7 shards (windows 0).
func TestFleetDFSIOWritePins(t *testing.T) {
	for _, c := range []struct {
		nodes, files    int
		size            int64
		want            uint64
		events, elapsed int64
		windows         [3]int64
	}{
		{100, 4, 1 << 20, 0x692ad8c9f13457c0, 3400, 4668962, [3]int64{1, 337, 0}},
		{400, 4, 1 << 20, 0x8e12b3395dcf14b0, 13600, 5032356, [3]int64{1, 747, 807}},
		{240, 8, 2 << 20, 0xbb91a4646b6e9acb, 15840, 18759925, [3]int64{1, 2073, 2554}},
	} {
		for si, shards := range []int{1, 2, 7} {
			if c.windows[si] == 0 {
				continue
			}
			fb, err := NewFleet(Options{Nodes: c.nodes, RacksOf: 20, Seed: 1, SimShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			r := fb.DFSIOWrite(c.files, c.size)
			if r.Fingerprint != c.want || r.Events != c.events || int64(r.Elapsed) != c.elapsed || r.Windows != c.windows[si] {
				t.Errorf("nodes=%d shards=%d: fingerprint %016x events %d elapsed %d windows %d, want %016x %d %d %d",
					c.nodes, shards, r.Fingerprint, r.Events, int64(r.Elapsed), r.Windows,
					c.want, c.events, c.elapsed, c.windows[si])
			}
		}
	}
}

func TestFleetOptionsValidation(t *testing.T) {
	if _, err := NewFleet(Options{Nodes: 100, RacksOf: 16}); err == nil {
		t.Error("non-divisible Nodes/RacksOf accepted")
	}
	fb, err := NewFleet(Options{Nodes: 4, RacksOf: 16, SimShards: 1})
	if err != nil {
		t.Fatalf("small fleet (one partial rack clamped): %v", err)
	}
	if fb.fleet.Nodes() != 4 {
		t.Errorf("nodes = %d, want 4", fb.fleet.Nodes())
	}
	if _, err := NewFleet(Options{Nodes: 40, RacksOf: 10, SimShards: 9}); err == nil {
		t.Error("shards > racks accepted")
	}
}
