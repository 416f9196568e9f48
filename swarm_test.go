package hbb

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"hbb/internal/metrics"
	"hbb/internal/swarm"
)

func swarmOpts(shards int) Options {
	return Options{
		Nodes:     240,
		RacksOf:   20,
		FleetMode: true,
		SimShards: shards,
		Seed:      3,
		Swarm: SwarmOptions{
			Clients:   20000,
			TargetQPS: 1.5e6,
			Zipf:      1.1,
			Duration:  10 * time.Millisecond,
		},
	}
}

// TestSwarmCrossShardStress is the swarm's determinism obligation: the
// open-loop population must produce the identical trace fingerprint,
// request count, and virtual elapsed time at every shard count and
// GOMAXPROCS. The name rides `make stress`, so this also runs under -race.
func TestSwarmCrossShardStress(t *testing.T) {
	run := func(shards, procs int) (res SwarmResult) {
		fb, err := NewFleet(swarmOpts(shards))
		if err != nil {
			t.Fatal(err)
		}
		withProcs(procs, func() { res, err = fb.RunSwarm() })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1, 1)
	if base.Requests == 0 || base.Completed != base.Requests {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	for _, tc := range []struct{ shards, procs int }{{4, 1}, {4, 8}, {6, 8}} {
		got := run(tc.shards, tc.procs)
		if got.Fingerprint != base.Fingerprint || got.Requests != base.Requests ||
			got.Elapsed != base.Elapsed || got.Completed != base.Completed {
			t.Errorf("shards=%d GOMAXPROCS=%d: (fp %x, req %d, elapsed %v), want (fp %x, req %d, elapsed %v)",
				tc.shards, tc.procs,
				got.Fingerprint, got.Requests, got.Elapsed,
				base.Fingerprint, base.Requests, base.Elapsed)
		}
	}
}

func TestSwarmAchievesTargetQPS(t *testing.T) {
	fb, err := NewFleet(swarmOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fb.RunSwarm()
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.AchievedQPS / 1.5e6
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("achieved %.0f QPS for target 1.5M (ratio %.3f)", res.AchievedQPS, ratio)
	}
	// Batched injection is the point: far fewer kernel events than
	// requests, where per-client processes would cost tens of events each.
	if res.EventsPerRequest >= 2 {
		t.Errorf("events/request %.2f, want < 2 (batching defeated)", res.EventsPerRequest)
	}
	if m := fb.Metrics(); m.Counter("swarm.arrivals").Value() != res.Requests {
		t.Errorf("registry swarm.arrivals %d, want %d", m.Counter("swarm.arrivals").Value(), res.Requests)
	}
}

// TestSwarmHeapPerClientIsBytes: SwarmResult.HeapBPerClient is the heap
// the fleet and its swarm retain, in bytes per client. It must match,
// within 1%, a byte count taken directly around an identical fleet and
// swarm built and run by hand and kept alive. A first run warms the
// process's one-time allocations so neither side counts them.
func TestSwarmHeapPerClientIsBytes(t *testing.T) {
	opts := swarmOpts(1)
	var res SwarmResult
	for range 2 {
		fb, err := NewFleet(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = fb.RunSwarm(); err != nil {
			t.Fatal(err)
		}
	}
	before := metrics.SnapHeap()
	fb, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := swarm.New(opts.Swarm.config(opts.Seed), fb.fleet)
	if err != nil {
		t.Fatal(err)
	}
	sw.Start()
	fb.fleet.Group().Run()
	direct := float64(metrics.SnapHeap().DeltaBytes(before)) / float64(res.Clients)
	runtime.KeepAlive(sw)
	runtime.KeepAlive(fb)
	if math.Abs(res.HeapBPerClient-direct) > 0.01*direct {
		t.Errorf("HeapBPerClient %.3f B, heap measured directly %.3f B per client", res.HeapBPerClient, direct)
	}
}

// TestSwarmOptionsValidation pins clear, early errors for every bad
// swarm/shard knob combination instead of silent misbehavior.
func TestSwarmOptionsValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{
			name: "shards exceed racks",
			opts: func() Options { o := swarmOpts(13); return o }(), // 12 racks
			want: "shards exceed",
		},
		{
			name: "zero target qps",
			opts: func() Options { o := swarmOpts(1); o.Swarm.TargetQPS = 0; return o }(),
			want: "TargetQPS",
		},
		{
			name: "negative target qps",
			opts: func() Options { o := swarmOpts(1); o.Swarm.TargetQPS = -4; return o }(),
			want: "TargetQPS",
		},
		{
			name: "zipf skew too small",
			opts: func() Options { o := swarmOpts(1); o.Swarm.Zipf = 0.9; return o }(),
			want: "Zipf",
		},
		{
			name: "negative clients",
			opts: func() Options { o := swarmOpts(1); o.Swarm.Clients = -1; return o }(),
			want: "Clients",
		},
		{
			name: "negative max inflight",
			opts: func() Options { o := swarmOpts(1); o.Swarm.MaxInflight = -1; return o }(),
			want: "MaxInflight",
		},
	} {
		_, err := NewFleet(tc.opts)
		if err == nil {
			t.Errorf("%s: NewFleet accepted bad options", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Swarm options on the regular (non-fleet) testbed are a hard error.
	if _, err := New(Options{Nodes: 8, Swarm: SwarmOptions{Clients: 100, TargetQPS: 1000}}); err == nil ||
		!strings.Contains(err.Error(), "FleetMode") {
		t.Errorf("New with swarm options: err %v, want FleetMode requirement", err)
	}
	// RunSwarm without swarm options configured is a hard error too.
	fb, err := NewFleet(Options{Nodes: 40, RacksOf: 10, FleetMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.RunSwarm(); err == nil {
		t.Error("RunSwarm without Options.Swarm accepted")
	}
}

// TestSwarmFingerprintPins holds the swarm's trace fixed across commits;
// the benchmark's fingerprint checks only compare runs of one commit. The
// fingerprints were recorded at 68e4e68, the last commit whose rack
// generators popped arrivals from a time-ordered heap, and must not be
// re-recorded for a change that claims to keep behaviour. The fingerprint
// folds offered load and the end time only, so each cell also pins what
// completions drive: kernel events, cross-shard messages, completed
// requests, the peak in-flight count, the virtual elapsed time, and the
// synchronization windows at each shard count. The counts other than
// windows were recorded at the parent of the commit that coalesced each
// rack's same-instant rate events into one settle, under per-event
// re-solving. Windows are pinned per shard count; a send to the sender's
// own shard does not end its window, so one shard runs as one window.
// Every cell runs on the 240-node fleet (12 racks) at
// zipf 1.1 over a 10 ms horizon, at one, two, four and seven shards.
func TestSwarmFingerprintPins(t *testing.T) {
	type cell struct {
		name        string
		clients     int
		qps         float64
		reqBytes    int64
		maxInflight int64
		seed        int64
		want        uint64
		shedPct     float64
		// Exact counts: events, messages, completed, peak in-flight,
		// elapsed ns, and windows at 1, 2, 4 and 7 shards.
		events, messages, completed, peak, elapsed int64
		windows                                    [4]int64
	}
	cells := []cell{
		// tab9's ScaleSmall cells: two scaling populations, then 1x/4x/20x
		// overload under an admission cap.
		{"tab9/1k", 1000, 1e5, 256, 0, 1, 0x6a246ff740a12698, 0,
			2330, 1060, 1056, 19, 10011004, [4]int64{1, 30, 30, 30}},
		{"tab9/10k", 10000, 1e6, 256, 0, 1, 0x40dcd46dc69cd260, 0,
			7051, 3302, 10081, 83, 10762172, [4]int64{1, 51, 51, 51}},
		{"tab9/1x", 10000, 1e6, 40000, 500, 1, 0xd4ff98b59fb14834, 0,
			7051, 3302, 10081, 165, 11088800, [4]int64{1, 609, 732, 763}},
		{"tab9/4x", 10000, 1e6, 160000, 500, 1, 0xbd9421206cb94de2, 0,
			7051, 3302, 10081, 405, 39061002, [4]int64{1, 1116, 1388, 1452}},
		{"tab9/20x", 10000, 1e6, 800000, 500, 1, 0x93adfee01c279b15, 20.2,
			5323, 2476, 8049, 531, 180741003, [4]int64{1, 1530, 2067, 2203}},
		// The benchmark's fleet_overload workload.
		{"overload/seed1", 20000, 1e7, 96 << 10, 0, 1, 0x2cac317a096d068d, 0,
			70178, 32898, 101026, 7260, 226784890, [4]int64{1, 7166, 8516, 8832}},
		{"overload/seed2", 20000, 1e7, 96 << 10, 0, 2, 0x7cacf21eeb4b1d69, 0,
			70336, 32954, 100976, 7271, 208840085, [4]int64{1, 7195, 8592, 8917}},
	}
	if !testing.Short() {
		// The benchmark's fleet_swarm workload: 10^6 clients.
		cells = append(cells,
			cell{"swarm/seed1", 1000000, 1e8, 256, 0, 1, 0xf0ae5f774f1dfbdf, 0,
				699351, 327768, 999450, 210, 10017596, [4]int64{1, 1956, 1956, 1956}},
			cell{"swarm/seed2", 1000000, 1e8, 256, 0, 2, 0x6e235a8b81087754, 0,
				699538, 327784, 1000883, 195, 10017595, [4]int64{1, 1956, 1956, 1956}})
	}
	for _, c := range cells {
		for si, shards := range []int{1, 2, 4, 7} {
			fb, err := NewFleet(Options{Nodes: 240, RacksOf: 20, FleetMode: true,
				Seed: c.seed, SimShards: shards,
				Swarm: SwarmOptions{Clients: c.clients, TargetQPS: c.qps, Zipf: 1.1,
					RequestBytes: c.reqBytes, Duration: 10 * time.Millisecond, MaxInflight: c.maxInflight}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := fb.RunSwarm()
			if err != nil {
				t.Fatal(err)
			}
			if res.Fingerprint != c.want {
				t.Errorf("%s shards=%d: fingerprint %016x, want %016x", c.name, shards, res.Fingerprint, c.want)
			}
			if got := 100 * float64(res.Shed) / float64(res.Requests); math.Abs(got-c.shedPct) > 0.05 {
				t.Errorf("%s shards=%d: shed %.1f%%, want %.1f%%", c.name, shards, got, c.shedPct)
			}
			got := [6]int64{res.Events, res.Messages, res.Completed, res.MaxInflight, int64(res.Elapsed), res.Windows}
			want := [6]int64{c.events, c.messages, c.completed, c.peak, c.elapsed, c.windows[si]}
			if got != want {
				t.Errorf("%s shards=%d: events/messages/completed/peak/elapsed/windows = %v, want %v",
					c.name, shards, got, want)
			}
		}
	}
}
