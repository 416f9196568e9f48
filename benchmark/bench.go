package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// metricDef is one row of BENCHMARK.json; Bound is zero for a per-layer
// metric. TestManifestMatches holds the file to these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics every workload reports from its untraced pass.
// The driver wants each of them on each workload, never zero, so they are
// the three that mean the same thing in the simulator and on sockets; what
// only some workloads have (latency percentiles, MB/s, heap per client) is
// in perLayer under the names ISSUE 11 gave it.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", higher, 0.25},
	{"rss_peak_mb", "MB", lower, 0.15},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the metrics of the traced pass. A workload reports 0 for a
// layer that does no work on its path.
var perLayer = []metricDef{
	// host, every workload, over the untraced half of the traced run
	{"host.cpu_s", "s", lower, 0},
	{"host.cpu_us_per_op", "us", lower, 0},
	{"host.allocs_per_op", "count", lower, 0},
	{"host.alloc_bytes_per_op", "B", lower, 0},
	{"host.gc_cycles", "count", lower, 0},
	{"trace_overhead_frac", "frac", lower, 0},

	// what a user of one workload sees, untraced
	{"suite_wall_s", "s", lower, 0},
	{"sim_req_per_wall_s", "1/s", higher, 0},
	{"heap_bytes_per_client", "B", lower, 0},
	{"get_p50_us", "us", lower, 0},
	{"set_p50_us", "us", lower, 0},
	{"get_p99_us", "us", lower, 0},
	{"set_p99_us", "us", lower, 0},
	{"write_mb_per_s", "MB/s", higher, 0},
	{"read_mb_per_s", "MB/s", higher, 0},
	{"fail_frac", "frac", lower, 0},

	// root hbb experiments: median wall per Experiment.Run
	{"span.fig2_ms", "ms", lower, 0},
	{"span.fig3_ms", "ms", lower, 0},
	{"span.fig4_ms", "ms", lower, 0},
	{"span.fig5_ms", "ms", lower, 0},
	{"span.fig8_ms", "ms", lower, 0},
	{"span.fig9_ms", "ms", lower, 0},
	{"span.tab6_ms", "ms", lower, 0},
	{"span.tab7_ms", "ms", lower, 0},

	// hdfs, lustre, core under mapreduce/workloads: one backend at a time
	{"span.write.hdfs_ms", "ms", lower, 0},
	{"span.write.lustre_ms", "ms", lower, 0},
	{"span.write.bb-async_ms", "ms", lower, 0},
	{"span.read.hdfs_ms", "ms", lower, 0},
	{"span.read.lustre_ms", "ms", lower, 0},
	{"span.read.bb-async_ms", "ms", lower, 0},
	{"span.sort.hdfs_ms", "ms", lower, 0},
	{"span.sort.lustre_ms", "ms", lower, 0},
	{"span.sort.bb-async_ms", "ms", lower, 0},

	// sim and netsim probes
	{"probe.sim.sleep_ns", "ns", lower, 0},
	{"probe.sim.spawn_ns", "ns", lower, 0},
	{"probe.sim.timer_ns", "ns", lower, 0},
	{"probe.netsim.rpc_ns", "ns", lower, 0},
	{"probe.netsim.flow_ns", "ns", lower, 0},

	// fleet kernel, solver, swarm: exact counts
	{"fleet.events_per_req", "count", lower, 0},
	{"fleet.windows", "count", lower, 0},
	{"fleet.messages", "count", lower, 0},
	{"fleet.resolves", "count", lower, 0},
	{"fleet.links_per_resolve", "count", lower, 0},
	{"fleet.flows", "count", lower, 0},
	{"fleet.shed_frac", "frac", lower, 0},
	{"fleet.max_inflight", "count", lower, 0},
	{"fleet.virtual_s", "s", lower, 0},
	{"span.fleet.new_ms", "ms", lower, 0},
	{"span.fleet.run_ms", "ms", lower, 0},

	// the modelled design, in simulated time: exact, and a change meant
	// only to speed up the simulator leaves them identical
	{"model.write_mbps.bb-async", "MB/s", higher, 0},
	{"model.write_gain_vs_hdfs", "x", higher, 0},
	{"model.write_gain_vs_lustre", "x", higher, 0},
	{"model.read_gain_vs_lustre", "x", higher, 0},
	{"model.sort_cut_vs_hdfs", "frac", higher, 0},
	{"model.sort_cut_vs_lustre", "frac", higher, 0},
	{"model.mix_cut_vs_hdfs", "frac", higher, 0},

	// memcached, binproto, hashring, sketch: the workload's own stream
	// replayed against each boundary
	{"layer.engine_ns", "ns", lower, 0},
	{"layer.codec_ns", "ns", lower, 0},
	{"layer.ring_ns", "ns", lower, 0},
	{"layer.sketch_ns", "ns", lower, 0},

	// mcclient + mcserver
	{"layer.client_us", "us", lower, 0},
	{"layer.socket_share", "frac", lower, 0},
	{"server.gets_per_user_get", "count", lower, 0},
	{"server.sets_per_user_set", "count", lower, 0},
	{"server.get_hit_frac", "frac", higher, 0},
	{"server.evictions", "count", lower, 0},
	{"server.load_imbalance", "x", lower, 0},
	{"server.conns_accepted", "count", lower, 0},

	// mccluster
	{"layer.cluster_us", "us", lower, 0},
	{"cluster.fc_hit_frac", "frac", higher, 0},
	{"cluster.fc_hit_per_lookup", "frac", higher, 0},
	{"cluster.fc_evictions", "count", lower, 0},
	{"cluster.fc_invalidations", "count", lower, 0},
	{"cluster.hot_get_frac", "frac", higher, 0},
	{"cluster.spread_read_frac", "frac", higher, 0},
	{"cluster.failovers", "count", lower, 0},
	{"cluster.repairs", "count", lower, 0},
	{"cluster.replica_errors", "count", lower, 0},
	{"cluster.shed_frac", "frac", lower, 0},
	{"lat.get_p999_us", "us", lower, 0},
	{"lat.set_p999_us", "us", lower, 0},
	{"lat.window_spread", "frac", lower, 0},
	{"blk.write_p50_ms", "ms", lower, 0},
	{"blk.read_p50_ms", "ms", lower, 0},
}

// A workload builds instances of itself: one per set-up.
type workload struct {
	name, why string
	setup     func(sz *sizes, seed int64) (instance, error)
}

var workloads = []workload{
	{"paper_suite", "The paper's evaluation, closed and single-threaded: sim hand-off, netsim RPC and flows, hdfs, lustre, core, mapreduce and orchestrator do all the work; swarm, fleet and sockets do none.", setupSuite},
	{"fleet_swarm", "The scale headline at 1x offered load: swarm arrival heaps, sim.ShardGroup windows and callback timers dominate; the solver touches few links per rate event (5, against 17 on fleet_overload).", setupFleetSwarm},
	{"fleet_overload", "The same fleet at about 20x what the zipf-hot NICs drain: the counted-bundle max-min solver does most of the work, so a solver change that fleet_swarm hides shows here.", setupFleetOverload},
	{"kv_zipf_read", "Hot keys on real loopback TCP, 95% GET, one caller per core: sketch, front cache (working set 64x larger) and replica spreading answer most GETs without a socket; 5% SETs invalidate and fan out.", setupKVZipf},
	{"kv_uniform_mixed", "Uniform keys, 50% SET, 8 callers (more than cores): the front cache is bypassed, every op pays ring, mcclient, socket, mcserver and engine, and callers pipeline on the 3 shared connections.", setupKVUniform},
	{"kv_block_stream", "The paper's data path on sockets: 256 KiB chunks in 32-chunk SetMulti/GetMulti blocks, more data than the engines hold: vectored writes, slab classes, eviction and copies dominate.", setupKVBlock},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// An instance is one set-up of a workload, warmed and ready to be timed.
type instance interface {
	// unit runs one timed unit (a suite iteration, a swarm run, a window
	// of key-value ops, a block pass) and returns the work items it
	// completed and the wall time they took. Under a non-nil tracer it
	// records a span per call into the system, caused by parent.
	unit(tr *tracer, parent int32) (ops int64, wall time.Duration, err error)
	// report adds the workload's own metrics and identity fields, over the
	// units run so far.
	report(m map[string]float64, ids map[string]string)
	// finish runs the output checks that need the whole run. It returns
	// the operations attempted and failed, the checks it ran, and the
	// first check that did not hold; a failed operation (error, shed,
	// not-found on a stored key, wrong value) is one, since no fault is
	// injected.
	finish() (attempted, failed int64, checks []string, err error)
	// layers measures the layers one at a time, after the timed units.
	layers(tr *tracer, m map[string]float64) error
	close()
}

// result is what one run of one workload found.
type result struct {
	Workload    string
	Seed        int64
	Correct     bool
	Attempted   int64
	Failed      int64
	EndToEnd    map[string]float64
	Own         map[string]float64 // the workload's own metrics over the untraced phase, under their per-layer names
	PerLayer    map[string]float64 // every per-layer metric; nil after an untraced run
	IDs         map[string]string  // identity fields: equal or not, never better or worse
	Checks      []string
	UnitOpsPerS []float64 // the untraced phase, one value per timed unit
	TracePath   string
}

// phase is a stretch of timed units with what the process used over it.
type phase struct {
	opsPerS []float64
	ops     int64
	wall    time.Duration
	host    hostSnap // what the process used between both ends
}

func runPhase(inst instance, tr *tracer, name string, seconds float64, minUnits int) (phase, error) {
	var ph phase
	root := tr.begin(name, -1)
	before := snapHost()
	start := time.Now()
	for len(ph.opsPerS) < minUnits || time.Since(start).Seconds() < seconds {
		id := tr.begin("unit", root)
		ops, wall, err := inst.unit(tr, id)
		tr.end(id)
		if err != nil {
			return ph, err
		}
		ph.opsPerS = append(ph.opsPerS, float64(ops)/wall.Seconds())
		ph.ops += ops
		ph.wall += wall
	}
	ph.host = snapHost().since(before)
	tr.end(root)
	return ph, nil
}

// runWorkload sets the workload up, times it for about seconds, checks its
// outputs and returns the metrics. Untraced, it sets up sz.setups times or
// more and reports the median set-up time; traced, it sets up once, splits
// the time between an untraced and a traced phase, and then measures the
// layers.
func runWorkload(w workload, sz *sizes, seed int64, seconds float64, traced bool) (*result, error) {
	setups, budget := sz.setups, sz.setupBudget.Seconds()
	if traced {
		setups, budget = 1, 0
	}
	var inst instance
	var setupS []float64
	var spent float64
	for i := 0; i < setups || (i < 3*setups && spent < budget); i++ {
		if inst != nil {
			inst.close()
			runtime.GC() // the next set-up reuses this one's memory instead of adding to the peak
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(sz, seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		spent += setupS[i]
	}
	defer inst.close()

	res := &result{Workload: w.name, Seed: seed, IDs: make(map[string]string)}
	minUnits := sz.minUnits
	if traced {
		seconds /= 2
		minUnits = (minUnits + 1) / 2
	}
	ph, err := runPhase(inst, nil, "untraced", seconds, minUnits)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.UnitOpsPerS = ph.opsPerS
	res.EndToEnd = map[string]float64{
		"ops_per_s":   median(ph.opsPerS),
		"rss_peak_mb": rss,
		"setup_s":     median(setupS),
	}
	res.Own = make(map[string]float64)
	inst.report(res.Own, res.IDs)

	var tr *tracer
	if traced {
		tr = newTracer()
		tph, err := runPhase(inst, tr, "traced", seconds, minUnits)
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", w.name, err)
		}
		res.PerLayer = make(map[string]float64, len(perLayer))
		for _, d := range perLayer {
			res.PerLayer[d.Name] = 0
		}
		for k, v := range res.Own {
			res.PerLayer[k] = v
		}
		res.PerLayer["host.cpu_s"] = ph.host.cpuS
		res.PerLayer["host.cpu_us_per_op"] = ph.host.cpuS / float64(ph.ops) * 1e6
		res.PerLayer["host.allocs_per_op"] = float64(ph.host.mallocs) / float64(ph.ops)
		res.PerLayer["host.alloc_bytes_per_op"] = float64(ph.host.bytes) / float64(ph.ops)
		res.PerLayer["host.gc_cycles"] = float64(ph.host.gcs)
		res.PerLayer["trace_overhead_frac"] = 1 - median(tph.opsPerS)/median(ph.opsPerS)
	}

	var checkErr error
	res.Attempted, res.Failed, res.Checks, checkErr = inst.finish()
	if checkErr == nil {
		for name, v := range res.EndToEnd {
			if !(v > 0) {
				checkErr = fmt.Errorf("end-to-end metric %s = %v, want > 0", name, v)
			}
		}
	}
	if traced && checkErr == nil {
		if err := inst.layers(tr, res.PerLayer); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", w.name, err)
		}
		if res.TracePath, err = tr.write(sz.outDir, w.name, seed); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
	}
	res.Correct = checkErr == nil
	if checkErr != nil {
		res.Checks = append(res.Checks, "FAILED: "+checkErr.Error())
	}
	return res, nil
}

// medianMS returns the median of nanosecond durations in milliseconds.
func medianMS(ns []float64) float64 { return median(ns) / 1e6 }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
