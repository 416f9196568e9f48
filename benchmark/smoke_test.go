package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every code path of every workload in well under a second
// each (paper_suite, whose experiments have one size, in about two).
func tinySizes(t *testing.T) *sizes {
	// Port 0: the tests may run beside a benchmark that holds the fixed
	// addresses, and do not care where the ring puts a key.
	any := "127.0.0.1:0"
	return &sizes{
		setups: 1, minUnits: 1, outDir: t.TempDir(),
		suiteWarm:  0,
		fleetNodes: 40, fleetRacksOf: 20, fleetShards: 2,
		swarmClients: 2000, overloadClients: 200,
		swarmQPS: 1e6, overloadQPS: 2e5,
		fleetWarm: 0,

		kvAddrs: []string{any, any, any}, kvProbeAddr: any,
		kvKeys: 1 << 12, kvValueBytes: 64, kvMemLimit: 16 << 20,
		zipfCallers: 2, zipfWindowOps: 2000, zipfWarmOps: 2000,
		unifCallers: 8, unifWindowOps: 2000, unifWarmOps: 2000,
		kvStreamOps: 1 << 12, replayOps: 2000, replaySockOps: 400,
		frontCacheWait: 200 * time.Millisecond,

		blkMemLimit: 8 << 20, blkCallers: 2, blkBlocks: 1, blkChunks: 4,
		blkChunkBytes: 64 << 10, blkWarmPasses: 1,

		probeDiv: 100,
	}
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatches holds BENCHMARK.json to what the program declares:
// the driver reads the file, the program emits from its tables, and a
// metric in one but not the other fails a run only after it was made.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %v, want %v", m.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %v, want %v", m.Paths, want)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters, the contract allows one line of 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table:\n%+v\nwant\n%+v", m.PerLayer, perLayer)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeEveryWorkload runs each workload's traced pass at tiny size in
// this process: it has an untraced phase too, so one run yields both metric
// sets. It asserts that the JSON line names exactly the declared per-layer
// metrics, that the end-to-end set is the declared one and never zero, and
// that every output check of the workload ran and held.
func TestSmokeEveryWorkload(t *testing.T) {
	wantChecks := map[string]int{
		"paper_suite": 7, "fleet_swarm": 2, "fleet_overload": 2,
		"kv_zipf_read": 2, "kv_uniform_mixed": 2, "kv_block_stream": 1,
	}
	// What each workload is built to show, at any size: its own layers
	// report and the other world's stay at zero.
	wantNonZero := map[string][]string{
		"paper_suite":      {"suite_wall_s", "span.fig3_ms", "span.sort.lustre_ms", "probe.sim.sleep_ns", "model.write_gain_vs_hdfs", "host.allocs_per_op"},
		"fleet_swarm":      {"sim_req_per_wall_s", "fleet.windows", "span.fleet.run_ms", "probe.netsim.flow_ns"},
		"fleet_overload":   {"sim_req_per_wall_s", "fleet.links_per_resolve", "fleet.resolves"},
		"kv_zipf_read":     {"get_p99_us", "set_p99_us", "layer.engine_ns", "layer.client_us", "layer.cluster_us", "cluster.fc_hit_frac", "server.sets_per_user_set"},
		"kv_uniform_mixed": {"get_p50_us", "set_p50_us", "layer.codec_ns", "layer.ring_ns", "layer.sketch_ns", "server.gets_per_user_get"},
		"kv_block_stream":  {"write_mb_per_s", "read_mb_per_s", "blk.write_p50_ms", "blk.read_p50_ms", "layer.socket_share", "server.load_imbalance"},
	}
	wantZero := map[string][]string{
		"paper_suite":      {"layer.engine_ns", "fleet.windows", "get_p99_us"},
		"fleet_swarm":      {"suite_wall_s", "span.fig2_ms", "layer.client_us"},
		"fleet_overload":   {"model.write_gain_vs_hdfs", "cluster.fc_hit_frac"},
		"kv_zipf_read":     {"probe.sim.sleep_ns", "suite_wall_s", "write_mb_per_s", "fail_frac", "cluster.failovers", "cluster.replica_errors", "cluster.shed_frac"},
		"kv_uniform_mixed": {"fleet.resolves", "blk.read_p50_ms", "fail_frac", "cluster.repairs"},
		"kv_block_stream":  {"get_p50_us", "span.fleet.new_ms", "fail_frac"},
	}
	m := readManifest(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w, tinySizes(t), 2, 0.05, true)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := emit(&out, res); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			text := strings.TrimRight(out.String(), "\n")
			last := []byte(text[strings.LastIndexByte(text, '\n')+1:])
			var line map[string]json.RawMessage
			if err := json.Unmarshal(last, &line); err != nil {
				t.Fatalf("last line is not a JSON object: %v\n%s", err, text)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("JSON line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(line))
			}
			var got jsonLine
			if err := json.Unmarshal(last, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(m.PerLayer) {
				t.Errorf("%d metrics in the JSON line, %d per_layer metrics declared", len(got.Metrics), len(m.PerLayer))
			}
			for _, d := range m.PerLayer {
				if v, ok := got.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("per-layer metric %s: emitted %v as %+v, want unit %s", d.Name, ok, v, d.Unit)
				}
				delete(res.PerLayer, d.Name)
			}
			if len(res.PerLayer) > 0 {
				t.Errorf("the workload filled metrics that are not declared, so the JSON line drops them: %v", sortedKeys(res.PerLayer))
			}
			for _, name := range wantNonZero[w.name] {
				if got.Metrics[name].Value == 0 {
					t.Errorf("%s = 0, but %s runs that layer", name, w.name)
				}
			}
			for _, name := range wantZero[w.name] {
				if v := got.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v, want 0 on %s", name, v, w.name)
				}
			}
			if n := strings.Count(text, "\n  check: "); n != wantChecks[w.name] || strings.Contains(text, "FAILED") {
				t.Errorf("%d output checks ran, want %d, none failed:\n%s", n, wantChecks[w.name], text)
			}

			// The same run's untraced phase, emitted as the untraced pass is.
			untraced := *res
			untraced.PerLayer = nil
			out.Reset()
			if err := emit(&out, &untraced); err != nil {
				t.Fatal(err)
			}
			text = strings.TrimRight(out.String(), "\n")
			got = jsonLine{}
			if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Metrics) != len(m.EndToEnd) {
				t.Errorf("%d metrics in the untraced JSON line, %d end_to_end metrics declared", len(got.Metrics), len(m.EndToEnd))
			}
			for _, d := range m.EndToEnd {
				if v, ok := got.Metrics[d.Name]; !ok || v.Unit != d.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s: emitted %v as %+v, want unit %s and a value above 0", d.Name, ok, v, d.Unit)
				}
			}
		})
	}
}
