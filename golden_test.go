package hbb

import (
	"fmt"
	"testing"
	"time"
)

// goldenRun is the deterministic fingerprint of one backend's short DFSIO
// write+read pass: simulated durations, byte totals, and (for burst-buffer
// backends) the activity counters. Any change to the simulation that shifts
// a scheme's behaviour shows up here as a diff against the recorded seed
// values, so policy-layer refactors cannot silently change results.
type goldenRun struct {
	writeNS  int64
	readNS   int64
	bytes    int64
	stats    string // %+v of core.Stats, "" for non-buffer backends
	totalNS  int64  // full virtual time of the run, flush drain included
	localUse int64  // compute-node-local bytes after drain
	modes    string // bb-adaptive's write-through/async block split, else ""
}

// goldenFingerprint runs the canonical short workload for one backend.
func goldenFingerprint(t *testing.T, b Backend) goldenRun {
	t.Helper()
	return goldenFingerprintOpts(t, b, Options{Nodes: 4, Seed: 42})
}

// goldenFingerprintOpts is goldenFingerprint with an explicit testbed
// configuration, for goldens that pin non-default data-plane knobs.
func goldenFingerprintOpts(t *testing.T, b Backend, opts Options) goldenRun {
	t.Helper()
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	const files = 8
	const fileSize = 64 << 20
	var g goldenRun
	total := tb.Run(func(ctx *Ctx) {
		w, err := ctx.DFSIOWrite(b, "/golden", files, fileSize)
		if err != nil {
			t.Fatalf("%v write: %v", b, err)
		}
		g.writeNS = int64(w.Duration)
		r, err := ctx.DFSIORead(b, "/golden")
		if err != nil {
			t.Fatalf("%v read: %v", b, err)
		}
		g.readNS = int64(r.Duration)
		g.bytes = r.BytesInput
		ctx.DrainBurstBuffer(b)
		g.localUse = tb.LocalStorageUsed()
	})
	g.totalNS = int64(total)
	if st, ok := tb.BurstBufferStats(b); ok {
		g.stats = fmt.Sprintf("w=%d r=%d f=%d rb=%d rl=%d rlu=%d ev=%d st=%d",
			st.BytesWritten, st.BytesRead, st.BytesFlushed,
			st.ReadsBuffer, st.ReadsLocal, st.ReadsLustre,
			st.Evictions, st.WriterStalls)
	}
	if b == BackendBBAdaptive {
		m, _ := tb.BurstBufferMetrics(b)
		g.modes = fmt.Sprintf("wt=%d async=%d",
			m.Counter("adaptive.blocks.writethrough").Value(), m.Counter("adaptive.blocks.async").Value())
	}
	return g
}

// seedGoldens are the recorded fingerprints of the five seed backends and
// the traffic-detecting bb-adaptive on the one bulk data path there is:
// payload rides netsim flows (HDFS
// pipeline hops and read streams, Lustre stripe RPCs, burst-buffer RDMA
// chunk moves, local-replica reads), devices and the ingest pipe take one
// flat reservation per segment, control messages stay RPCs whose
// envelopes cross each NIC at the share its flows leave them. The values
// were recorded from the last commit that still had netsim's packet
// pipes, with envelopes priced against the flows there — not from the
// change that deleted the pipes. Regenerate with
// `go test -run TestGoldenDeterminism -v` and copy the logged actual
// values ONLY when a simulation-behaviour change is intentional; a
// refactor must leave every value untouched.
var seedGoldens = map[string]goldenRun{
	"hdfs":   {writeNS: 523210763, readNS: 137415644, bytes: 536870912, stats: "", totalNS: 660788961, localUse: 1610612736},
	"lustre": {writeNS: 148280074, readNS: 151411188, bytes: 536870912, stats: "", totalNS: 300200738, localUse: 0},
	"bb-async": {writeNS: 136735536, readNS: 42673853, bytes: 536870912,
		stats: "w=536870912 r=536870912 f=536870912 rb=8 rl=0 rlu=0 ev=0 st=0", totalNS: 232634357, localUse: 0},
	"bb-locality": {writeNS: 137668602, readNS: 27407935, bytes: 536870912,
		stats: "w=536870912 r=536870912 f=536870912 rb=0 rl=8 rlu=0 ev=0 st=0", totalNS: 228538766, localUse: 536870912},
	"bb-sync": {writeNS: 157320897, readNS: 34813083, bytes: 536870912,
		stats: "w=536870912 r=536870912 f=536870912 rb=8 rl=0 rlu=0 ev=0 st=0", totalNS: 192173436, localUse: 0},
	// Recorded before the scheme layer became one per-block plan: the
	// eight blocks split 3 write-through / 5 async, so both modes and the
	// detector's hysteresis run.
	"bb-adaptive": {writeNS: 174098097, readNS: 34813083, bytes: 536870912,
		stats: "w=536870912 r=536870912 f=536870912 rb=8 rl=0 rlu=0 ev=0 st=0", totalNS: 208950636, localUse: 0,
		modes: "wt=3 async=5"},
}

func TestGoldenDeterminism(t *testing.T) {
	for _, b := range AllBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			got := goldenFingerprint(t, b)
			want, ok := seedGoldens[b.String()]
			t.Logf("actual: {writeNS: %d, readNS: %d, bytes: %d, stats: %q, totalNS: %d, localUse: %d, modes: %q}",
				got.writeNS, got.readNS, got.bytes, got.stats, got.totalNS, got.localUse, got.modes)
			if !ok {
				t.Fatalf("no golden recorded for %v", b)
			}
			if got != want {
				t.Errorf("fingerprint drifted from seed:\n got: %+v\nwant: %+v", got, want)
			}
			_ = time.Duration(got.writeNS)
		})
	}
}

// coalescedGolden pins the stage-out data plane's fingerprint at run cap
// 8: bb-async with 16 MiB blocks (so each 64 MiB golden file spans 4
// blocks), FlushBatchBlocks=8 and one block of readahead. It guards
// multi-block runs the same way seedGoldens guards runs of one, and was
// recorded the same way — regenerate only for an intentional behaviour
// change.
var coalescedGolden = goldenRun{writeNS: 124731964, readNS: 31649750, bytes: 536870912,
	stats: "w=536870912 r=536870912 f=536870912 rb=32 rl=0 rlu=0 ev=0 st=0", totalNS: 166699845, localUse: 0}

func TestGoldenCoalescing(t *testing.T) {
	got := goldenFingerprintOpts(t, BackendBBAsync, Options{
		Nodes: 4, Seed: 42, BlockSize: 16 << 20,
		BBFlushBatchBlocks: 8, BBReadAhead: 1,
	})
	t.Logf("actual: {writeNS: %d, readNS: %d, bytes: %d, stats: %q, totalNS: %d, localUse: %d}",
		got.writeNS, got.readNS, got.bytes, got.stats, got.totalNS, got.localUse)
	if got != coalescedGolden {
		t.Errorf("fingerprint drifted:\n got: %+v\nwant: %+v", got, coalescedGolden)
	}
}
