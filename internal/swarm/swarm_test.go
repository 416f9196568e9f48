package swarm

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hbb/internal/metrics"
	"hbb/internal/netsim"
)

func testFleet(t testing.TB, racks, per, shards int) *netsim.Fleet {
	t.Helper()
	fl, err := netsim.NewFleet(netsim.FleetTopology{
		Racks:            racks,
		NodesPerRack:     per,
		Profile:          netsim.RDMA,
		CrossRackLatency: 5 * time.Microsecond,
		UplinkBandwidth:  4 * netsim.RDMA.Bandwidth,
		Shards:           shards,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func TestConfigValidate(t *testing.T) {
	valid := Config{Clients: 10, TargetQPS: 1000}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero clients", func(c *Config) { c.Clients = 0 }, "Clients"},
		{"negative clients", func(c *Config) { c.Clients = -5 }, "Clients"},
		{"zero qps", func(c *Config) { c.TargetQPS = 0 }, "TargetQPS"},
		{"negative qps", func(c *Config) { c.TargetQPS = -1 }, "TargetQPS"},
		{"zipf at 1", func(c *Config) { c.Zipf = 1 }, "Zipf"},
		{"zipf below 1", func(c *Config) { c.Zipf = 0.4 }, "Zipf"},
		{"negative request bytes", func(c *Config) { c.RequestBytes = -1 }, "RequestBytes"},
		{"negative duration", func(c *Config) { c.Duration = -time.Second }, "Duration"},
		{"negative max inflight", func(c *Config) { c.MaxInflight = -1 }, "MaxInflight"},
		// A 100 ns mean gap over an hour: 3.6e10 draws per client.
		{"draw count overflow", func(c *Config) { c.TargetQPS, c.Duration = 1e8, time.Hour }, "Duration"},
		// Gaps are at least 1 ns, but 5e9 of them still overflow.
		{"sub-nanosecond gaps", func(c *Config) { c.TargetQPS, c.Duration = 1e12, 5*time.Second }, "Duration"},
	} {
		cfg := valid
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
	// Zero values with defaults are fine.
	if err := (Config{Clients: 1, TargetQPS: 1, Zipf: 0}).Validate(); err != nil {
		t.Errorf("defaulted config rejected: %v", err)
	}
}

func runSwarm(t testing.TB, shards int, cfg Config) (*Swarm, Stats) {
	fl := testFleet(t, 6, 4, shards)
	s, err := New(cfg, fl)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	fl.Group().Run()
	return s, s.Stats()
}

func TestSwarmDeterminismAcrossShards(t *testing.T) {
	cfg := Config{Clients: 3000, TargetQPS: 5e5, Zipf: 1.2, Duration: 5 * time.Millisecond, Seed: 7}
	var baseFP uint64
	var base Stats
	for i, shards := range []int{1, 2, 3, 6} {
		s, st := runSwarm(t, shards, cfg)
		if i == 0 {
			baseFP, base = s.Fingerprint(), st
			if st.Arrivals == 0 {
				t.Fatal("swarm generated no arrivals")
			}
			if st.Completed != st.Arrivals {
				t.Fatalf("only %d of %d requests completed", st.Completed, st.Arrivals)
			}
			continue
		}
		if fp := s.Fingerprint(); fp != baseFP {
			t.Errorf("shards=%d fingerprint %x, want %x", shards, fp, baseFP)
		}
		if st != base {
			t.Errorf("shards=%d stats %+v, want %+v", shards, st, base)
		}
	}
}

func TestSwarmMaxInflightSheds(t *testing.T) {
	// Offered load far beyond capacity with an admission cap: the swarm
	// must shed (arrivals = completed + shed, nothing lost), hold peak
	// inflight near the bound, and stay shard-count invariant while
	// shedding. Without the cap the same load queues far past it.
	cfg := Config{Clients: 2000, TargetQPS: 2e6, Zipf: 1.3,
		RequestBytes: 256 << 10, Duration: 5 * time.Millisecond,
		MaxInflight: 200, Seed: 5}
	var baseFP uint64
	var base Stats
	for i, shards := range []int{1, 3, 6} {
		s, st := runSwarm(t, shards, cfg)
		if i == 0 {
			baseFP, base = s.Fingerprint(), st
			if st.Shed == 0 {
				t.Fatal("overloaded capped swarm shed nothing")
			}
			if st.Completed+st.Shed != st.Arrivals {
				t.Errorf("arrivals %d != completed %d + shed %d", st.Arrivals, st.Completed, st.Shed)
			}
			// A tick's batches are admitted while inflight < cap, so the
			// overshoot is bounded by one tick's arrivals per rack.
			if limit := cfg.MaxInflight * 4; st.MaxInflight > limit {
				t.Errorf("peak inflight %d far exceeds cap %d", st.MaxInflight, cfg.MaxInflight)
			}
			continue
		}
		if fp := s.Fingerprint(); fp != baseFP {
			t.Errorf("shards=%d fingerprint %x, want %x", shards, fp, baseFP)
		}
		if st != base {
			t.Errorf("shards=%d stats %+v, want %+v", shards, st, base)
		}
	}
	uncapped := cfg
	uncapped.MaxInflight = 0
	_, st := runSwarm(t, 2, uncapped)
	if st.Shed != 0 {
		t.Errorf("uncapped swarm shed %d requests", st.Shed)
	}
	if st.MaxInflight < 2*base.MaxInflight {
		t.Errorf("uncapped peak inflight %d not well above capped peak %d", st.MaxInflight, base.MaxInflight)
	}
}

func TestSwarmZipfSkewsTraffic(t *testing.T) {
	// With heavy zipf skew, the hottest rack must receive a
	// disproportionate share of the bytes; under uniform keys it cannot.
	hot := func(zipf float64) float64 {
		fl := testFleet(t, 6, 4, 1)
		s, err := New(Config{Clients: 2000, TargetQPS: 5e5, Zipf: zipf,
			Duration: 5 * time.Millisecond, Seed: 11}, fl)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		fl.Group().Run()
		var max, total int64
		for r := 0; r < fl.Racks(); r++ {
			_, recv := fl.RackTraffic(r)
			total += recv
			if recv > max {
				max = recv
			}
		}
		return float64(max) / float64(total)
	}
	uniform, skewed := hot(0), hot(1.5)
	if skewed < 2*uniform {
		t.Errorf("hottest-rack share: zipf=1.5 %.3f vs uniform %.3f; want >= 2x concentration", skewed, uniform)
	}
}

func TestSwarmMetricsAggregateAcrossShards(t *testing.T) {
	cfg := Config{Clients: 3000, TargetQPS: 5e5, Zipf: 1.2, Duration: 5 * time.Millisecond, Seed: 7}
	var base string
	for i, shards := range []int{1, 3} {
		s, st := runSwarm(t, shards, cfg)
		reg := metrics.NewRegistry()
		s.FillMetrics(reg)
		if got := reg.Counter("swarm.arrivals").Value(); got != st.Arrivals {
			t.Errorf("shards=%d swarm.arrivals=%d, want %d", shards, got, st.Arrivals)
		}
		if got := reg.Counter("swarm.qps.achieved").Value(); got != int64(st.AchievedQPS) {
			t.Errorf("shards=%d swarm.qps.achieved=%d, want %d", shards, got, int64(st.AchievedQPS))
		}
		infl := reg.Histogram("swarm.inflight")
		if infl.Count() == 0 {
			t.Fatalf("shards=%d inflight histogram empty", shards)
		}
		if infl.Max() > float64(st.MaxInflight) {
			t.Errorf("shards=%d inflight max %.0f exceeds stats max %d", shards, infl.Max(), st.MaxInflight)
		}
		// The merged per-rack histograms (and every counter) must be
		// identical however the racks were sharded.
		if i == 0 {
			base = reg.String()
		} else if got := reg.String(); got != base {
			t.Errorf("shards=%d metrics diverge:\n%s\nwant:\n%s", shards, got, base)
		}
	}
}

func TestSwarmTickClamp(t *testing.T) {
	// Very low rates clamp the tick to 1ms; very high rates to 1µs.
	lo := Config{Clients: 1, TargetQPS: 10}
	if got := lo.tick(4); got != int64(time.Millisecond) {
		t.Errorf("low-rate tick %d, want 1ms", got)
	}
	hi := Config{Clients: 1, TargetQPS: 1e12}
	if got := hi.tick(4); got != int64(time.Microsecond) {
		t.Errorf("high-rate tick %d, want 1µs", got)
	}
}

// heapRef is the arrival engine this package shipped before the tick
// calendar, kept as its oracle: a 4-ary heap of client indices ordered by
// (next arrival, client index) that pops arrivals in exact time order. It
// holds its own client records, each a stored splitmix64 state seeded
// with seed·γ + global index + 1, and draws keys into a rackGen's streams
// and scratch, ignoring its window schedule.
type heapRef struct {
	g       *rackGen
	clients []clientRec
	heap    []int32
}

func newHeapRef(s *Swarm, r int) *heapRef {
	g := s.racks[r]
	racks := len(s.racks)
	per, rem := s.cfg.Clients/racks, s.cfg.Clients%racks
	first, n := r*per+min(r, rem), per
	if r < rem {
		n++
	}
	h := &heapRef{g: g, clients: make([]clientRec, n)}
	for i := range h.clients {
		c := &h.clients[i]
		c.state = uint64(s.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(first+i+1)
		c.next = c.expGap(g.gapMean)
		if c.next < s.horizon {
			h.heap = append(h.heap, int32(i))
			h.siftUp(len(h.heap) - 1)
		}
	}
	return h
}

func (h *heapRef) before(a, b int32) bool {
	ca, cb := &h.clients[a], &h.clients[b]
	if ca.next != cb.next {
		return ca.next < cb.next
	}
	return a < b
}

func (h *heapRef) siftUp(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !h.before(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		i = p
	}
	h.heap[i] = v
}

func (h *heapRef) siftDown(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		min, c0 := i, i*4+1
		for c := c0; c < c0+4 && c < n; c++ {
			if min == i {
				if h.before(h.heap[c], v) {
					min = c
				}
			} else if h.before(h.heap[c], h.heap[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h.heap[i] = h.heap[min]
		i = min
	}
	h.heap[i] = v
}

func (h *heapRef) advance(now int64) int64 {
	g := h.g
	topo := g.sw.fl.Topology()
	nodes := uint64(topo.Racks * topo.NodesPerRack)
	per := topo.NodesPerRack
	reqBytes := g.sw.cfg.RequestBytes
	var arrivals int64
	for len(h.heap) > 0 {
		ci := h.heap[0]
		c := &h.clients[ci]
		if c.next > now {
			break
		}
		arrivals++
		var key uint64
		if g.zipf != nil {
			key = g.zipf.Uint64()
		} else {
			key = g.rng.Uint64() % keys
		}
		dstNode := (key * 2654435761) % nodes
		dRack := int32(dstNode) / int32(per)
		if g.bytes[dRack] == 0 {
			g.touched = append(g.touched, dRack)
			g.slot[dRack] = int32(dstNode) % int32(per)
		}
		g.bytes[dRack] += reqBytes
		g.reqs[dRack]++
		c.next += c.expGap(g.gapMean)
		if c.next >= g.sw.horizon {
			n := len(h.heap) - 1
			h.heap[0] = h.heap[n]
			h.heap = h.heap[:n]
			if n > 0 {
				h.siftDown(0)
			}
		} else {
			h.siftDown(0)
		}
	}
	g.arrivals += arrivals
	return arrivals
}

// tickRec is what one tick left in a rack's scratch between advance and
// flush, and whether the rack re-armed: everything the rest of the system
// can observe of the arrivals.
type tickRec struct {
	now, arrivals int64
	more          bool
	touched       []int32
	bytes, reqs   []int64 // per touched rack, in touched order
	slot          []int32
}

func (r tickRec) equal(o tickRec) bool {
	return r.now == o.now && r.arrivals == o.arrivals && r.more == o.more &&
		slices.Equal(r.touched, o.touched) && slices.Equal(r.bytes, o.bytes) &&
		slices.Equal(r.reqs, o.reqs) && slices.Equal(r.slot, o.slot)
}

// withWindowCap runs fn with New's window cap set to ticks.
func withWindowCap(ticks int64, fn func()) {
	defer func(old int64) { windowCap = old }(windowCap)
	windowCap = ticks
	fn()
}

// traceRun runs cfg to completion on a one-shard fleet and returns every
// rack's per-tick records, the fingerprint, the stats and the kernel's
// event count. The schedule side runs rackGen.advance and pending over
// windows of at most window ticks when that is positive; the oracle side
// runs heapRef.advance. Both flush into a real fleet, so MaxInflight
// shedding sees real completions.
func traceRun(t *testing.T, cfg Config, oracle bool, window int64) ([][]tickRec, uint64, Stats, int64) {
	t.Helper()
	fl := testFleet(t, 6, 4, 1)
	var s *Swarm
	var err error
	withWindowCap(cmp.Or(window, maxWindow), func() { s, err = New(cfg, fl) })
	if err != nil {
		t.Fatal(err)
	}
	trace := make([][]tickRec, len(s.racks))
	for _, g := range s.racks {
		advance, more := g.advance, g.pending
		if oracle {
			h := newHeapRef(s, g.id)
			advance, more = h.advance, func() bool { return len(h.heap) > 0 }
		}
		g.tickFn = func() {
			now := int64(g.env.Now())
			rec := tickRec{now: now, arrivals: advance(now), touched: slices.Clone(g.touched)}
			for _, d := range g.touched {
				rec.bytes = append(rec.bytes, g.bytes[d])
				rec.reqs = append(rec.reqs, g.reqs[d])
				rec.slot = append(rec.slot, g.slot[d])
			}
			g.flush(now)
			rec.more = more()
			trace[g.id] = append(trace[g.id], rec)
			if rec.more {
				g.env.After(time.Duration(s.tickNs), g.tickFn)
			}
		}
		if oracle && more() {
			g.env.At(time.Duration(s.tickNs), g.tickFn)
		}
	}
	if !oracle {
		s.Start()
	}
	fl.Group().Run()
	return trace, s.Fingerprint(), s.Stats(), fl.Group().Events()
}

// diffTraces fails the test at the first tick where the schedule's
// record differs from the oracle's.
func diffTraces(t *testing.T, got, want [][]tickRec) {
	t.Helper()
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rack %d: schedule ran %d ticks, heap %d", r, len(got[r]), len(want[r]))
		}
		for i, w := range want[r] {
			if !got[r][i].equal(w) {
				t.Fatalf("rack %d tick %d:\nschedule %+v\nheap     %+v", r, i, got[r][i], w)
			}
		}
	}
}

// stressShapes are the configurations that stress the binning rule.
var stressShapes = []struct {
	name  string
	cfg   Config
	check func(*testing.T, [][]tickRec, Stats)
}{
	// 2 clients per rack at a 2 µs gap under a 64 µs tick: each client
	// is due ~32 times per tick.
	{"gap-below-tick", Config{Clients: 12, TargetQPS: 6e6, Duration: time.Millisecond},
		func(t *testing.T, tr [][]tickRec, st Stats) {
			if per := st.Arrivals / int64(len(tr[0])) / 6; per < 4*2 {
				t.Errorf("%d arrivals per rack tick from 2 clients: no client is due several times", per)
			}
		}},
	// 2 ms gap over a 1 ms horizon: a client fires at most about once.
	{"gap-above-horizon", Config{Clients: 6000, TargetQPS: 3e6, Duration: time.Millisecond},
		func(t *testing.T, tr [][]tickRec, st Stats) {
			if st.Arrivals == 0 || st.Arrivals > 6000 {
				t.Errorf("%d arrivals from 6000 clients: want most retiring after one", st.Arrivals)
			}
		}},
	// 128 µs tick: the horizon falls inside a tick, so the last tick
	// lands past it.
	{"ragged-horizon", Config{Clients: 3000, TargetQPS: 3e6, Duration: 2003777},
		func(t *testing.T, tr [][]tickRec, st Stats) {
			if last := tr[0][len(tr[0])-1].now; last <= 2003777 {
				t.Errorf("last tick at %d does not land past the horizon", last)
			}
		}},
	{"shedding", Config{Clients: 2000, TargetQPS: 2e6, RequestBytes: 256 << 10,
		Duration: 2 * time.Millisecond, MaxInflight: 200},
		func(t *testing.T, tr [][]tickRec, st Stats) {
			if st.Shed == 0 {
				t.Error("nothing shed")
			}
		}},
	// 78 ticks of 128 µs with a mean gap of 8 ticks: under short windows
	// most clients are carried across many of them.
	{"long-run", Config{Clients: 3000, TargetQPS: 3e6, Duration: 10 * time.Millisecond,
		MaxInflight: 4000},
		func(t *testing.T, tr [][]tickRec, st Stats) {
			if len(tr[0]) < 70 {
				t.Errorf("only %d ticks", len(tr[0]))
			}
		}},
}

// diffAgainstHeap runs cfg through the oracle and through the schedule
// over windows of at most window ticks (0: the runtime cap) and fails
// on the first difference.
func diffAgainstHeap(t *testing.T, cfg Config, window int64) ([][]tickRec, Stats) {
	t.Helper()
	want, wantFP, wantSt, wantEv := traceRun(t, cfg, true, 0)
	got, gotFP, gotSt, gotEv := traceRun(t, cfg, false, window)
	diffTraces(t, got, want)
	if gotFP != wantFP || gotSt != wantSt || gotEv != wantEv {
		t.Fatalf("seed %d window %d: fingerprint %x stats %+v events %d, heap %x %+v %d",
			cfg.Seed, window, gotFP, gotSt, gotEv, wantFP, wantSt, wantEv)
	}
	return got, gotSt
}

// TestCalendarMatchesHeapStress is the differential test behind the
// window schedule: on every shape that stresses the binning rule it must
// leave exactly the scratch the time-ordered heap leaves, tick by tick,
// and re-arm exactly when the heap still holds a client.
func TestCalendarMatchesHeapStress(t *testing.T) {
	for _, sh := range stressShapes {
		for _, zipf := range []float64{1.1, 0} {
			t.Run(fmt.Sprintf("%s/zipf=%g", sh.name, zipf), func(t *testing.T) {
				for seed := int64(1); seed <= 8; seed++ {
					cfg := sh.cfg
					cfg.Zipf, cfg.Seed = zipf, seed
					got, st := diffAgainstHeap(t, cfg, 0)
					sh.check(t, got, st)
				}
			})
		}
	}
}

// TestCalendarWindowsMatchHeapStress shrinks the window to 1–7 ticks, so
// each later window is swept on the rack's own shard mid-run and the
// long run's clients are carried across dozens of windows; on every
// shape the trace must not move.
func TestCalendarWindowsMatchHeapStress(t *testing.T) {
	for _, sh := range stressShapes {
		t.Run(sh.name, func(t *testing.T) {
			for window := int64(1); window <= 7; window++ {
				for seed := int64(1); seed <= 4; seed++ {
					cfg := sh.cfg
					cfg.Zipf, cfg.Seed = 1.1, seed
					got, _ := diffAgainstHeap(t, cfg, window)
					if n := int64(len(got[0])); sh.name == "long-run" && n < 10*window {
						t.Errorf("window %d: %d ticks span under ten windows", window, n)
					}
				}
			}
		})
	}
}

// TestCalendarIsBounded: the window is capped, so an hour-long horizon
// at a 1 µs tick (3.6e9 tick instants) still costs under 1 MiB per rack,
// counts and carried clients together. 3e8 QPS over 4 racks clamps the
// tick to 1 µs while each client's 1.08e9 mean draws stay inside its
// counter.
func TestCalendarIsBounded(t *testing.T) {
	s, err := New(Config{Clients: 1000, TargetQPS: 3e8, Duration: time.Hour}, testFleet(t, 4, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.tickNs != int64(time.Microsecond) {
		t.Fatalf("tick %d ns, want 1 µs", s.tickNs)
	}
	for _, g := range s.racks {
		if len(g.carried) != int(g.n) {
			t.Errorf("rack %d carries %d of %d clients past its first window", g.id, len(g.carried), g.n)
		}
		b := 4*cap(g.counts) + int(unsafe.Sizeof(carry{}))*cap(g.carried)
		if b >= 1<<20 {
			t.Errorf("rack %d schedule is %d bytes", g.id, b)
		}
	}
}

// TestAdvanceDoesNotAllocate pins the arrival hot path at 0 allocs,
// window sweeps included.
func TestAdvanceDoesNotAllocate(t *testing.T) {
	g, tick := arrivalsRack(t, 20000, 256)
	now := 250 * tick // six ticks before the second window
	g.advance(now)
	dropScratch(g)
	k0 := g.k0
	if n := testing.AllocsPerRun(200, func() {
		now += tick
		g.advance(now)
		dropScratch(g)
	}); n != 0 {
		t.Errorf("advance allocates %.1f times per tick", n)
	}
	if g.k0 == k0 {
		t.Error("no window was swept while allocations were counted")
	}
}

// clientRec is the client record the swarm kept before its window
// schedule: the next arrival and a stored splitmix64 state, seeded with
// seed·γ + global index + 1. It is the oracle for the stream the sweeps
// recompute from a draw count.
type clientRec struct {
	next  int64
	state uint64
}

func (c *clientRec) expGap(mean float64) int64 {
	d := int64(-math.Log(unitOpen(splitmix64(&c.state))) * mean)
	if d < 1 {
		d = 1
	}
	return d
}

// TestSweepDrawsMatchStoredState: window after window, the sweeps' counts
// and carried records are what stored-state clients stepping through
// their streams give, for any seed, global index, mean, tick and window,
// over 1000+ draws a client.
func TestSweepDrawsMatchStoredState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 32; trial++ {
		seed := int64(rng.Uint64())
		first := rng.Intn(1 << 24) // global index of the rack's client 0
		n := 1 + rng.Intn(20)
		gapMean := math.Exp(rng.Float64() * 20)
		tick := max(1, int64(gapMean*math.Exp(rng.Float64()*5-3)))
		window := int64(1 + rng.Intn(8))
		horizon := int64(gapMean * float64(1000+rng.Intn(1000)))
		g := &rackGen{sw: &Swarm{tickNs: tick, horizon: horizon}, n: int32(n),
			base: uint64(seed)*gamma + uint64(first+1), gapMean: gapMean, counts: make([]int32, window)}
		refs := make([]clientRec, n)
		draws := make([]uint32, n)
		for i := range refs {
			refs[i].state = uint64(seed)*0x9e3779b97f4a7c15 + uint64(first+i+1)
			refs[i].next, draws[i] = refs[i].expGap(gapMean), 1
		}
		for k0 := int64(0); ; k0 += window {
			g.sweep(k0)
			want := make([]int32, window)
			var carried []carry
			for i := range refs {
				r := &refs[i]
				for k := (r.next + tick - 1) / tick; r.next < horizon && k < k0+window; k = (r.next + tick - 1) / tick {
					want[k-k0]++
					r.next += r.expGap(gapMean)
					draws[i]++
				}
				if r.next < horizon {
					carried = append(carried, carry{next: r.next, draws: draws[i], idx: int32(i)})
				}
			}
			if !slices.Equal(g.counts, want) || !slices.Equal(g.carried, carried) {
				t.Fatalf("seed %d clients %d+%d window %d at tick %d:\ncounts %v carried %v\nstored %v carried %v",
					seed, first, n, window, k0, g.counts, g.carried, want, carried)
			}
			if len(carried) == 0 {
				break
			}
		}
		if slices.Max(draws) < 1000 {
			t.Fatalf("seed %d: at most %d draws a client", seed, slices.Max(draws))
		}
	}
}

func TestCarryIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(carry{}); n != 16 {
		t.Errorf("carry is %d bytes, want 16", n)
	}
}

// TestSwarmHeapPerClient: a 2^18-client swarm whose horizon fits one
// window retains nothing per client; the schedule and per-rack scratch
// add under a byte per client.
func TestSwarmHeapPerClient(t *testing.T) {
	const clients = 1 << 18
	fl := testFleet(t, 12, 20, 1)
	before := metrics.SnapHeap()
	s, err := New(Config{Clients: clients, TargetQPS: 100 * clients, Zipf: 1.1,
		RequestBytes: 256, Duration: 10 * time.Millisecond, Seed: 1}, fl)
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.SnapHeap()
	runtime.KeepAlive(s)
	if per := float64(after.HeapAlloc-before.HeapAlloc) / clients; per > 1 {
		t.Errorf("swarm retains %.2f B of heap per client, want <= 1", per)
	}
}
