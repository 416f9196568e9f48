package swarm

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

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
		{"negative keys", func(c *Config) { c.Keys = -1 }, "Keys"},
		{"negative request bytes", func(c *Config) { c.RequestBytes = -1 }, "RequestBytes"},
		{"negative duration", func(c *Config) { c.Duration = -time.Second }, "Duration"},
		{"negative max inflight", func(c *Config) { c.MaxInflight = -1 }, "MaxInflight"},
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

func TestSwarmFixedRateOfferedLoad(t *testing.T) {
	// Fixed-rate arrivals make the offered load closed-form: each client
	// fires Duration/period times (±1 for phase), so achieved QPS must
	// land within a few percent of target.
	cfg := Config{Clients: 2000, TargetQPS: 4e5, Duration: 10 * time.Millisecond, FixedRate: true, Seed: 3}
	_, st := runSwarm(t, 2, cfg)
	ratio := st.AchievedQPS / cfg.TargetQPS
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("achieved %.0f QPS for target %.0f (ratio %.3f)", st.AchievedQPS, cfg.TargetQPS, ratio)
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
// runs over a rackGen's records, streams and scratch and ignores the
// calendar.
type heapRef struct {
	g    *rackGen
	heap []int32
}

func newHeapRef(g *rackGen) *heapRef {
	h := &heapRef{g: g}
	for i := range g.clients {
		if g.clients[i].next < g.sw.horizon {
			h.heap = append(h.heap, int32(i))
			h.siftUp(len(h.heap) - 1)
		}
	}
	return h
}

func (h *heapRef) before(a, b int32) bool {
	ca, cb := &h.g.clients[a], &h.g.clients[b]
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
	keys := uint64(g.sw.cfg.Keys)
	var arrivals int64
	for len(h.heap) > 0 {
		ci := h.heap[0]
		c := &g.clients[ci]
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
		c.next += g.gap(c)
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
// flush: everything the rest of the system can observe of the arrivals.
type tickRec struct {
	now, arrivals int64
	live          int
	touched       []int32
	bytes, reqs   []int64 // per touched rack, in touched order
	slot          []int32
}

func (r tickRec) equal(o tickRec) bool {
	return r.now == o.now && r.arrivals == o.arrivals && r.live == o.live &&
		slices.Equal(r.touched, o.touched) && slices.Equal(r.bytes, o.bytes) &&
		slices.Equal(r.reqs, o.reqs) && slices.Equal(r.slot, o.slot)
}

// traceRun runs cfg to completion on a one-shard fleet and returns every
// rack's per-tick records, the fingerprint and the stats. The calendar
// side runs rackGen.advance (over a wheel re-filed into wheel slots when
// that is positive); the oracle side runs heapRef.advance. Both flush
// into a real fleet, so MaxInflight shedding sees real completions.
func traceRun(t *testing.T, cfg Config, oracle bool, wheel int) ([][]tickRec, uint64, Stats) {
	t.Helper()
	fl := testFleet(t, 6, 4, 1)
	s, err := New(cfg, fl)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([][]tickRec, len(s.racks))
	for _, g := range s.racks {
		advance, live := g.advance, func() int { return g.live }
		if oracle {
			h := newHeapRef(g)
			advance, live = h.advance, func() int { return len(h.heap) }
		} else if wheel > 0 {
			g.head = slices.Repeat([]int32{-1}, wheel)
			for i := range g.clients {
				if g.clients[i].next < s.horizon {
					g.file(int32(i))
				}
			}
		}
		g.tickFn = func() {
			now := int64(g.env.Now())
			rec := tickRec{now: now, arrivals: advance(now), live: live(), touched: slices.Clone(g.touched)}
			for _, d := range g.touched {
				rec.bytes = append(rec.bytes, g.bytes[d])
				rec.reqs = append(rec.reqs, g.reqs[d])
				rec.slot = append(rec.slot, g.slot[d])
			}
			trace[g.id] = append(trace[g.id], rec)
			g.flush(now)
			if live() > 0 {
				g.env.After(time.Duration(s.tickNs), g.tickFn)
			}
		}
	}
	s.Start()
	fl.Group().Run()
	return trace, s.Fingerprint(), s.Stats()
}

// diffTraces fails the test at the first tick where the calendar's
// record differs from the oracle's.
func diffTraces(t *testing.T, got, want [][]tickRec) {
	t.Helper()
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rack %d: calendar ran %d ticks, heap %d", r, len(got[r]), len(want[r]))
		}
		for i, w := range want[r] {
			if !got[r][i].equal(w) {
				t.Fatalf("rack %d tick %d:\ncalendar %+v\nheap     %+v", r, i, got[r][i], w)
			}
		}
	}
}

// TestCalendarMatchesHeapStress is the differential test behind the tick
// calendar: on every shape that stresses the filing rule it must leave
// exactly the scratch the time-ordered heap leaves, tick by tick.
func TestCalendarMatchesHeapStress(t *testing.T) {
	shapes := []struct {
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
	}
	for _, sh := range shapes {
		for _, fixed := range []bool{false, true} {
			for _, zipf := range []float64{1.1, 0} {
				t.Run(fmt.Sprintf("%s/fixed=%v/zipf=%g", sh.name, fixed, zipf), func(t *testing.T) {
					for seed := int64(1); seed <= 8; seed++ {
						cfg := sh.cfg
						cfg.FixedRate, cfg.Zipf, cfg.Seed = fixed, zipf, seed
						want, wantFP, wantSt := traceRun(t, cfg, true, 0)
						got, gotFP, gotSt := traceRun(t, cfg, false, 0)
						diffTraces(t, got, want)
						if gotFP != wantFP || gotSt != wantSt {
							t.Fatalf("seed %d: fingerprint %x stats %+v, heap %x %+v", seed, gotFP, gotSt, wantFP, wantSt)
						}
						sh.check(t, got, gotSt)
					}
				})
			}
		}
	}
}

// TestCalendarWheelLapsStress shrinks the wheel to 4 slots under a
// 78-tick run whose mean gap is 8 ticks, so the wheel turns 19 times and
// most clients are filed more than one lap ahead; the trace must not move.
func TestCalendarWheelLapsStress(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		cfg := Config{Clients: 3000, TargetQPS: 3e6, Zipf: 1.1, Duration: 10 * time.Millisecond,
			FixedRate: fixed, MaxInflight: 4000, Seed: 9}
		want, wantFP, wantSt := traceRun(t, cfg, true, 0)
		got, gotFP, gotSt := traceRun(t, cfg, false, 4)
		if laps := len(got[0]) / 4; laps < 10 {
			t.Fatalf("only %d laps of the wheel", laps)
		}
		diffTraces(t, got, want)
		if gotFP != wantFP || gotSt != wantSt {
			t.Errorf("fixed=%v: fingerprint %x stats %+v, heap %x %+v", fixed, gotFP, gotSt, wantFP, wantSt)
		}
	}
}

// TestCalendarIsBounded: the wheel is capped, so an hour-long horizon at
// a 1 µs tick (3.6e9 tick instants) still costs under 1 MiB per rack.
func TestCalendarIsBounded(t *testing.T) {
	s, err := New(Config{Clients: 1000, TargetQPS: 1e12, Duration: time.Hour}, testFleet(t, 4, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range s.racks {
		if b := 4 * len(g.head); b >= 1<<20 {
			t.Errorf("rack %d calendar is %d bytes", g.id, b)
		}
	}
}

// TestSubNanosecondPeriodTerminates: a fixed-rate period under 1 ns used
// to truncate to 0, and advance then re-armed the same client forever (a
// regression shows as the test timing out). Clamped to 1 ns, one client
// fires exactly once per nanosecond of horizon.
func TestSubNanosecondPeriodTerminates(t *testing.T) {
	const horizon = 20 * time.Microsecond
	_, st := runSwarm(t, 1, Config{Clients: 1, TargetQPS: 2e9, FixedRate: true, Duration: horizon})
	if st.Arrivals != int64(horizon) {
		t.Errorf("%d arrivals, want %d", st.Arrivals, int64(horizon))
	}
}

// TestAdvanceDoesNotAllocate pins the arrival hot path at 0 allocs.
func TestAdvanceDoesNotAllocate(t *testing.T) {
	g, tick := arrivalsRack(t, 20000)
	now := 10 * tick
	g.advance(now)
	dropScratch(g)
	if n := testing.AllocsPerRun(200, func() {
		now += tick
		g.advance(now)
		dropScratch(g)
	}); n != 0 {
		t.Errorf("advance allocates %.1f times per tick", n)
	}
}
