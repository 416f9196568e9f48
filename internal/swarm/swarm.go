// Package swarm generates open-loop client load for fleet-mode
// simulations: millions of clients modeled as compact records, not
// processes.
//
// A closed-loop generator (one sim process per client, issue → wait →
// think → repeat) costs a goroutine shell, a stack, and scheduler events
// per client — nothing a million-client sweep can afford, and the
// offered load collapses whenever the system slows down, hiding exactly
// the overload behavior worth measuring. This package keeps clients
// open-loop and record-shaped instead:
//
//   - a client is 16 bytes: its next arrival instant on the integer
//     virtual timeline and a splitmix64 PRNG state. Per-client arrival
//     schedules are target-QPS exponential (Poisson) or fixed-rate with
//     a deterministic random phase;
//   - each rack owns a flat slice of its clients plus a tick calendar —
//     one list head per tick and one 4-byte link per client, a client
//     filed under the first tick at or after its next arrival — and one
//     callback-timer "tick" drains all arrivals due in the last tick
//     interval: O(1) per arrival, and no per-client events exist at all;
//   - arrivals in one tick fold into per-destination-rack batches: one
//     fleetXfer flow injection per (tick, destination rack) carries the
//     summed payload, so kernel work scales with traffic shape, not
//     client count;
//   - key popularity is zipfian (or uniform), mapped to owner nodes by a
//     fixed multiplicative hash, so hot keys create genuine hot racks.
//
// Determinism matches the fleet's contract: every rack draws from its
// own generator seeded by (seed, rack), folds its own trace hash, and
// touches only rack-local state, so the swarm's fingerprint is identical
// for any shard or worker count. The arrival hot path — calendar unlink,
// two PRNG draws, scratch accumulate, calendar re-file — allocates nothing
// in steady state (BenchmarkSwarmArrivals pins 0 allocs/op).
package swarm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"hbb/internal/metrics"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// Config shapes an open-loop client swarm.
type Config struct {
	// Clients is the swarm population, spread evenly across racks.
	Clients int
	// TargetQPS is the aggregate offered arrival rate (requests/sec of
	// virtual time) across all clients.
	TargetQPS float64
	// Zipf is the zipfian skew exponent for key popularity; it must
	// exceed 1 (math/rand's Zipf domain), or be 0 for uniform keys.
	Zipf float64
	// Keys is the distinct key population requests address (default 1M).
	Keys int
	// RequestBytes is the payload each request moves (default 64 KiB).
	RequestBytes int64
	// Duration is the open-loop generation horizon in virtual time
	// (default 100ms); in-flight transfers drain after it.
	Duration time.Duration
	// FixedRate replaces exponential inter-arrivals with a fixed period
	// per client (random phase), for closed-form offered load.
	FixedRate bool
	// MaxInflight, when positive, is the per-rack admission cap: a tick's
	// batches are shed (counted, not injected) while the rack's
	// outstanding-request count is at or above the bound. It keeps
	// open-loop overload runs bounded — offered load beyond capacity
	// otherwise queues without limit.
	MaxInflight int64
	// Seed derives every per-rack generator stream.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Keys == 0 {
		c.Keys = 1 << 20
	}
	if c.RequestBytes == 0 {
		c.RequestBytes = 64 << 10
	}
	if c.Duration == 0 {
		c.Duration = 100 * time.Millisecond
	}
	return c
}

// Validate reports the first configuration error. Zero values for
// fields with defaults are accepted; Clients and TargetQPS are
// mandatory.
func (c Config) Validate() error {
	if c.Clients < 1 {
		return fmt.Errorf("swarm: Clients must be at least 1, got %d", c.Clients)
	}
	if c.TargetQPS <= 0 {
		return fmt.Errorf("swarm: TargetQPS must be positive, got %g", c.TargetQPS)
	}
	if c.Zipf != 0 && c.Zipf <= 1 {
		return fmt.Errorf("swarm: Zipf skew must exceed 1 (or be 0 for uniform keys), got %g", c.Zipf)
	}
	if c.Keys < 0 {
		return fmt.Errorf("swarm: Keys must be positive, got %d", c.Keys)
	}
	if c.RequestBytes < 0 {
		return fmt.Errorf("swarm: RequestBytes must be positive, got %d", c.RequestBytes)
	}
	if c.Duration < 0 {
		return fmt.Errorf("swarm: Duration must be positive, got %v", c.Duration)
	}
	if c.MaxInflight < 0 {
		return fmt.Errorf("swarm: MaxInflight must be positive (or 0 for unbounded), got %d", c.MaxInflight)
	}
	return nil
}

// tick picks the arrival-scan interval: aim for ~64 arrivals per rack
// per tick so batching amortizes, clamped to [1µs, 1ms] so idle racks
// stay cheap and busy racks stay responsive.
func (c Config) tick(racks int) int64 {
	perRack := c.TargetQPS / float64(racks)
	t := int64(64e9 / perRack)
	if t < int64(time.Microsecond) {
		t = int64(time.Microsecond)
	}
	if t > int64(time.Millisecond) {
		t = int64(time.Millisecond)
	}
	return t
}

// clientRec is one swarm client: 16 bytes of next-arrival time and
// PRNG state. A million clients cost ~16 MB plus a 4-byte calendar link
// each.
type clientRec struct {
	next  int64
	state uint64
}

// expGap draws one exponential inter-arrival of the given mean (ns) from
// the client's own stream, at least 1 ns so a schedule always advances.
func (c *clientRec) expGap(mean float64) int64 {
	d := int64(-math.Log(unitOpen(splitmix64(&c.state))) * mean)
	if d < 1 {
		d = 1
	}
	return d
}

// splitmix64 advances a per-client PRNG state; the standard finalizer
// keeps streams independent across clients seeded with consecutive
// values.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitOpen converts a PRNG draw to a float in (0, 1], safe for Log.
func unitOpen(v uint64) float64 {
	return (float64(v>>11) + 1) / (1 << 53)
}

// batch is one pooled (tick, destination rack) flow injection; done is
// the cached completion closure handed to StartTransfer.
type batch struct {
	g      *rackGen
	reqs   int64
	doneFn func()
}

// Swarm drives an open-loop client population over a fleet. Build with
// New, call Start before the fleet group runs, and read Stats /
// Fingerprint / FillMetrics after.
type Swarm struct {
	cfg     Config
	fl      *netsim.Fleet
	racks   []*rackGen
	tickNs  int64
	horizon int64
}

// rackGen owns one rack's share of the swarm: its client records, the
// tick calendar, the key-popularity stream, per-tick batching scratch,
// and the rack-local counters and trace hash. Only the rack's owning
// shard ever touches it.
type rackGen struct {
	sw      *Swarm
	id      int
	env     *sim.Env
	clients []clientRec

	// Tick calendar: head[k%len(head)] starts the list, chained through
	// link and ended by -1, of the clients due at tick k, the first
	// multiple of tickNs at or after their next arrival; cur is the next
	// tick to drain, live the clients filed. The wheel is bounded: a client
	// filed over a lap ahead waits in its slot until due. Two invariants:
	//   - ticks fire at exact multiples of tickNs (Start and runTick own
	//     them); a late one would find the arrivals since the last multiple
	//     a slot ahead and deliver them one tick late, never lose them;
	//   - the order a tick's arrivals drain in is unobservable: each key
	//     comes from the rack's shared stream, each gap from the client's
	//     own, and flush folds only per-(tick, destination rack) sums.
	head []int32
	link []int32
	cur  int64
	live int

	zipf    *rand.Zipf
	rng     *rand.Rand
	gapMean float64 // mean inter-arrival per client, ns
	period  int64   // fixed-rate period per client, ns

	// Per-tick scratch, all reused: per-destination-rack byte and
	// request accumulators, the representative destination slot, and the
	// list of racks touched this tick.
	bytes   []int64
	reqs    []int64
	slot    []int32
	touched []int32
	pool    []*batch
	tickFn  func()

	arrivals  int64
	flows     int64
	bytesSent int64
	completed int64
	shed      int64
	inflight  int64
	maxInfl   int64
	hist      *metrics.Histogram
	h         uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// New builds a swarm over the fleet. The config is validated and
// defaulted; clients are spread evenly across racks (remainder to the
// lowest rack ids).
func New(cfg Config, fl *netsim.Fleet) (*Swarm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	topo := fl.Topology()
	racks := topo.Racks
	s := &Swarm{
		cfg:     cfg,
		fl:      fl,
		racks:   make([]*rackGen, racks),
		tickNs:  cfg.tick(racks),
		horizon: int64(cfg.Duration),
	}
	perClient := float64(cfg.Clients) / cfg.TargetQPS * 1e9 // mean gap, ns
	// A sub-nanosecond period would truncate to 0 and stall the schedule.
	period := max(int64(perClient), 1)
	// One slot per tick up to the horizon (arrivals stop before it), capped
	// so the calendar does not scale with Duration.
	slots := min((s.horizon+s.tickNs-1)/s.tickNs+1, 1<<16)
	base, rem := cfg.Clients/racks, cfg.Clients%racks
	next := 0
	for r := range s.racks {
		count := base
		if r < rem {
			count++
		}
		g := &rackGen{
			sw:      s,
			id:      r,
			env:     fl.Env(r * topo.NodesPerRack),
			gapMean: perClient,
			period:  period,
			bytes:   make([]int64, racks),
			reqs:    make([]int64, racks),
			slot:    make([]int32, racks),
			rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(r)*0x9e3779b9)),
			hist:    metrics.NewHistogram(),
			h:       fnvOffset,
		}
		if cfg.Zipf != 0 {
			g.zipf = rand.NewZipf(g.rng, cfg.Zipf, 1, uint64(cfg.Keys-1))
		}
		g.tickFn = g.runTick
		g.clients = make([]clientRec, count)
		g.link = make([]int32, count)
		g.head = slices.Repeat([]int32{-1}, int(slots))
		for i := range g.clients {
			c := &g.clients[i]
			c.state = uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(next+i+1)
			c.next = g.firstArrival(c)
			if c.next < s.horizon {
				g.file(int32(i))
				g.live++
			}
		}
		next += count
		s.racks[r] = g
	}
	return s, nil
}

// Config returns the defaulted configuration the swarm runs with.
func (s *Swarm) Config() Config { return s.cfg }

// Tick returns the derived arrival-scan interval.
func (s *Swarm) Tick() time.Duration { return time.Duration(s.tickNs) }

// Start schedules every rack's first arrival tick. Call once, before
// the fleet's shard group runs.
func (s *Swarm) Start() {
	for _, g := range s.racks {
		if g.live > 0 {
			g.env.At(time.Duration(s.tickNs), g.tickFn)
		}
	}
}

// firstArrival draws a client's initial arrival: exponential from time
// zero, or a uniform phase within the fixed period.
func (g *rackGen) firstArrival(c *clientRec) int64 {
	if g.sw.cfg.FixedRate {
		return int64(splitmix64(&c.state) % uint64(g.period))
	}
	return g.gap(c)
}

// gap draws one exponential inter-arrival (or the fixed period).
func (g *rackGen) gap(c *clientRec) int64 {
	if g.sw.cfg.FixedRate {
		return g.period
	}
	return c.expGap(g.gapMean)
}

// file chains client ci under the first tick at or after its next arrival.
func (g *rackGen) file(ci int32) {
	tick := uint64(g.sw.tickNs)
	k := (uint64(g.clients[ci].next) + tick - 1) / tick
	s := k % uint64(len(g.head))
	g.link[ci] = g.head[s]
	g.head[s] = ci
}

// advance drains every arrival due at or before now into the per-rack
// scratch accumulators and re-schedules each client, returning the
// number of arrivals. This is the swarm's hot path: O(1) per arrival, no
// comparisons between clients, and it allocates nothing (the scratch and
// calendar are pre-sized, the PRNGs are inline).
func (g *rackGen) advance(now int64) int64 {
	topo := g.sw.fl.Topology()
	nodes := uint64(topo.Racks * topo.NodesPerRack)
	per := topo.NodesPerRack
	reqBytes := g.sw.cfg.RequestBytes
	keys := uint64(g.sw.cfg.Keys)
	horizon := g.sw.horizon
	var arrivals int64
	for last := now / g.sw.tickNs; g.cur <= last; g.cur++ {
		s := g.cur % int64(len(g.head))
		ci := g.head[s]
		g.head[s] = -1
		for ci >= 0 {
			c := &g.clients[ci]
			following := g.link[ci]
			// Due several times when its gap is shorter than the tick, not
			// at all when it was filed over a lap ahead.
			for c.next <= now && c.next < horizon {
				arrivals++
				var key uint64
				if g.zipf != nil {
					key = g.zipf.Uint64()
				} else {
					key = g.rng.Uint64() % keys
				}
				// Fixed multiplicative hash: a hot key is always served by the
				// same node, so zipfian skew creates stable hot racks.
				dstNode := (key * 2654435761) % nodes
				dRack := int32(dstNode) / int32(per)
				if g.bytes[dRack] == 0 {
					g.touched = append(g.touched, dRack)
					g.slot[dRack] = int32(dstNode) % int32(per)
				}
				g.bytes[dRack] += reqBytes
				g.reqs[dRack]++
				c.next += g.gap(c)
			}
			if c.next >= horizon {
				// Past the generation horizon: retire it, even when still
				// <= now (the last tick can land beyond the horizon).
				g.live--
			} else {
				g.file(ci)
			}
			ci = following
		}
	}
	g.arrivals += arrivals
	return arrivals
}

// flush injects one batched flow per destination rack touched since the
// last flush and folds the tick into the rack's trace hash. The batch
// records and their completion closures are pooled. With MaxInflight
// set, batches arriving while the rack is at the cap are shed: counted
// and folded (the trace records the offered load either way), but never
// injected.
func (g *rackGen) flush(now int64) {
	if len(g.touched) == 0 {
		return
	}
	topo := g.sw.fl.Topology()
	per := topo.NodesPerRack
	srcBase := g.id * per
	maxInfl := g.sw.cfg.MaxInflight
	for _, dRack := range g.touched {
		bytes, reqs := g.bytes[dRack], g.reqs[dRack]
		g.bytes[dRack], g.reqs[dRack] = 0, 0
		g.fold(uint64(now), uint64(dRack), uint64(bytes), uint64(reqs))
		if maxInfl > 0 && g.inflight >= maxInfl {
			g.shed += reqs
			continue
		}
		var b *batch
		if k := len(g.pool) - 1; k >= 0 {
			b = g.pool[k]
			g.pool[k] = nil
			g.pool = g.pool[:k]
		} else {
			b = &batch{g: g}
			b.doneFn = b.done
		}
		b.reqs = reqs
		// Source slot rotates with the tick index so one rack's offered
		// load spreads across its nodes' egress NICs.
		src := srcBase + int(g.flows)%per
		dst := int(dRack)*per + int(g.slot[dRack])
		g.flows++
		g.bytesSent += bytes
		g.inflight += reqs
		if g.inflight > g.maxInfl {
			g.maxInfl = g.inflight
		}
		if err := g.sw.fl.StartTransfer(src, dst, bytes, b.doneFn); err != nil {
			panic(err)
		}
	}
	g.touched = g.touched[:0]
	g.hist.Observe(float64(g.inflight))
}

// done is a batch completion: the last byte of the batched flow landed.
func (b *batch) done() {
	g := b.g
	g.completed += b.reqs
	g.inflight -= b.reqs
	b.reqs = 0
	g.pool = append(g.pool, b)
}

// runTick is the rack's cached tick callback: drain due arrivals,
// inject the batches, and re-arm while clients remain.
func (g *rackGen) runTick() {
	now := int64(g.env.Now())
	g.advance(now)
	g.flush(now)
	if g.live > 0 {
		g.env.After(time.Duration(g.sw.tickNs), g.tickFn)
	}
}

func (g *rackGen) fold(vs ...uint64) {
	h := g.h
	for _, v := range vs {
		h ^= v
		h *= fnvPrime
	}
	g.h = h
}

// Stats is the swarm's aggregate measurement.
type Stats struct {
	Clients int
	// Arrivals is the number of requests generated; Flows the batched
	// flow injections that carried them; Completed the requests whose
	// payload fully landed; Shed the requests dropped at the MaxInflight
	// admission cap (never injected).
	Arrivals  int64
	Flows     int64
	Completed int64
	Shed      int64
	BytesSent int64
	// AchievedQPS is Arrivals over the generation horizon.
	AchievedQPS float64
	// MaxInflight is the peak outstanding-request count across racks.
	MaxInflight int64
}

// Stats aggregates the per-rack counters; call after the fleet run.
func (s *Swarm) Stats() Stats {
	st := Stats{Clients: s.cfg.Clients}
	for _, g := range s.racks {
		st.Arrivals += g.arrivals
		st.Flows += g.flows
		st.Completed += g.completed
		st.Shed += g.shed
		st.BytesSent += g.bytesSent
		if g.maxInfl > st.MaxInflight {
			st.MaxInflight = g.maxInfl
		}
	}
	st.AchievedQPS = float64(st.Arrivals) / s.cfg.Duration.Seconds()
	return st
}

// Fingerprint folds the per-rack trace hashes in rack order — identical
// for any shard or worker count.
func (s *Swarm) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	for _, g := range s.racks {
		h ^= g.h
		h *= fnvPrime
		h ^= uint64(g.arrivals)
		h *= fnvPrime
	}
	return h
}

// FillMetrics publishes the swarm's aggregates into a registry under
// the swarm.* namespace: arrival/flow/byte counters, the achieved QPS,
// and the per-rack inflight histogram merged across all racks (and
// therefore across shards).
func (s *Swarm) FillMetrics(reg *metrics.Registry) {
	st := s.Stats()
	reg.Counter("swarm.clients").Add(int64(st.Clients))
	reg.Counter("swarm.arrivals").Add(st.Arrivals)
	reg.Counter("swarm.flows").Add(st.Flows)
	reg.Counter("swarm.completed").Add(st.Completed)
	reg.Counter("swarm.shed").Add(st.Shed)
	reg.Counter("swarm.bytes.sent").Add(st.BytesSent)
	reg.Counter("swarm.qps.achieved").Add(int64(st.AchievedQPS))
	infl := reg.Histogram("swarm.inflight")
	for _, g := range s.racks {
		infl.Merge(g.hist)
	}
}
