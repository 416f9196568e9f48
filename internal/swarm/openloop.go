package swarm

import (
	"fmt"
	"math/rand"
)

// OpenLoop is the swarm's arrival/key math repackaged for real-socket
// load generators (cmd/mccluster -swarm): the same per-client splitmix64
// streams, exponential inter-arrival draws, and zipfian key popularity
// as the simulated fleet swarm, but emitting wall-clock-relative
// nanosecond deadlines instead of DES ticks. It must emit exact deadlines
// in order, so unlike rackGen's tick calendar it keeps a heap — the
// package's only one.
//
// The generator is open-loop: Next hands out the globally ordered
// arrival sequence regardless of how fast the system under test drains
// it, which is what makes overload (and admission control) observable.
// Not safe for concurrent use; shard by creating one OpenLoop per
// dispatcher with distinct seeds.
type OpenLoop struct {
	clients []clientRec
	heap    []int32 // 4-ary min-heap of client indices ordered by next arrival
	zipf    *rand.Zipf
	rng     *rand.Rand
	gapMean float64 // mean inter-arrival per client, ns
	keys    int
}

// NewOpenLoop builds a generator for `clients` open-loop clients jointly
// producing `qps` requests per second over `keys` distinct keys. A skew
// of 0 means uniform keys; otherwise it is the zipf exponent and must
// exceed 1, matching Config.Zipf. Seeding is deterministic: the same
// arguments always yield the same request sequence.
func NewOpenLoop(clients int, qps float64, keys int, skew float64, seed int64) (*OpenLoop, error) {
	if clients < 1 {
		return nil, fmt.Errorf("swarm: open loop needs at least 1 client, got %d", clients)
	}
	if qps <= 0 {
		return nil, fmt.Errorf("swarm: open loop QPS must be positive, got %g", qps)
	}
	if keys < 2 {
		return nil, fmt.Errorf("swarm: open loop needs at least 2 keys, got %d", keys)
	}
	if skew != 0 && skew <= 1 {
		return nil, fmt.Errorf("swarm: zipf skew must exceed 1 (or be 0 for uniform keys), got %g", skew)
	}
	o := &OpenLoop{
		clients: make([]clientRec, clients),
		heap:    make([]int32, clients),
		rng:     rand.New(rand.NewSource(seed)),
		gapMean: float64(clients) / qps * 1e9,
		keys:    keys,
	}
	if skew != 0 {
		o.zipf = rand.NewZipf(o.rng, skew, 1, uint64(keys-1))
	}
	for i := range o.clients {
		c := &o.clients[i]
		c.state = uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
		// First arrival uniform in [0, gapMean): spreads the population so
		// the stream starts at steady-state rate instead of a herd at t=0.
		c.next = int64(unitOpen(splitmix64(&c.state)) * o.gapMean)
		o.heap[i] = int32(i)
		o.siftUp(i)
	}
	return o, nil
}

// Next pops the earliest pending arrival and returns its deadline in
// nanoseconds since the stream epoch plus the zipf-ranked key index in
// [0, keys). The popped client is immediately rescheduled with a fresh
// exponential gap, so Next never runs dry.
func (o *OpenLoop) Next() (at int64, key int) {
	ci := o.heap[0]
	c := &o.clients[ci]
	at = c.next
	c.next += c.expGap(o.gapMean)
	o.siftDown(0)
	if o.zipf != nil {
		key = int(o.zipf.Uint64())
	} else {
		key = o.rng.Intn(o.keys)
	}
	return at, key
}

// Clients returns the population size.
func (o *OpenLoop) Clients() int { return len(o.clients) }

// 4-ary heap on arrival time: shallow trees beat binary heaps when the
// hot operation is pop-and-reschedule.

func (o *OpenLoop) less(a, b int32) bool { return o.clients[a].next < o.clients[b].next }

func (o *OpenLoop) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 4
		if !o.less(o.heap[i], o.heap[p]) {
			return
		}
		o.heap[i], o.heap[p] = o.heap[p], o.heap[i]
		i = p
	}
}

func (o *OpenLoop) siftDown(i int) {
	n := len(o.heap)
	for {
		min := i
		for k := 4*i + 1; k <= 4*i+4 && k < n; k++ {
			if o.less(o.heap[k], o.heap[min]) {
				min = k
			}
		}
		if min == i {
			return
		}
		o.heap[i], o.heap[min] = o.heap[min], o.heap[i]
		i = min
	}
}
