package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// pingPong runs `pairs` tokens over 2*pairs shards: token k bounces
// between shards 2k and 2k+1 for hops deliveries, each one lookahead after
// the last, the odd tokens offset by half a lookahead. A lone token makes
// every window a single event on a single shard, so the run is one
// coordinator/worker hand-off after another; with two tokens some windows
// run two shards at once. It returns a hash of every delivery (token,
// shard, instant, hop) in per-token order, and the window count.
func pingPong(pairs, hops int) (uint64, int64, *ShardGroup) {
	const lookahead = time.Microsecond
	g := NewShardGroup(2*pairs, lookahead, 1)
	hashes := make([]uint64, pairs)
	for k := 0; k < pairs; k++ {
		hashes[k] = 14695981039346656037
		var hop func(at int, n int) func()
		hop = func(at, n int) func() {
			return func() {
				now := g.Shard(at).Now()
				for _, v := range []int64{int64(k), int64(at), int64(now), int64(n)} {
					hashes[k] ^= uint64(v)
					hashes[k] *= 1099511628211
				}
				if n == hops {
					return
				}
				to := 2*k + (at+1)%2
				g.Send(at, to, now+lookahead, uint64(k), uint64(n+1), hop(to, n+1))
			}
		}
		start := time.Duration(k%2) * lookahead / 2
		g.Shard(2*k).At(start, func() {
			g.Send(2*k, 2*k+1, start+lookahead, uint64(k), 0, hop(2*k+1, 1))
		})
	}
	g.Run()
	h := uint64(14695981039346656037)
	for _, v := range hashes {
		h ^= v
		h *= 1099511628211
	}
	return h, g.Windows(), g
}

// TestShardWorkerHandoffStress drives 10^5 windows of about one event
// each through the persistent workers at 2 and 4 shards, at GOMAXPROCS 1
// (no workers), 2 and 8 (more workers than this kind of host has cores).
// Every window is a hand-off to a worker and back, so a lost or stale
// wake-up shows as a hang (run it with a short -timeout), a data race
// under -race, or a trace that differs between worker counts.
func TestShardWorkerHandoffStress(t *testing.T) {
	const hops = 100000
	for _, pairs := range []int{1, 2} {
		var base uint64
		var baseWindows int64
		for _, procs := range []int{1, 2, 8} {
			withProcs(procs, func() {
				h, windows, g := pingPong(pairs, hops)
				if got, want := g.Messages(), int64(pairs*hops); got != want {
					t.Errorf("shards=%d GOMAXPROCS=%d: %d messages, want %d", 2*pairs, procs, got, want)
				}
				if windows < hops {
					t.Errorf("shards=%d GOMAXPROCS=%d: %d windows, want >= %d", 2*pairs, procs, windows, hops)
				}
				if procs == 1 {
					base, baseWindows = h, windows
				} else if h != base || windows != baseWindows {
					t.Errorf("shards=%d GOMAXPROCS=%d: trace %x over %d windows, want %x over %d (GOMAXPROCS=1)",
						2*pairs, procs, h, windows, base, baseWindows)
				}
			})
		}
	}
}

// orderedDelivery is one dispatched message as its receiver saw it.
type orderedDelivery struct {
	at       time.Duration
	key, seq uint64
}

// sameInstantOrder runs 12 domains round-robin over `shards` shards.
// Every message lands on a 4-lookahead grid, so many arrive at one
// domain in one instant, some sent from the receiver's own shard (straight
// into its inbox) and some from other shards (through the barrier), with
// sender keys on both sides of each other. It returns each domain's
// deliveries in dispatch order.
func sameInstantOrder(shards int, fixed bool) [][]orderedDelivery {
	const (
		domains   = 12
		lookahead = time.Microsecond
		grid      = 4 * lookahead
	)
	g := NewShardGroup(shards, lookahead, 7)
	g.fixed = fixed
	logs := make([][]orderedDelivery, domains)
	rngs := make([]*rand.Rand, domains)
	seqs := make([]uint64, domains)
	var send func(from int, now time.Duration, ttl int)
	deliver := func(to int, key, seq uint64, ttl int) func() {
		return func() {
			now := g.Shard(to % shards).Now()
			logs[to] = append(logs[to], orderedDelivery{now, key, seq})
			if ttl > 0 {
				send(to, now, ttl-1)
			}
		}
	}
	send = func(from int, now time.Duration, ttl int) {
		for i := 0; i < 2; i++ {
			to := rngs[from].Intn(domains)
			// The next grid point at least one lookahead away, or the one
			// after it.
			at := (now+lookahead+grid-1)/grid*grid + time.Duration(rngs[from].Intn(2))*grid
			seqs[from]++
			g.Send(from%shards, to%shards, at, uint64(from), seqs[from], deliver(to, uint64(from), seqs[from], ttl))
		}
	}
	for d := 0; d < domains; d++ {
		rngs[d] = rand.New(rand.NewSource(int64(100 + d)))
		g.Shard(d%shards).At(time.Duration(d)*100*time.Nanosecond, func() {
			send(d, g.Shard(d%shards).Now(), 5)
		})
	}
	g.Run()
	return logs
}

// TestShardSameInstantOrderStress checks that a send to the sender's own
// shard, inserted into the inbox mid-window, dispatches in the canonical
// (at, key, seq) order among same-instant deliveries that came through
// the barrier from other shards: every domain's log is sorted, and equal
// to the one-shard run's and the fixed-horizon oracle's at 1, 2 and 4
// shards and GOMAXPROCS 1 and 4.
func TestShardSameInstantOrderStress(t *testing.T) {
	base := sameInstantOrder(1, true)
	sameInstant := 0
	for d, log := range base {
		if !slices.IsSortedFunc(log, func(a, b orderedDelivery) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			if a.key != b.key {
				return int(a.key) - int(b.key)
			}
			return int(a.seq) - int(b.seq)
		}) {
			t.Errorf("domain %d: deliveries out of (at, key, seq) order: %v", d, log)
		}
		for i := 1; i < len(log); i++ {
			if log[i].at == log[i-1].at && log[i].key != log[i-1].key {
				sameInstant++
			}
		}
	}
	if sameInstant < 20 {
		t.Fatalf("only %d same-instant deliveries from different senders; the workload lost its point", sameInstant)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, fixed := range []bool{false, true} {
			for _, procs := range []int{1, 4} {
				withProcs(procs, func() {
					got := sameInstantOrder(shards, fixed)
					for d := range base {
						if !slices.Equal(got[d], base[d]) {
							t.Errorf("shards=%d fixed=%v GOMAXPROCS=%d domain %d: deliveries %v, want %v",
								shards, fixed, procs, d, got[d], base[d])
						}
					}
				})
			}
		}
	}
}

// TestShardSelfSendInboxStress sends 10^6 messages from a lone shard to
// itself, four chains deep: the run is one window, every message is
// counted, and the inbox's backing array stays small because dispatched
// entries are dropped before it grows.
func TestShardSelfSendInboxStress(t *testing.T) {
	const (
		chains = 4
		total  = 1000000
	)
	g := NewShardGroup(1, time.Microsecond, 1)
	e := g.Shard(0)
	sent, maxCap := 0, 0
	var next func(chain uint64) func()
	next = func(chain uint64) func() {
		return func() {
			maxCap = max(maxCap, cap(e.msgs))
			if sent == total {
				return
			}
			sent++
			g.Send(0, 0, e.Now()+time.Duration(1+chain)*time.Microsecond, chain, uint64(sent), next(chain))
		}
	}
	for c := uint64(0); c < chains; c++ {
		e.At(0, next(c))
	}
	g.Run()
	if g.Messages() != total {
		t.Errorf("Messages() = %d, want %d", g.Messages(), total)
	}
	if g.Windows() != 1 {
		t.Errorf("Windows() = %d, want 1 for a single shard", g.Windows())
	}
	if maxCap > 8*chains {
		t.Errorf("inbox capacity reached %d for %d outstanding messages", maxCap, chains)
	}
}
