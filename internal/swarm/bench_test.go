package swarm

import (
	"testing"
	"time"
)

// arrivalsRack builds a 4-rack swarm of clients at 100 QPS each whose
// horizon is never reached, over windows of the given ticks, and returns
// rack 0 and the tick.
func arrivalsRack(tb testing.TB, clients int, window int64) (*rackGen, int64) {
	var s *Swarm
	var err error
	withWindowCap(window, func() {
		s, err = New(Config{
			Clients:   clients,
			TargetQPS: 100 * float64(clients),
			Zipf:      1.1,
			Duration:  time.Hour, // clients never retire mid-benchmark
			Seed:      1,
		}, testFleet(tb, 4, 8, 1))
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s.racks[0], s.tickNs
}

// dropScratch discards a tick's batches in place of flush.
func dropScratch(g *rackGen) {
	for _, d := range g.touched {
		g.bytes[d], g.reqs[d] = 0, 0
	}
	g.touched = g.touched[:0]
}

// BenchmarkSwarmArrivals measures the arrival engine's whole cost per
// arrival — the window sweeps' gap draws and binning, and each tick's key
// draws and batching scratch accumulate — with one op per generated
// arrival, so ns/op is ns per arrival. Windows are the runtime's 2^16
// ticks, about 4.2 M arrivals a rack whatever its population; the first
// window is re-swept inside the timer, and a run that stops inside a
// window has paid all of that window's gap draws, which overstates
// ns/arrival by a few ns. 25 k clients per rack keep the carried records
// cache-resident; 250 k per rack (10^6 over 4 racks) is the regime the
// million-client runs are in. On a 2-vCPU Xeon VM both read 71–79 ns,
// against 79–86 and 95–112 for the linked-list tick calendar this
// schedule replaced: the cost no longer grows with the population. A
// window only a fraction of a client's gap long would cost more, since
// every carried client is visited once a window. The acceptance bar is 0
// allocs/op in steady state.
func BenchmarkSwarmArrivals(b *testing.B) {
	for _, bc := range []struct {
		name    string
		clients int
	}{{"25k-per-rack", 100_000}, {"250k-per-rack", 1_000_000}} {
		b.Run(bc.name, func(b *testing.B) {
			g, tick := arrivalsRack(b, bc.clients, maxWindow)
			b.ReportAllocs()
			b.ResetTimer()
			g.sweep(0)
			var total int64
			for now := int64(0); total < int64(b.N); {
				now += tick
				total += g.advance(now)
				dropScratch(g)
			}
			b.StopTimer()
			if total > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/arrival")
				b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Marrivals/s")
			}
		})
	}
}
