package swarm

import (
	"testing"
	"time"
)

// arrivalsRack builds a 4-rack swarm of clients at 100 QPS each whose
// horizon is never reached, and returns rack 0 and the tick.
func arrivalsRack(tb testing.TB, clients int) (*rackGen, int64) {
	s, err := New(Config{
		Clients:   clients,
		TargetQPS: 100 * float64(clients),
		Zipf:      1.1,
		Duration:  time.Hour, // clients never retire mid-benchmark
		Seed:      1,
	}, testFleet(tb, 4, 8, 1))
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

// BenchmarkSwarmArrivals measures the arrival engine's hot path — unlink
// the due clients, PRNG draws, batching scratch accumulate, re-file — with
// one op per generated arrival, so ns/op is ns per arrival. 25 k clients
// per rack keep the records cache-resident; 250 k per rack (10^6 over 4
// racks) is the cache-cold regime the million-client runs are in. The
// acceptance bar is 0 allocs/op in steady state.
func BenchmarkSwarmArrivals(b *testing.B) {
	for _, bc := range []struct {
		name    string
		clients int
	}{{"25k-per-rack", 100_000}, {"250k-per-rack", 1_000_000}} {
		b.Run(bc.name, func(b *testing.B) {
			g, tick := arrivalsRack(b, bc.clients)
			// Warm the scratch so steady state is what gets measured.
			now := tick
			g.advance(now)
			dropScratch(g)
			b.ReportAllocs()
			b.ResetTimer()
			var total int64
			for total < int64(b.N) {
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
