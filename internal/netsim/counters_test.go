package netsim

// The solver-work counters are read by goldens, the benchmark harness
// and the cost-pin tests, quirks included: an empty re-solve (the last
// flow of a component completing) still counts, and a node failure
// skips the count only when survivors exist but none shares a
// component with a casualty. A Network counts one re-solve per flow
// transition; a Fleet rack counts one settle per instant with rate
// events, however many legs arrived or finished in it. These tables pin
// the semantics on the owners so a solver change cannot drift them
// silently.

import (
	"fmt"
	"testing"
	"time"

	"hbb/internal/sim"
)

func TestFlowCounterSemantics(t *testing.T) {
	type write struct {
		at       time.Duration
		src, dst NodeID
		n        int64
	}
	type kill struct {
		at   time.Duration
		node NodeID
	}
	const mb = 6_000_000 // 1 ms alone at RDMA bandwidth
	cases := []struct {
		name     string
		writes   []write
		kills    []kill
		resolves int64
		// activeObs/activeSum: count and sum of net.flows.active
		// observations — one per counted solve, of the draining-flow
		// population at that instant.
		activeObs int64
		activeSum float64
		aborts    int64
	}{
		{name: "no traffic"},
		{name: "loopback never enters the solver",
			writes: []write{{0, 2, 2, mb}}},
		{name: "lone flow: arrival plus empty completion solve",
			writes:   []write{{0, 0, 1, mb}},
			resolves: 2, activeObs: 2, activeSum: 1},
		{name: "two flows sharing an egress link",
			writes:   []write{{0, 0, 1, mb}, {0, 0, 2, 2 * mb}},
			resolves: 4, activeObs: 4, activeSum: 1 + 2 + 1 + 0},
		{name: "two disjoint flows",
			writes:   []write{{0, 0, 1, mb}, {0, 2, 3, 2 * mb}},
			resolves: 4, activeObs: 4, activeSum: 1 + 2 + 1 + 0},
		{name: "kill with no flows draining",
			kills: []kill{{10 * time.Microsecond, 1}}},
		{name: "kill of an idle node while others drain",
			writes:   []write{{0, 0, 1, mb}},
			kills:    []kill{{10 * time.Microsecond, 3}},
			resolves: 2, activeObs: 2, activeSum: 1},
		{name: "abort leaving no survivors counts its empty solve",
			writes:   []write{{0, 0, 1, mb}},
			kills:    []kill{{10 * time.Microsecond, 1}},
			resolves: 2, activeObs: 2, activeSum: 1, aborts: 1},
		{name: "abort with only disjoint survivors skips the solve",
			writes:   []write{{0, 0, 1, 100 * mb}, {0, 2, 3, mb}},
			kills:    []kill{{10 * time.Microsecond, 1}},
			resolves: 3, activeObs: 3, activeSum: 1 + 2 + 0, aborts: 1},
		{name: "abort with a sharing survivor re-solves it",
			writes:   []write{{0, 0, 1, 100 * mb}, {0, 0, 2, mb}},
			kills:    []kill{{10 * time.Microsecond, 1}},
			resolves: 4, activeObs: 4, activeSum: 1 + 2 + 1 + 0, aborts: 1},
		{name: "abort of both directions of one node",
			writes:   []write{{0, 0, 1, 100 * mb}, {0, 1, 2, 100 * mb}, {0, 3, 2, mb}},
			kills:    []kill{{10 * time.Microsecond, 1}},
			resolves: 5, activeObs: 5, activeSum: 1 + 2 + 3 + 1 + 0, aborts: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New(1)
			nw := New(e, RDMA, 4)
			for i, w := range tc.writes {
				e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
					p.Sleep(w.at)
					f, err := nw.StartFlow(w.src, w.dst)
					if err != nil {
						t.Errorf("StartFlow: %v", err)
						return
					}
					f.Write(p, w.n)
					f.Close(p)
				})
			}
			for i, k := range tc.kills {
				e.Spawn(fmt.Sprintf("k%d", i), func(p *sim.Proc) {
					p.Sleep(k.at)
					nw.SetDown(k.node, true)
				})
			}
			e.Run()
			m := nw.Metrics()
			if got := m.Counter("net.flow.resolves").Value(); got != tc.resolves {
				t.Errorf("net.flow.resolves = %d, want %d", got, tc.resolves)
			}
			h := m.Histogram("net.flows.active")
			if got := h.Count(); got != tc.activeObs {
				t.Errorf("net.flows.active observations = %d, want %d", got, tc.activeObs)
			}
			if got := h.Mean() * float64(h.Count()); got != tc.activeSum {
				t.Errorf("net.flows.active sum = %g, want %g", got, tc.activeSum)
			}
			if got := m.Counter("net.flow.aborts").Value(); got != tc.aborts {
				t.Errorf("net.flow.aborts = %d, want %d", got, tc.aborts)
			}
		})
	}
}

func TestFleetCounterSemantics(t *testing.T) {
	type xfer struct {
		at       time.Duration
		src, dst int
		n        int64
	}
	const mb = 6_000_000
	// 2 racks of 4 nodes: 0-3 in rack 0, 4-7 in rack 1. Legs starting at
	// t=0 share one settle; each completion instant is one more. Under
	// per-event re-solving (before settles) the three two-leg intra-rack
	// cases counted 2/4/6, 2/4/7 and 2/4/4.
	cases := []struct {
		name                   string
		xfers                  []xfer
		flows, resolves, links int64
	}{
		{name: "no traffic"},
		{name: "loopback and empty transfers never enter the solver",
			xfers: []xfer{{0, 1, 1, mb}, {0, 1, 2, 0}}},
		{name: "lone intra-rack leg: arrival touches 2 links, completion 0",
			xfers: []xfer{{0, 0, 1, mb}},
			flows: 1, resolves: 2, links: 2},
		{name: "same-pair legs ride one bundle",
			xfers: []xfer{{0, 0, 1, mb}, {0, 0, 1, 2 * mb}},
			flows: 2, resolves: 3, links: 2 + 2 + 0},
		{name: "two legs sharing an egress link",
			xfers: []xfer{{0, 0, 1, mb}, {0, 0, 2, 2 * mb}},
			flows: 2, resolves: 3, links: 3 + 2 + 0},
		{name: "two disjoint legs",
			xfers: []xfer{{0, 0, 1, mb}, {0, 2, 3, 2 * mb}},
			flows: 2, resolves: 3, links: 4 + 0 + 0},
		{name: "cross-rack transfer is two legs",
			xfers: []xfer{{0, 0, 5, mb}},
			flows: 2, resolves: 4, links: 2 + 0 + 2 + 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl, err := NewFleet(fleetTopo(2, 4, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range tc.xfers {
				fl.Env(x.src).At(x.at, func() {
					if err := fl.StartTransfer(x.src, x.dst, x.n, func() {}); err != nil {
						t.Errorf("StartTransfer: %v", err)
					}
				})
			}
			fl.Group().Run()
			st := fl.Stats()
			if st.Flows != tc.flows || st.Resolves != tc.resolves || st.LinksTouched != tc.links {
				t.Errorf("flows/resolves/links touched = %d/%d/%d, want %d/%d/%d",
					st.Flows, st.Resolves, st.LinksTouched, tc.flows, tc.resolves, tc.links)
			}
		})
	}
}
