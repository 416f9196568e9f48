package hbb

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"hbb/internal/hashring"
	"hbb/internal/memcached"
	"hbb/internal/metrics"
	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// fig2ProcessCell is the oracle for fig2's callback clients: one sim
// process per client, each SET a blocking RDMAWriteFlow and a Call to a
// registered "kv" service whose handler sleeps out the service time and
// stores the item. It returns the cell's row and the events its run took.
func fig2ProcessCell(clients int) ([]any, int64) {
	env := sim.New(1)
	nw := netsim.New(env, netsim.RDMA, clients+fig2Servers)
	ring := hashring.New(0)
	engines := map[string]netsim.NodeID{}
	for s := 0; s < fig2Servers; s++ {
		name := fmt.Sprintf("srv%d", s)
		node := netsim.NodeID(clients + s)
		eng := memcached.NewEngine(memcached.Config{MemLimit: 256 << 20})
		nw.Register(node, "kv", func(p *sim.Proc, m *netsim.Msg) netsim.Reply {
			p.Sleep(fig2Service)
			_, err := eng.Set(memcached.Item{Key: m.Payload.(string), Size: fig2Value})
			return netsim.Reply{Size: 32, Err: err}
		})
		ring.Add(name)
		engines[name] = node
	}
	for c := 0; c < clients; c++ {
		env.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			msg := netsim.Msg{From: netsim.NodeID(c), Service: "kv", Op: "set", Size: 64}
			prefix := "c" + strconv.Itoa(c) + "-k"
			for i := 0; i < fig2Ops; i++ {
				key := prefix + strconv.Itoa(i)
				node := engines[ring.Get(key)]
				_ = nw.RDMAWriteFlow(p, netsim.NodeID(c), node, fig2Value)
				msg.To, msg.Payload = node, key
				nw.Call(p, &msg)
			}
		})
	}
	dur := env.Run()
	totalOps := float64(clients * fig2Ops)
	return []any{clients, totalOps / dur.Seconds() / 1e3, totalOps * fig2Value / 1e6 / dur.Seconds()}, env.Events()
}

// renderRow formats a table row as fig2's table renders it.
func renderRow(row []any) []string {
	t := metrics.NewTable("", "clients", "Kops/s", "MB/s")
	t.AddRow(row...)
	return t.Rows[0]
}

// Every fig2 cell's chain clients render the process oracle's row after
// the same number of events, and no cell spawns a process: a process is a
// coroutine, so the goroutine count mid-run stays where it was.
func TestFig2MatchesProcessOracle(t *testing.T) {
	for _, clients := range []int{1, 2, 4, 8, 16, 32, 64} {
		want, wantEvents := fig2ProcessCell(clients)
		cell := newFig2Cell(clients)
		// The probe is one more event than the cell's own.
		base, during := runtime.NumGoroutine(), 0
		cell.env.At(time.Microsecond, func() { during = runtime.NumGoroutine() })
		got := cell.row(cell.run())
		if g, w := renderRow(got), renderRow(want); !slices.Equal(g, w) {
			t.Errorf("%d clients: row %v, process oracle %v", clients, g, w)
		}
		if g := cell.env.Events() - 1; g != wantEvents {
			t.Errorf("%d clients: %d events, process oracle %d", clients, g, wantEvents)
		}
		if during > base {
			t.Errorf("%d clients: %d goroutines mid-run, %d before: the cell spawned a process", clients, during, base)
		}
	}
}

// A warmed 64-client cell allocates at most one object per SET, its key.
// Warm means every buffer the cell only grows is at its final size: the
// engines hold every key, the network's and the kernel's pools and the
// event heap are grown, and the fabric's flows-active histogram, which
// keeps raw samples up to 2^20 (two per SET here), is full after 21 runs.
func TestFig2AllocatesOnlyKeys(t *testing.T) {
	cell := newFig2Cell(64)
	for range 21 {
		cell.run()
	}
	sets := float64(64 * fig2Ops)
	if per := testing.AllocsPerRun(2, func() { cell.run() }) / sets; per > 1 {
		t.Errorf("%.5f allocations per SET on a warmed cell, want <= 1", per)
	}
}
