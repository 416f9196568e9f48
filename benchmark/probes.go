package main

import (
	"fmt"
	"time"

	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// simProbes times the kernel primitives the sim workloads are made of, each
// in a loop of its own: a process sleeping, a process being spawned, a
// callback timer firing, a netsim RPC, and 16 processes moving flows
// between 8 nodes at once. Each probe is one span; its metric is that
// span's length over the iterations.
func simProbes(sz *sizes, tr *tracer, m map[string]float64) error {
	root := tr.begin("probes", -1)
	defer tr.end(root)
	var probeErr error
	probe := func(name string, n int, build func(e *sim.Env, n int)) {
		n /= sz.probeDiv
		e := sim.New(1)
		build(e, n)
		id := tr.begin(name, root)
		start := time.Now()
		e.Run()
		ns := float64(time.Since(start))
		tr.end(id)
		m[name+"_ns"] = ns / float64(n)
	}

	probe("probe.sim.sleep", 200_000, func(e *sim.Env, n int) {
		e.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	})
	probe("probe.sim.spawn", 100_000, func(e *sim.Env, n int) {
		e.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				e.Spawn("shot", func(*sim.Proc) {})
				p.Sleep(0) // requeue behind the child so it runs to completion
			}
		})
	})
	probe("probe.sim.timer", 1_000_000, func(e *sim.Env, n int) {
		fired := 0
		var tick func()
		tick = func() {
			if fired++; fired < n {
				e.After(time.Microsecond, tick)
			}
		}
		e.After(time.Microsecond, tick)
	})
	probe("probe.netsim.rpc", 50_000, func(e *sim.Env, n int) {
		nw := netsim.New(e, netsim.RDMA, 2)
		nw.Register(1, "echo", func(_ *sim.Proc, msg *netsim.Msg) netsim.Reply { return netsim.Reply{Size: msg.Size} })
		e.Spawn("caller", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if rep := nw.Call(p, &netsim.Msg{From: 0, To: 1, Service: "echo", Op: "e", Size: 4096}); rep.Err != nil {
					probeErr = fmt.Errorf("netsim rpc probe: %w", rep.Err)
					return
				}
			}
		})
	})
	const flowProcs, flowNodes = 16, 8
	probe("probe.netsim.flow", 48_000, func(e *sim.Env, n int) {
		nw := netsim.New(e, netsim.RDMA, flowNodes)
		for i := 0; i < flowProcs; i++ {
			src, dst := netsim.NodeID(i%flowNodes), netsim.NodeID((i+1+i/flowNodes)%flowNodes)
			e.Spawn("mover", func(p *sim.Proc) {
				for j := 0; j < n/flowProcs; j++ {
					if err := nw.TransferFlow(p, src, dst, 4<<20); err != nil {
						probeErr = fmt.Errorf("netsim flow probe: %w", err)
						return
					}
				}
			})
		}
	})
	return probeErr
}
