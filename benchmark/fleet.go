package main

import (
	"fmt"
	"time"

	"hbb"
)

// fleetCounts are the figures of one swarm run that the same seed must
// reproduce exactly, whatever the host does.
type fleetCounts struct {
	Fingerprint               uint64
	Requests, Completed, Shed int64
	Events, Windows, Messages int64
	Resolves, LinksTouched    int64
	Flows, MaxInflight        int64
	Virtual                   time.Duration
}

type fleet struct {
	sz         *sizes
	opts       hbb.Options
	reqPerS    []float64
	heapPerCli []float64
	first      *fleetCounts
	mismatch   error
}

func setupFleetSwarm(sz *sizes, seed int64) (instance, error) {
	return setupFleet(sz, seed, hbb.SwarmOptions{
		Clients: sz.swarmClients, TargetQPS: sz.swarmQPS, Zipf: 1.1, RequestBytes: 256, Duration: 10 * time.Millisecond,
	})
}

func setupFleetOverload(sz *sizes, seed int64) (instance, error) {
	return setupFleet(sz, seed, hbb.SwarmOptions{
		Clients: sz.overloadClients, TargetQPS: sz.overloadQPS, Zipf: 1.1, RequestBytes: 96 << 10, Duration: 10 * time.Millisecond,
	})
}

func setupFleet(sz *sizes, seed int64, sw hbb.SwarmOptions) (instance, error) {
	f := &fleet{sz: sz, opts: hbb.Options{
		Nodes: sz.fleetNodes, RacksOf: sz.fleetRacksOf, FleetMode: true,
		Seed: seed, SimShards: sz.fleetShards, Swarm: sw,
	}}
	for i := 0; i < sz.fleetWarm; i++ {
		if _, _, err := f.unit(nil, -1); err != nil {
			return nil, err
		}
	}
	f.reqPerS, f.heapPerCli, f.first = nil, nil, nil
	return f, nil
}

// unit builds a fleet and runs the swarm over it once. The work is the
// swarm's requests and the wall time is the run's own (SwarmResult.Wall),
// which starts after the fleet and the client records are built: the two
// spans and host.cpu_us_per_op show that part, ops_per_s does not.
func (f *fleet) unit(tr *tracer, parent int32) (int64, time.Duration, error) {
	id := tr.begin("fleet.new", parent)
	fb, err := hbb.NewFleet(f.opts)
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	id = tr.begin("fleet.run", parent)
	res, err := fb.RunSwarm()
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	reg := fb.Metrics()
	c := &fleetCounts{
		Fingerprint: res.Fingerprint,
		Requests:    res.Requests, Completed: res.Completed, Shed: res.Shed,
		Events: res.Events, Windows: res.Windows, Messages: res.Messages,
		Resolves:     reg.Counter("fleet.resolves").Value(),
		LinksTouched: reg.Counter("fleet.links.touched").Value(),
		Flows:        reg.Counter("fleet.flows").Value(),
		MaxInflight:  res.MaxInflight,
		Virtual:      res.Elapsed,
	}
	if f.first == nil {
		f.first = c
	} else if *c != *f.first && f.mismatch == nil {
		f.mismatch = fmt.Errorf("run %d differs from run 1 on the same seed:\n%+v\n%+v", len(f.reqPerS)+1, *c, *f.first)
	}
	if c.Requests == 0 {
		return 0, 0, fmt.Errorf("swarm generated no requests")
	}
	f.reqPerS = append(f.reqPerS, float64(res.Requests)/res.Wall.Seconds())
	f.heapPerCli = append(f.heapPerCli, res.HeapBPerClient)
	return res.Requests, res.Wall, nil
}

func (f *fleet) report(m map[string]float64, ids map[string]string) {
	c := f.first
	m["sim_req_per_wall_s"] = median(f.reqPerS)
	m["heap_bytes_per_client"] = median(f.heapPerCli)
	m["fleet.events_per_req"] = float64(c.Events) / float64(c.Requests)
	m["fleet.windows"] = float64(c.Windows)
	m["fleet.messages"] = float64(c.Messages)
	m["fleet.resolves"] = float64(c.Resolves)
	if c.Resolves > 0 {
		m["fleet.links_per_resolve"] = float64(c.LinksTouched) / float64(c.Resolves)
	}
	m["fleet.flows"] = float64(c.Flows)
	m["fleet.shed_frac"] = float64(c.Shed) / float64(c.Requests)
	m["fleet.max_inflight"] = float64(c.MaxInflight)
	m["fleet.virtual_s"] = c.Virtual.Seconds()
	ids["fleet.fingerprint"] = fmt.Sprintf("%016x", c.Fingerprint)
}

func (f *fleet) finish() (int64, int64, []string, error) {
	attempted := int64(len(f.reqPerS))
	if f.mismatch != nil {
		return attempted, 0, nil, f.mismatch
	}
	c := f.first
	if c.Completed+c.Shed != c.Requests {
		return attempted, 0, nil, fmt.Errorf("completed %d + shed %d != requests %d", c.Completed, c.Shed, c.Requests)
	}
	return attempted, 0, []string{
		fmt.Sprintf("fingerprint and every fleet.* count identical across %d runs", attempted),
		"completed + shed = requests",
	}, nil
}

func (f *fleet) layers(tr *tracer, m map[string]float64) error {
	m["span.fleet.new_ms"] = medianMS(tr.durations("fleet.new"))
	m["span.fleet.run_ms"] = medianMS(tr.durations("fleet.run"))
	return simProbes(f.sz, tr, m)
}

func (f *fleet) close() {}
