// Command mccluster launches a replicated memcached serving cluster on
// loopback TCP and (optionally) drives it with an open-loop swarm of
// zipfian clients — the socket-level companion to the simulated fleet:
// same arrival and key-popularity math, real kernel sockets.
//
// Serve mode keeps N servers up until interrupted, printing the address
// list so external clients can point a cluster-aware client at them:
//
//	mccluster -servers 3 -replicas 2 -mem-mb 64
//
// Swarm mode adds a load generation phase and reports achieved req/s,
// front-cache hit rate, shed fraction, and failover counts:
//
//	mccluster -swarm -servers 3 -replicas 2 -clients 1000 -qps 50000 \
//	    -keys 1000000 -zipf 1.1 -duration 10s -max-inflight 512
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
	"hbb/internal/memcached/mccluster"
	"hbb/internal/swarm"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, stop); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "mccluster:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args and launches the cluster, then
// either serves until a value arrives on stop or runs the swarm phase and
// prints its report to stdout. Progress is logged to stderr.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) error {
	fset := flag.NewFlagSet("mccluster", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		servers  = fset.Int("servers", 3, "number of memcached servers to launch")
		replicas = fset.Int("replicas", 2, "copies of each key (clamped to -servers)")
		memMB    = fset.Int64("mem-mb", 64, "per-server item memory budget (MiB)")

		doSwarm     = fset.Bool("swarm", false, "drive the cluster with an open-loop load phase, then exit")
		clients     = fset.Int("clients", 1000, "swarm: open-loop client population")
		qps         = fset.Float64("qps", 50000, "swarm: aggregate target request rate")
		keys        = fset.Int("keys", 1_000_000, "swarm: distinct key population")
		zipf        = fset.Float64("zipf", 1.1, "swarm: key popularity skew (0 = uniform, else > 1)")
		valueBytes  = fset.Int("value-bytes", 64, "swarm: value size for sets")
		setFrac     = fset.Float64("set-frac", 0.1, "swarm: fraction of requests that are sets")
		duration    = fset.Duration("duration", 10*time.Second, "swarm: load phase length")
		seed        = fset.Int64("seed", 1, "swarm: generator seed")
		maxInflight = fset.Int("max-inflight", 0, "admission control bound (0 = unlimited)")
	)
	if err := fset.Parse(args); err != nil {
		return err
	}

	local, err := mccluster.LaunchLocal(*servers, memcached.Config{MemLimit: *memMB << 20})
	if err != nil {
		return err
	}
	defer local.Close()
	cluster, err := mccluster.New(local.Addrs(), mccluster.Options{
		Replicas:    *replicas,
		MaxInflight: int64(*maxInflight),
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	fmt.Fprintf(stderr, "mccluster: %d servers, R=%d, %d MiB each\n", *servers, *replicas, *memMB)
	for i, a := range local.Addrs() {
		fmt.Fprintf(stderr, "  server %d: %s\n", i, a)
	}

	if !*doSwarm {
		fmt.Fprintln(stderr, "mccluster: serving until interrupt")
		<-stop
		return nil
	}
	fmt.Fprintf(stderr, "mccluster: swarm %d clients, %.0f req/s target, %d keys, zipf %g, %s\n",
		*clients, *qps, *keys, *zipf, *duration)
	return runSwarm(stdout, cluster, *clients, *qps, *keys, *zipf, *valueBytes, *setFrac, *duration, *seed)
}

// runSwarm replays the open-loop arrival stream against the cluster in
// real time. Dispatch is asynchronous through a worker pool so a slow
// response never closes the loop; when the pool is saturated the request
// is counted as dropped at the generator, mirroring what an overloaded
// kernel accept queue would do.
func runSwarm(w io.Writer, c *mccluster.Cluster, clients int, qps float64, keys int, skew float64,
	valueBytes int, setFrac float64, duration time.Duration, seed int64) error {
	gen, err := swarm.NewOpenLoop(clients, qps, keys, skew, seed)
	if err != nil {
		return err
	}
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	type req struct {
		key   int
		isSet bool
	}
	var (
		issued, ok, failed, shed, dropped atomic.Int64
		wg                                sync.WaitGroup
	)
	// Worker pool sized for a pipelined client per server plus headroom;
	// the queue absorbs arrival bursts.
	workers := 4 * c.Replicas() * len(c.Addrs())
	if workers < 32 {
		workers = 32
	}
	queue := make(chan req, 4096)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				key := "swarm:" + strconv.Itoa(r.key)
				var err error
				if r.isSet {
					_, err = c.Set(&mcclient.Item{Key: key, Value: value})
				} else {
					_, err = c.Get(key)
					if mcclient.IsNotFound(err) {
						err = nil // cold key: a miss, not a failure
					}
				}
				switch {
				case err == nil:
					ok.Add(1)
				case mccluster.IsOverload(err):
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(duration)
	setMod := int64(1 << 30)
	if setFrac > 0 {
		setMod = int64(1 / setFrac)
	}
	for {
		at, key := gen.Next()
		when := start.Add(time.Duration(at))
		if when.After(deadline) {
			break
		}
		if d := time.Until(when); d > 0 {
			time.Sleep(d)
		}
		n := issued.Add(1)
		r := req{key: key, isSet: setFrac > 0 && n%setMod == 0}
		select {
		case queue <- r:
		default:
			dropped.Add(1) // generator-side drop: the pool is saturated
		}
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)

	st := c.Stats()
	completed := ok.Load() + failed.Load() + shed.Load()
	fmt.Fprintf(w, "\nswarm report (%.2fs wall):\n", elapsed.Seconds())
	fmt.Fprintf(w, "  issued            %10d (%.0f req/s target)\n", issued.Load(), qps)
	fmt.Fprintf(w, "  completed         %10d (%.0f req/s achieved)\n", completed, float64(completed)/elapsed.Seconds())
	fmt.Fprintf(w, "  ok / failed       %10d / %d\n", ok.Load(), failed.Load())
	fmt.Fprintf(w, "  shed (admission)  %10d (%.2f%% of completed)\n", shed.Load(), pct(shed.Load(), completed))
	fmt.Fprintf(w, "  dropped (genside) %10d\n", dropped.Load())
	fmt.Fprintf(w, "  front-cache hits  %10d (%.2f%% of gets)\n", st.FrontCacheHits, st.HitRate()*100)
	fmt.Fprintf(w, "  hot gets          %10d, spread reads %d\n", st.HotGets, st.SpreadReads)
	fmt.Fprintf(w, "  failovers         %10d, repairs %d, replica errors %d\n", st.Failovers, st.Repairs, st.ReplicaErrors)
	if hot := c.HotKeys(5); len(hot) > 0 {
		fmt.Fprintf(w, "  hottest keys      %v\n", hot)
	}
	return nil
}

func pct(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
