// Command bbench regenerates the paper's figures and tables. Each
// experiment builds fresh simulated testbeds, runs the paper's workloads
// on every backend, and prints a table whose rows mirror the published
// figure's series.
//
// Usage:
//
//	bbench -list
//	bbench -experiment fig3 -scale full
//	bbench -experiment all -scale small
//	bbench -experiment fig3 -backends hdfs,lustre,bb-adaptive
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hbb"
	"hbb/internal/profiling"
)

func main() {
	var (
		id       = flag.String("experiment", "all", "experiment id (fig1..fig10, tab1..tab9) or 'all'")
		scale    = flag.String("scale", "small", "sizing: 'small' (quick) or 'full' (paper-scale)")
		list     = flag.Bool("list", false, "list experiments and exit")
		backends = flag.String("backends", "", "comma-separated backends the macro-benchmarks compare (default: the paper's five; registered: "+strings.Join(hbb.BackendNames(), ",")+")")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbench:", err)
		os.Exit(1)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "bbench:", err)
		}
	}()

	if *backends != "" {
		var bs []hbb.Backend
		for _, name := range strings.Split(*backends, ",") {
			b, err := hbb.ParseBackend(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bbench:", err)
				flag.Usage()
				os.Exit(2)
			}
			bs = append(bs, b)
		}
		hbb.CompareBackends(bs)
	}

	if *list {
		for _, e := range hbb.Experiments() {
			fmt.Printf("%-5s %s\n      claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}
	sc := hbb.Scale(*scale)
	if sc != hbb.ScaleSmall && sc != hbb.ScaleFull {
		fmt.Fprintf(os.Stderr, "bbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	render := func(e hbb.Experiment) string {
		start := time.Now()
		table := e.Run(sc)
		return fmt.Sprintf("# %s — %s\n# claim: %s\n%s# (generated in %.1fs wall time, scale=%s)\n\n",
			e.ID, e.Title, e.Claim, table, time.Since(start).Seconds(), sc)
	}
	if *id == "all" {
		// Render whole experiments on GOMAXPROCS workers (their cells use
		// GOMAXPROCS workers too), then print in paper order: each
		// experiment is seeded and self-contained, so the report is
		// identical at any GOMAXPROCS. tab8 and tab9 measure wall time and
		// heap per cell, so they run after the pool with the host to
		// themselves.
		exps := hbb.Experiments()
		outputs := make([]string, len(exps))
		var pooled, solo []int
		for i, e := range exps {
			if e.ID == "tab8" || e.ID == "tab9" {
				solo = append(solo, i)
			} else {
				pooled = append(pooled, i)
			}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := min(runtime.GOMAXPROCS(0), len(pooled)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(pooled); k = int(next.Add(1)) - 1 {
					outputs[pooled[k]] = render(exps[pooled[k]])
				}
			}()
		}
		wg.Wait()
		for _, i := range solo {
			outputs[i] = render(exps[i])
		}
		for _, out := range outputs {
			fmt.Print(out)
		}
		return
	}
	e, ok := hbb.ExperimentByID(*id)
	if !ok {
		fmt.Fprintf(os.Stderr, "bbench: unknown experiment %q (try -list)\n", *id)
		os.Exit(2)
	}
	fmt.Print(render(e))
}
