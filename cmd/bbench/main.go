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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hbb"
	"hbb/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bbench:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args and prints the chosen experiments'
// tables (or the experiment list) to stdout.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fset := flag.NewFlagSet("bbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		id       = fset.String("experiment", "all", "experiment id (fig1..fig10, tab1..tab9) or 'all'")
		scale    = fset.String("scale", "small", "sizing: 'small' (quick) or 'full' (paper-scale)")
		list     = fset.Bool("list", false, "list experiments and exit")
		backends = fset.String("backends", "", "comma-separated backends the macro-benchmarks compare (default: the paper's five; registered: "+strings.Join(hbb.BackendNames(), ",")+")")
		cpuProf  = fset.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fset.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fset.Parse(args); err != nil {
		return err
	}

	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	if *backends != "" {
		var bs []hbb.Backend
		for _, name := range strings.Split(*backends, ",") {
			b, err := hbb.ParseBackend(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			bs = append(bs, b)
		}
		hbb.CompareBackends(bs)
	}

	if *list {
		for _, e := range hbb.Experiments() {
			fmt.Fprintf(stdout, "%-5s %s\n      claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	sc := hbb.Scale(*scale)
	if sc != hbb.ScaleSmall && sc != hbb.ScaleFull {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	render := func(e hbb.Experiment) {
		start := time.Now()
		table := e.Run(sc)
		fmt.Fprintf(stdout, "# %s — %s\n# claim: %s\n%s# (generated in %.1fs wall time, scale=%s)\n\n",
			e.ID, e.Title, e.Claim, table, time.Since(start).Seconds(), sc)
	}
	if *id == "all" {
		// One experiment at a time, in paper order: each runs its own
		// cells on GOMAXPROCS workers, and tab8/tab9's host-time columns
		// get the host to themselves.
		for _, e := range hbb.Experiments() {
			render(e)
		}
		return nil
	}
	e, ok := hbb.ExperimentByID(*id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", *id)
	}
	render(e)
	return nil
}
