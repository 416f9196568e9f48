// Command benchmark is the repository's one regressable benchmark: six
// workloads over both worlds (the simulator that reproduces the paper and
// the socket key-value tier), three end-to-end metrics that every workload
// reports, and a per-layer budget from a separate traced pass. See
// README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./benchmark                          every workload, both passes
//	go run ./benchmark -repeat 3                the same three times, with spreads
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is what the driver runs: one workload in this process,
// with one JSON object as the last line of standard output. The other two
// run each workload in a child process of its own, so that peak memory and
// collector state belong to one workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds, the default for -seconds.
const runSeconds = 12

func main() {
	name := flag.String("workload", "", "run this one workload in this process and end with a JSON line; default: all, each in a child process")
	seed := flag.Int64("seed", 1, "seeds the key-value op streams and the fleet; paper_suite keeps the experiments' own pinned seed")
	seconds := flag.Float64("seconds", runSeconds, "how long a run measures")
	trace := flag.Int("trace", 0, "with -workload: 0 for the untraced pass and the end-to-end metrics, 1 for the traced pass and the per-layer metrics")
	repeat := flag.Int("repeat", 1, "without -workload: run the whole benchmark this many times and print each metric's spread")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *name != "" {
		err = runOne(os.Stdout, *name, fullSizes(), *seed, *seconds, *trace == 1)
	} else {
		err = runAll(os.Stdout, *seed, *seconds, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// jsonMetric and jsonLine are the last line of a single-workload run.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runOne runs one workload in this process and emits what it found.
func runOne(out io.Writer, name string, sz *sizes, seed int64, seconds float64, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("no workload %q", name)
	}
	res, err := runWorkload(w, sz, seed, seconds, traced)
	if err != nil {
		return err
	}
	return emit(out, res)
}

// emit prints the report of a run and then its JSON line: the per-layer
// metrics after a traced run, the end-to-end metrics after an untraced one.
// A failed output check still prints both, and is an error.
func emit(out io.Writer, res *result) error {
	printReport(out, res)
	line := jsonLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]jsonMetric)}
	defs, values := endToEnd, res.EndToEnd
	if res.PerLayer != nil {
		defs, values = perLayer, res.PerLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = jsonMetric{Value: values[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	if !res.Correct {
		return fmt.Errorf("%s: output check failed: %s", res.Workload, res.Checks[len(res.Checks)-1])
	}
	return nil
}

func printReport(out io.Writer, res *result) {
	pass := "untraced"
	if res.PerLayer != nil {
		pass = "traced"
	}
	fmt.Fprintf(out, "== %s (%s pass) %s\n", res.Workload, pass, hostHeader(res.Seed))
	q1, med, q3 := quartiles(res.UnitOpsPerS)
	fmt.Fprintf(out, "  %d timed units, ops/s per unit: q1 %.4g, median %.4g, q3 %.4g\n", len(res.UnitOpsPerS), q1, med, q3)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-28s %14.4f %-6s (%s is better, bound %.0f%%)\n", d.Name, res.EndToEnd[d.Name], d.Unit, d.Better, d.Bound*100)
	}
	layers := res.PerLayer
	if layers == nil {
		layers = res.Own // an untraced run still shows what only this workload measures
	}
	for _, d := range perLayer {
		if v := layers[d.Name]; v != 0 {
			fmt.Fprintf(out, "  %-28s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if res.PerLayer != nil {
		fmt.Fprintf(out, "  (per-layer metrics at 0 are layers this workload does not run; trace: %s)\n", res.TracePath)
	}
	for _, k := range sortedKeys(res.IDs) {
		fmt.Fprintf(out, "  %-28s %14s (identity: equal or not)\n", k, res.IDs[k])
	}
	fmt.Fprintf(out, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, c := range res.Checks {
		fmt.Fprintf(out, "  check: %s\n", c)
	}
}

// runChild runs one pass of one workload in a child process, passes its
// report through, and returns its JSON line.
func runChild(out io.Writer, exe, name string, seed int64, seconds float64, trace int) (jsonLine, error) {
	var line jsonLine
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	fmt.Fprintln(out, text[:max(cut, 0)])
	if runErr != nil {
		return line, fmt.Errorf("%s --trace %d: %w", name, trace, runErr)
	}
	if err := json.Unmarshal([]byte(text[cut+1:]), &line); err != nil {
		return line, fmt.Errorf("%s --trace %d: last line: %w", name, trace, err)
	}
	return line, nil
}

// runAll runs every workload, untraced then traced, repeat times over, and
// with repeat > 1 prints how far each metric moved between the runs.
func runAll(out io.Writer, seed int64, seconds float64, repeat int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# benchmark: %d workloads x %d runs, %.3gs per pass, %s\n", len(workloads), repeat, seconds, hostHeader(seed))
	samples := make(map[string]map[string][]float64) // workload -> metric -> one value per run
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			if samples[w.name] == nil {
				samples[w.name] = make(map[string][]float64)
			}
			for trace := 0; trace <= 1; trace++ {
				line, err := runChild(out, exe, w.name, seed, seconds, trace)
				if err != nil {
					return err
				}
				for k, v := range line.Metrics {
					samples[w.name][k] = append(samples[w.name][k], v.Value)
				}
			}
		}
	}
	if repeat > 1 {
		printSpreads(out, samples)
	}
	return nil
}

// printSpreads prints, per workload and metric, the lowest, median and
// highest value over the runs and their range and quartile distance as
// shares of the median; for an end-to-end metric, beside its bound.
func printSpreads(out io.Writer, samples map[string]map[string][]float64) {
	row := func(name string, d metricDef, vs []float64) {
		lo, hi, med := slices.Min(vs), slices.Max(vs), median(vs)
		rng := 0.0
		if med != 0 {
			rng = (hi - lo) / med
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.Bound*100)
		}
		fmt.Fprintf(out, "  %-28s %-6s min %14.4f  median %14.4f  max %14.4f  range %6.2f%%  iqr %6.2f%%%s\n",
			name, d.Unit, lo, med, hi, rng*100, spread(vs)*100, bound)
	}
	for _, w := range workloads {
		fmt.Fprintf(out, "== spread: %s\n", w.name)
		for _, d := range endToEnd {
			row(d.Name, d, samples[w.name][d.Name])
		}
		for _, d := range perLayer {
			if vs := samples[w.name][d.Name]; median(vs) != 0 {
				row(d.Name, d, vs)
			}
		}
	}
}
