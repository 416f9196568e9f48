// Command benchjson converts `go test -bench` output into a JSON summary.
// It tees its stdin to stdout (so the raw benchmark log stays visible) and
// writes the parsed results to -out, recording the host context Go prints
// (goos/goarch/pkg/cpu) alongside each measurement.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -out BENCH.json
//
// With -label, every result is tagged (e.g. "before", "after") and merged
// into the report already at -out, replacing earlier results that carry the
// same label; one file then holds both sides of a comparison, and -note is
// kept per label, so it names each side's host and commit.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Label   string             `json:"label,omitempty"`
	Package string             `json:"package,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"` // unit → value, e.g. "ns/op": 133.5
}

// Report is the JSON document benchjson emits.
type Report struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Note   string `json:"note,omitempty"`
	// Notes holds each label's -note: label → note.
	Notes      map[string]string `json:"notes,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
}

// run is the command: it parses args, tees stdin to stdout, and writes
// the report, logging the result count to stderr.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fset := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fset.SetOutput(stderr)
	out := fset.String("out", "BENCH.json", "output JSON path")
	note := fset.String("note", "", "free-form context recorded in the report (hardware caveats etc.), kept per label under -label")
	label := fset.String("label", "", "tag every result with this label and merge into the report already at -out")
	if err := fset.Parse(args); err != nil {
		return err
	}

	rep := Report{Benchmarks: []Benchmark{}}
	if *label != "" {
		prev, err := os.ReadFile(*out)
		if err == nil {
			err = json.Unmarshal(prev, &rep)
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("merge into %s: %v", *out, err)
		}
		rep.Benchmarks = slices.DeleteFunc(rep.Benchmarks, func(b Benchmark) bool { return b.Label == *label })
		delete(rep.Notes, *label)
		if *note != "" {
			if rep.Notes == nil {
				rep.Notes = map[string]string{}
			}
			rep.Notes[*label] = *note
		}
	} else if *note != "" {
		rep.Note = *note
	}
	pkg := ""
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(stdout, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				b.Package, b.Label = pkg, *label
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %v", err)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode: %v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write: %v", err)
	}
	fmt.Fprintf(stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	return nil
}

// parseBench decodes one result line:
//
//	BenchmarkName-8   123456   133.5 ns/op   15 B/op   0 allocs/op
//
// Fields after the iteration count come in value/unit pairs.
func parseBench(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
