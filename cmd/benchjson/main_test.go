package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchLog = `goos: linux
goarch: amd64
pkg: hbb/internal/sim
BenchmarkSimSleep-2   	 1000000	      1234 ns/op	       0 B/op	       0 allocs/op
`

// TestLabelsKeepTheirNotes merges two labelled passes into one file, as
// `make bench` does with LABEL=before then LABEL=after: each label's note
// survives the other's merge, and re-running a label replaces only its own
// results and note.
func TestLabelsKeepTheirNotes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	merge := func(label, note string) Report {
		t.Helper()
		if err := run([]string{"-out", path, "-label", label, "-note", note},
			strings.NewReader(benchLog), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	merge("before", "host: a; commit: 111")
	rep := merge("after", "host: b; commit: 222")
	want := map[string]string{"before": "host: a; commit: 111", "after": "host: b; commit: 222"}
	if len(rep.Notes) != len(want) || rep.Notes["before"] != want["before"] || rep.Notes["after"] != want["after"] {
		t.Errorf("notes %v, want %v", rep.Notes, want)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Label != "before" || rep.Benchmarks[1].Label != "after" {
		t.Fatalf("benchmarks %+v, want one per label", rep.Benchmarks)
	}
	if b := rep.Benchmarks[1]; b.Package != "hbb/internal/sim" || b.Metrics["ns/op"] != 1234 {
		t.Errorf("parsed %+v", b)
	}
	rep = merge("after", "host: c; commit: 333")
	if rep.Notes["before"] != want["before"] || rep.Notes["after"] != "host: c; commit: 333" || len(rep.Benchmarks) != 2 {
		t.Errorf("re-running a label: notes %v, %d benchmarks", rep.Notes, len(rep.Benchmarks))
	}
}
