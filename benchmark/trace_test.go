package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	names := []string{"window", "op", "inner"}
	spans := []span{
		{Name: 0, Parent: -1, Start: 0, End: 100}, // 0: window
		{Name: 1, Parent: 0, Start: 10, End: 40},  // 1: op, caller A
		{Name: 1, Parent: 0, Start: 30, End: 60},  // 2: op, caller B, overlaps A by 10
		{Name: 1, Parent: 0, Start: 90, End: 120}, // 3: op that outlives its parent: clipped to 10
		{Name: 2, Parent: 1, Start: 15, End: 25},  // 4: grandchild, covers only its own parent
		{Name: 1, Parent: 0, Start: 35, End: 38},  // 5: wholly inside an interval already covered
	}
	got := selfTimes(names, spans)
	// window: 100 long, children cover [10,60) and [90,100) = 60.
	if w := got["window"]; w != (spanTotals{Count: 1, Total: 100, Self: 40}) {
		t.Errorf("window = %+v, want total 100, self 40", w)
	}
	// ops: 30 + 30 + 30 + 3 long; only span 1 has a child, of 10.
	if o := got["op"]; o != (spanTotals{Count: 4, Total: 93, Self: 83}) {
		t.Errorf("op = %+v, want total 93, self 83", o)
	}
	if in := got["inner"]; in != (spanTotals{Count: 1, Total: 10, Self: 10}) {
		t.Errorf("inner = %+v, want total 10, self 10", in)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.begin("x", -1); id != -1 {
		t.Errorf("nil tracer began span %d, want -1", id)
	}
	off.end(-1) // must not panic

	tr := newTracer()
	root := tr.begin("root", -1)
	child := tr.begin("call", root)
	tr.end(child)
	tr.end(root)
	if d := tr.durations("call"); len(d) != 1 || d[0] < 0 {
		t.Errorf("durations(call) = %v, want one non-negative length", d)
	}
	if d := tr.durations("absent"); d != nil {
		t.Errorf("durations(absent) = %v, want none", d)
	}
	path, err := tr.write(t.TempDir(), "unit", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string                    `json:"workload"`
		Seed     int64                     `json:"seed"`
		Totals   map[string]map[string]int `json:"totals"`
		Spans    [][]any                   `json:"spans"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("trace file is not JSON: %v\n%s", err, b)
	}
	if file.Workload != "unit" || file.Seed != 3 || len(file.Spans) != 2 || file.Totals["call"]["count"] != 1 {
		t.Errorf("trace file = %+v", file)
	}
	if file.Spans[1][0] != "call" || file.Spans[1][2] != float64(root) {
		t.Errorf("span row = %v, want name call and parent %d", file.Spans[1], root)
	}
}
