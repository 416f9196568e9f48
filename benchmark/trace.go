package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one call from the harness into a layer's public functions:
// what was called, when, and the span that caused it (-1 for a root).
// Start and End are nanoseconds since the tracer was made.
type span struct {
	Name       uint16 // index into tracer.names
	Parent     int32
	Start, End int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	names []string
	ids   map[string]uint16
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: make(map[string]uint16)}
}

// begin opens a span and returns its id, to be passed to end and to begin
// as the parent of the spans it causes.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	t.spans = append(t.spans, span{Name: id, Parent: parent, Start: now, End: now})
	n := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return n
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the length in nanoseconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == id {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// spanTotals is what one span name adds up to over a trace.
type spanTotals struct {
	Count       int
	Total, Self int64 // nanoseconds
}

// selfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus the part of its interval that its child
// spans cover. Children may overlap one another (concurrent callers under
// one window span), so the covered part is the union of their intervals
// clipped to the parent.
func selfTimes(names []string, spans []span) map[string]spanTotals {
	type iv struct{ a, b int64 }
	children := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]spanTotals, len(names))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			a, b := max(k.a, edge), min(k.b, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		t := out[names[s.Name]]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - covered
		out[names[s.Name]] = t
	}
	return out
}

// maxFileSpans caps the spans written out: a traced key-value pass holds
// over a million per-op spans, and the file is for reading one stretch of
// the run, not for archiving all of it. The per-name totals cover them all.
const maxFileSpans = 200_000

// write stores the trace as JSON under dir: the per-name totals over every
// span, then the first maxFileSpans spans as [name, id, parent, start_ns,
// end_ns] rows.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\": %q, \"seed\": %d, \"spans_recorded\": %d,\n \"totals\": {", workload, seed, len(t.spans))
	totals := selfTimes(t.names, t.spans)
	for i, name := range t.names {
		if i > 0 {
			w.WriteString(",")
		}
		tt := totals[name]
		fmt.Fprintf(w, "\n  %q: {\"count\": %d, \"total_ns\": %d, \"self_ns\": %d}", name, tt.Count, tt.Total, tt.Self)
	}
	w.WriteString("},\n \"columns\": [\"name\", \"id\", \"parent\", \"start_ns\", \"end_ns\"],\n \"spans\": [")
	for i, s := range t.spans {
		if i == maxFileSpans {
			break
		}
		if i > 0 {
			w.WriteString(",")
		}
		fmt.Fprintf(w, "\n  [%q, %d, %d, %d, %d]", t.names[s.Name], i, s.Parent, s.Start, s.End)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
