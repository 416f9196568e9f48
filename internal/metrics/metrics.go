// Package metrics provides lightweight counters, histograms, and report
// tables used by the simulation and the benchmark harness. None of the
// types are goroutine-safe; in the simulation exactly one process runs at a
// time, so no locking is needed.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Registry is a named collection of metrics.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.order = append(r.order, name)
	}
	return c
}

// Histogram returns (creating if needed) the histogram with the given name.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
		r.order = append(r.order, name)
	}
	return h
}

// Names returns all metric names in creation order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// String renders every metric, one per line, sorted by name.
func (r *Registry) String() string {
	names := r.Names()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if c, ok := r.counters[n]; ok {
			fmt.Fprintf(&b, "%s: %d\n", n, c.Value())
		}
		if h, ok := r.hists[n]; ok {
			fmt.Fprintf(&b, "%s: %s\n", n, h)
		}
	}
	return b.String()
}

// View is a name-prefixed window onto a Registry: every metric created
// through it lives in the underlying registry under prefix+name. Buffer
// instances use views to namespace their metrics (`bb.<instance>.flush.*`)
// inside one shared pool registry; the default instance's view has the
// empty prefix.
type View struct {
	r      *Registry
	prefix string
}

// View returns a prefixed window onto the registry.
func (r *Registry) View(prefix string) *View { return &View{r: r, prefix: prefix} }

// Counter returns (creating if needed) the counter prefix+name.
func (v *View) Counter(name string) *Counter { return v.r.Counter(v.prefix + name) }

// Histogram returns (creating if needed) the histogram prefix+name.
func (v *View) Histogram(name string) *Histogram { return v.r.Histogram(v.prefix + name) }

// Counter is a monotonically adjustable integer.
type Counter struct{ v int64 }

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v += delta }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v }

// Histogram records float64 observations and reports count, mean, min/max,
// and approximate quantiles (exact up to its retention cap, reservoir-free:
// it simply keeps all samples up to the cap, which the simulation's sample
// counts never exceed in practice).
type Histogram struct {
	samples []float64
	sum     float64
	count   int64
	min     float64
	max     float64
	sorted  bool
	cap     int
}

// NewHistogram returns an empty histogram retaining up to 1<<20 samples.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1), cap: 1 << 20}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, v)
		h.sorted = false
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Merge folds another histogram's observations into h. Sharded runs keep
// one histogram per shard-owned domain (no locking, no cross-shard
// writes) and merge them into a registry histogram after the run; the
// result is identical to observing every sample on h directly, up to the
// retention cap.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for _, v := range o.samples {
		if len(h.samples) >= h.cap {
			break
		}
		h.samples = append(h.samples, v)
	}
	h.sorted = false
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) over retained samples.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := q * float64(len(h.samples)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return h.samples[lo]
	}
	frac := idx - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g",
		h.Count(), h.Mean(), h.Min(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Table is a simple fixed-column text table used by the experiment harness
// to print paper-figure-shaped output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.2fs", v.Seconds())
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
