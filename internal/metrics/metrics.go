// Package metrics provides lightweight counters, histograms, and report
// tables used by the simulation and the benchmark harness. A histogram is
// fixed-size and log-linear: it keeps bucket counts, not samples, so it
// can stay on in every run at any sample count. None of the types are
// goroutine-safe; in the simulation exactly one process runs at a time,
// so no locking is needed.
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

// Histogram records float64 observations in a fixed-size log-linear
// layout and reports count, mean, min/max and quantiles. A bucket is a
// float64's sign, exponent and top subBits mantissa bits: 32 linear
// buckets per power of two, each at most 1/32 of its values wide (the
// layout of the benchmark harness's latency histogram). Zero has a
// counter of its own. The 32 counters of a power of two are one page,
// allocated when that power of two is first observed, so Observe
// allocates nothing after that and memory does not grow with the count.
//
// Count, sum, min and max are exact. Quantile keeps the q·(n−1) rank
// convention of a sorted sample list: q=0 and q=1 return min and max
// exactly, and any other quantile is within 1/32 of the sorted-list
// answer (within 2^-1027 for subnormal values). NaN observations are
// ignored.
type Histogram struct {
	pos, neg buckets // magnitudes of the positive and the negative observations
	zeros    int64
	count    int64
	sum      float64
	min      float64
	max      float64
}

// subBits is log2 of the linear buckets per power of two.
const subBits = 5

type page [1 << subBits]int64

// buckets counts magnitudes by biased float64 exponent: pages[i] holds
// exponent lo+i, nil until a magnitude with that exponent is added.
type buckets struct {
	lo    int
	n     int64
	pages []*page
}

// bucketOf returns the exponent and linear sub-bucket of a magnitude m > 0.
func bucketOf(m float64) (exp, sub int) {
	b := math.Float64bits(m)
	return int(b >> 52), int(b>>(52-subBits)) & (1<<subBits - 1)
}

func (b *buckets) add(exp, sub int, n int64) {
	switch {
	case b.pages == nil:
		b.lo, b.pages = exp, make([]*page, 1)
	case exp < b.lo:
		grown := make([]*page, b.lo+len(b.pages)-exp)
		copy(grown[b.lo-exp:], b.pages)
		b.lo, b.pages = exp, grown
	case exp >= b.lo+len(b.pages):
		b.pages = append(b.pages, make([]*page, exp-b.lo-len(b.pages)+1)...)
	}
	p := b.pages[exp-b.lo]
	if p == nil {
		p = new(page)
		b.pages[exp-b.lo] = p
	}
	p[sub] += n
	b.n += n
}

func (b *buckets) merge(o *buckets) {
	for i, p := range o.pages {
		if p == nil {
			continue
		}
		for sub, c := range p {
			if c != 0 {
				b.add(o.lo+i, sub, c)
			}
		}
	}
}

// at estimates the r-th smallest magnitude (0-based, r < b.n): its
// bucket's lower bound plus the bucket's width times r's position among
// the bucket's counts, as if they were spread evenly across it.
func (b *buckets) at(r int64) float64 {
	for i, p := range b.pages {
		if p == nil {
			continue
		}
		for sub, c := range p {
			if r >= c {
				r -= c
				continue
			}
			exp := uint64(b.lo+i) << 52
			low := math.Float64frombits(exp | uint64(sub)<<(52-subBits))
			if math.IsInf(low, 1) { // +Inf's bucket has no upper bound
				return low
			}
			high := math.Float64frombits(exp + uint64(sub+1)<<(52-subBits))
			return low + (high-low)*((float64(r)+0.5)/float64(c))
		}
	}
	panic("metrics: histogram rank out of range")
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	switch {
	case v > 0:
		exp, sub := bucketOf(v)
		h.pos.add(exp, sub, 1)
	case v < 0:
		exp, sub := bucketOf(-v)
		h.neg.add(exp, sub, 1)
	default:
		h.zeros++
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Merge folds another histogram's observations into h by adding its
// bucket counts. Sharded runs keep one histogram per shard-owned domain
// (no locking, no cross-shard writes) and merge them into a registry
// histogram after the run; the result has the same buckets, count, min
// and max as observing every sample on h directly, so its quantiles are
// identical.
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
	h.zeros += o.zeros
	h.pos.merge(&o.pos)
	h.neg.merge(&o.neg)
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

// Quantile returns the q-quantile (0 <= q <= 1): the value at rank
// q·(n−1) of the sorted observations, interpolated linearly between the
// two ranks around it, each rank read from its bucket and clamped into
// [Min, Max]. 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	idx := q * float64(h.count-1)
	lo := int64(idx)
	frac := idx - float64(lo)
	v := h.rank(lo)
	if frac == 0 {
		return v
	}
	w := h.rank(lo + 1)
	if v == w { // also keeps equal infinite ranks from interpolating to NaN
		return v
	}
	return min(max(v*(1-frac)+w*frac, h.min), h.max)
}

// rank estimates the k-th smallest observation (0-based).
func (h *Histogram) rank(k int64) float64 {
	if k == 0 {
		return h.min
	}
	if k == h.count-1 {
		return h.max
	}
	var v float64
	switch neg := h.neg.n; {
	case k < neg:
		v = -h.neg.at(neg - 1 - k)
	case k < neg+h.zeros:
		v = 0
	default:
		v = h.pos.at(k - neg - h.zeros)
	}
	return min(max(v, h.min), h.max)
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
