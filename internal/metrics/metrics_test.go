package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(10)
	if c.Value() != 11 {
		t.Errorf("value = %d", c.Value())
	}
	if r.Counter("ops") != c {
		t.Error("same name returned a different counter")
	}
}

func TestRegistryNamesInCreationOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Histogram("a")
	r.Counter("c")
	names := r.Names()
	if strings.Join(names, ",") != "b,a,c" {
		t.Errorf("names = %v", names)
	}
	out := r.String()
	for _, n := range names {
		if !strings.Contains(out, n) {
			t.Errorf("String() missing %q", n)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram not zero-valued")
	}
	o := &sampleHist{}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		h.Observe(v)
		o.observe(v)
	}
	if h.Count() != 5 || h.Mean() != 3 || h.Min() != 1 || h.Max() != 5 {
		t.Errorf("stats = n%d mean%v min%v max%v", h.Count(), h.Mean(), h.Min(), h.Max())
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("p0 = %v", q)
	}
	if q := h.Quantile(1); q != 5 {
		t.Errorf("p100 = %v", q)
	}
	// p25 and p50 read 2 and 3 from the samples; buckets answer within 1/32.
	if err := checkQuantiles(h, o); err != nil {
		t.Error(err)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(1500 * time.Millisecond)
	if h.Mean() != 1.5 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	s := h.String()
	for _, part := range []string{"n=1", "mean=1", "p50=1"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q missing %q", s, part)
		}
	}
}

// Property: for any finite input, count, min and max are exact, and the
// quantiles are monotone in q, bounded by min/max and within 1/32 of the
// sorted samples' answer.
func TestPropertyQuantilesMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram()
		o := &sampleHist{}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
			o.observe(v)
		}
		if err := checkQuantiles(h, o); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The histogram keeps no samples, so nothing past any count is dropped:
// 2^20 observations at 1 ms and then 2^20 at 100 ms put p75 at 100 ms.
func TestHistogramBeyondTwoToTheTwenty(t *testing.T) {
	h := NewHistogram()
	for range 1 << 20 {
		h.Observe(0.001)
	}
	for range 1 << 20 {
		h.Observe(0.1)
	}
	if h.Count() != 1<<21 || h.Min() != 0.001 || h.Max() != 0.1 {
		t.Errorf("n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	if p75 := h.Quantile(0.75); math.Abs(p75-0.1) > 0.1/32 {
		t.Errorf("p75 = %v, want 0.1 within 1/32", p75)
	}
	if p25 := h.Quantile(0.25); math.Abs(p25-0.001) > 0.001/32 {
		t.Errorf("p25 = %v, want 0.001 within 1/32", p25)
	}
}

// Zero, negative, subnormal and extreme values land in buckets of their
// own and keep the quantiles ordered.
func TestHistogramSignsAndExtremes(t *testing.T) {
	h := NewHistogram()
	o := &sampleHist{}
	for _, v := range []float64{0, -1e308, 1e308, -0.5, 0, math.SmallestNonzeroFloat64, 3e-310, -7, 0.25, math.MaxFloat64} {
		h.Observe(v)
		o.observe(v)
	}
	if err := checkQuantiles(h, o); err != nil {
		t.Error(err)
	}
	h.Observe(math.NaN())
	if h.Count() != 10 {
		t.Errorf("NaN was counted: n=%d", h.Count())
	}
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Quantile(0) != math.Inf(-1) || h.Quantile(1) != math.Inf(1) {
		t.Errorf("infinite extremes: p0=%v p100=%v", h.Quantile(0), h.Quantile(1))
	}
	prev := math.Inf(-1)
	for _, q := range quantileGrid {
		if v := h.Quantile(q); !(v >= prev) {
			t.Errorf("q=%v: %v after %v with infinite extremes", q, v, prev)
		} else {
			prev = v
		}
	}
}

// Once every power of two it sees has a page, Observe allocates nothing.
func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram()
	vals := []float64{0, -2.5, 1e-6, 0.37, 3, 1e308}
	for _, v := range vals {
		h.Observe(v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			h.Observe(v)
			h.Observe(v * 0.9) // another bucket of the same power of two
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per run of Observe, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := range 1024 {
		h.Observe(1e-3 * float64(1+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-3 * float64(1+i&1023))
	}
}

// FuzzHistogram checks the histogram against the sorted-sample oracle on
// two streams of values (zeros, negatives, ±1e308, small integers and
// raw float64 bits): count, min and max exact, mean exact, quantiles
// within 1/32, and Merge(a, b) equal to observing a ∪ b.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{6, 7, 16, 9, 200, 33, 0x7e, 0xf1, 3, 250, 10, 100})
	f.Add([]byte{10, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 11, 1, 0, 0, 0, 0, 0, 0, 0x80, 2, 5})
	f.Add([]byte{0xf2, 0xf5, 0xe0, 0, 0xd7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		as, bs := fuzzValues(data)
		ha, oa := NewHistogram(), &sampleHist{}
		hb, ob := NewHistogram(), &sampleHist{}
		union, ou := NewHistogram(), &sampleHist{}
		for _, v := range as {
			ha.Observe(v)
			oa.observe(v)
			union.Observe(v)
			ou.observe(v)
		}
		for _, v := range bs {
			hb.Observe(v)
			ob.observe(v)
			union.Observe(v)
			ou.observe(v)
		}
		for _, c := range []struct {
			h *Histogram
			o *sampleHist
		}{{ha, oa}, {hb, ob}, {union, ou}} {
			if err := checkQuantiles(c.h, c.o); err != nil {
				t.Fatal(err)
			}
			if got, want := c.h.Mean(), c.o.mean(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("mean %v, samples' %v", got, want)
			}
		}
		merged := NewHistogram()
		merged.Merge(ha)
		merged.Merge(hb)
		if merged.Count() != union.Count() || merged.Min() != union.Min() || merged.Max() != union.Max() {
			t.Fatalf("merged %v, observed %v", merged, union)
		}
		for _, q := range quantileGrid {
			if got, want := merged.Quantile(q), union.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q=%v: merged %v, observed %v", q, got, want)
			}
		}
		if got, want := merged.Mean(), union.Mean(); got != want && !(math.Abs(got-want) <= 1e-15*float64(len(ou.s))*ou.meanAbs()) && !math.IsInf(ou.meanAbs(), 0) {
			t.Fatalf("merged mean %v, observed %v", got, want)
		}
	})
}

// fuzzValues decodes two value streams. Each op byte's low bit picks the
// stream, bits 1-3 the value, and its top four bits r repeat it 1+r*r times.
func fuzzValues(data []byte) (a, b []float64) {
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		var v float64
		switch op >> 1 & 7 {
		case 0:
			v = 0
		case 1:
			v = 1e308
		case 2:
			v = -1e308
		case 3, 4:
			if len(data) == 0 {
				return a, b
			}
			v = float64(int8(data[0]))
			if op>>1&7 == 4 {
				v *= 1e-3
			}
			data = data[1:]
		default:
			if len(data) < 8 {
				return a, b
			}
			v = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		}
		r := int(op >> 4)
		for range 1 + r*r {
			if op&1 == 0 {
				a = append(a, v)
			} else {
				b = append(b, v)
			}
		}
	}
	return a, b
}

// sampleHist is the raw-sample histogram the log-linear one replaced,
// kept as its oracle: every sample, sorted on demand, the q-quantile
// interpolated at rank q·(n−1).
type sampleHist struct {
	s   []float64
	sum float64
}

func (o *sampleHist) observe(v float64) {
	o.s = append(o.s, v)
	o.sum += v
}

func (o *sampleHist) mean() float64 {
	if len(o.s) == 0 {
		return 0
	}
	return o.sum / float64(len(o.s))
}

func (o *sampleHist) meanAbs() float64 {
	var s float64
	for _, v := range o.s {
		s += math.Abs(v)
	}
	return s / float64(max(len(o.s), 1))
}

// bracket returns the two sorted samples rank q·(n−1) falls between and
// its fraction of the way from the first to the second.
func (o *sampleHist) bracket(q float64) (lo, hi, frac float64) {
	sort.Float64s(o.s)
	n := len(o.s)
	if q <= 0 {
		return o.s[0], o.s[0], 0
	}
	if q >= 1 {
		return o.s[n-1], o.s[n-1], 0
	}
	idx := q * float64(n-1)
	i := int(math.Floor(idx))
	j := int(math.Ceil(idx))
	return o.s[i], o.s[j], idx - float64(i)
}

func (o *sampleHist) quantile(q float64) float64 {
	lo, hi, frac := o.bracket(q)
	if frac == 0 {
		return lo
	}
	return lo*(1-frac) + hi*frac
}

var quantileGrid = []float64{0, 1e-9, 0.001, 0.01, 0.1, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.75, 0.9, 0.99, 0.999, 1 - 1e-9, 1}

// checkQuantiles holds h to the contract against the samples in o: count,
// min and max exact, q=0 and q=1 exact, every quantile on the grid
// monotone in q, inside [min, max] and within 1/32 of the samples'
// answer (1/32 of each bracketing sample, or 2^-1027 below the normal
// range).
func checkQuantiles(h *Histogram, o *sampleHist) error {
	if h.Count() != int64(len(o.s)) {
		return fmt.Errorf("count %d, samples %d", h.Count(), len(o.s))
	}
	if len(o.s) == 0 {
		return nil
	}
	sort.Float64s(o.s)
	if h.Min() != o.s[0] || h.Max() != o.s[len(o.s)-1] {
		return fmt.Errorf("min %v max %v, samples %v..%v", h.Min(), h.Max(), o.s[0], o.s[len(o.s)-1])
	}
	prev := math.Inf(-1)
	for _, q := range quantileGrid {
		got, want := h.Quantile(q), o.quantile(q)
		lo, hi, frac := o.bracket(q)
		tol := ((1-frac)*math.Abs(lo)+frac*math.Abs(hi))/32 + 1e-12*max(math.Abs(lo), math.Abs(hi)) + 0x1p-1027
		if (q == 0 || q == 1) && got != want {
			return fmt.Errorf("q=%v: %v, samples %v", q, got, want)
		}
		if !(math.Abs(got-want) <= tol) {
			return fmt.Errorf("q=%v: %v, samples %v (tolerance %v)", q, got, want, tol)
		}
		if got < prev || got < h.Min() || got > h.Max() {
			return fmt.Errorf("q=%v: %v after %v, outside [%v, %v] or not monotone", q, got, prev, h.Min(), h.Max())
		}
		prev = got
	}
	return nil
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value", "time")
	tbl.AddRow("alpha", 3.14159, 1500*time.Millisecond)
	tbl.AddRow("a-much-longer-name", 2.0, time.Second)
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "3.14") {
		t.Error("float not formatted to 2 places")
	}
	if !strings.Contains(out, "1.50s") {
		t.Error("duration not formatted in seconds")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	// Column alignment: every row at least as wide as the widest cell.
	if len(lines[1]) < len("a-much-longer-name") {
		t.Error("columns not widened to fit data")
	}
}

func TestTableUntitled(t *testing.T) {
	tbl := NewTable("", "x")
	tbl.AddRow(1)
	if strings.Contains(tbl.String(), "==") {
		t.Error("untitled table rendered a title")
	}
}

func TestHeapSnapshot(t *testing.T) {
	before := SnapHeap()
	block := make([]byte, 32<<20)
	for i := range block {
		block[i] = byte(i) // touch every page so the allocation is real
	}
	after := SnapHeap()
	if got := after.DeltaBytes(before); got < 30<<20 || got > 40<<20 {
		t.Errorf("DeltaBytes = %d, want ~32 MiB for a 32 MiB retained block", got)
	}
	if b, mb := after.DeltaBytes(before), after.DeltaMB(before); float64(b) != mb*(1<<20) {
		t.Errorf("DeltaBytes %d is not DeltaMB %g in bytes", b, mb)
	}
	if got := after.DeltaMB(before); got < 30 || got > 40 {
		t.Errorf("DeltaMB = %.1f, want ~32 for a 32 MiB retained block", got)
	}
	if got := after.DeltaMBPerNode(before, 32); got < 30.0/32 || got > 40.0/32 {
		t.Errorf("DeltaMBPerNode = %.3f, want ~1", got)
	}
	if got := after.DeltaMBPerNode(before, 0); got != 0 {
		t.Errorf("DeltaMBPerNode with zero nodes = %v, want 0", got)
	}
	runtime.KeepAlive(block)
	shrunk := SnapHeap() // block now dead; heap may fall below `after`
	if got := shrunk.DeltaMB(after); got < 0 {
		t.Errorf("DeltaMB went negative: %v", got)
	}
	if before.DeltaBytes(after) != 0 || before.DeltaMB(after) != 0 {
		t.Error("DeltaMB against a larger baseline must clamp to 0")
	}
}
