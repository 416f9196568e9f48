package main

import (
	"math/bits"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of vs
// the way Python's statistics.quantiles(vs, n=4) does (the exclusive
// method), so the spreads printed here are the ones the driver computes.
// With fewer than two values all three are the single value (or 0).
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vs[0], vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0..4 when j was clamped: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise figure the driver holds against a metric's bound.
func spread(vs []float64) float64 {
	q1, m, q3 := quartiles(vs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// hist is a fixed-size log-linear latency histogram over nanoseconds:
// values below 32 ns get a bucket each, and every power of two above that
// is split into 32 linear buckets, so a bucket is at most 1/32 of its
// value wide. Recording is a shift and an increment and holds no samples.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 5  // log2 of the linear buckets per power of two
	histMaxExp  = 40 // values clamp at 2^41-1 ns, about 37 minutes
	histBuckets = (histMaxExp - histSub + 2) << histSub
)

func histIndex(ns int64) int {
	if ns < 1<<histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e-histSub+1)<<histSub + int(ns>>(e-histSub))&(1<<histSub-1)
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (low, width int64) {
	if i < 1<<histSub {
		return int64(i), 1
	}
	e := i>>histSub + histSub - 1
	sub := int64(i & (1<<histSub - 1))
	return (1<<histSub + sub) << (e - histSub), 1 << (e - histSub)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			low, width := histBounds(i)
			return float64(low) + float64(width)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return float64(low + width)
}
