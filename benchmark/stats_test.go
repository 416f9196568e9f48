package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(vs, n=4) from Python 3.
	for _, c := range []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{nil, [3]float64{}},
	} {
		q1, med, q3 := quartiles(c.vs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestHistBucketsCoverTheRange(t *testing.T) {
	prevLow, prevWidth := int64(-1), int64(1)
	for i := 0; i < histBuckets; i++ {
		low, width := histBounds(i)
		if low != prevLow+prevWidth {
			t.Fatalf("bucket %d starts at %d, the one before ends at %d", i, low, prevLow+prevWidth)
		}
		if histIndex(low) != i || histIndex(low+width-1) != i {
			t.Fatalf("bucket %d = [%d, %d) but its ends index to %d and %d", i, low, low+width, histIndex(low), histIndex(low+width-1))
		}
		prevLow, prevWidth = low, width
	}
	if got := histIndex(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("the largest value indexes to %d, want the last bucket %d", got, histBuckets-1)
	}
}

func TestHistQuantilesAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, draw := range map[string]func() int64{
		"tiny":      func() int64 { return rng.Int63n(40) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 11)) },
		"bimodal": func() int64 {
			if rng.Intn(3) == 0 {
				return 80_000 + rng.Int63n(400_000)
			}
			return 200 + rng.Int63n(300)
		},
	} {
		var h, other hist
		samples := make([]int64, 200_000)
		for i := range samples {
			samples[i] = draw()
			if i%2 == 0 {
				h.record(samples[i])
			} else {
				other.record(samples[i])
			}
		}
		h.merge(&other)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			want := float64(samples[int(q*float64(len(samples)))])
			got := h.quantile(q)
			// A bucket is at most 1/32 of its value wide.
			if math.Abs(got-want) > want/32+1 {
				t.Errorf("%s: p%g = %.0f, sorted slice says %.0f", name, q*100, got, want)
			}
		}
	}
	var empty hist
	if got := empty.quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
}
