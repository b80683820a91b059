package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 of 500 samples is decided by five of them.
const minBeyond = 10

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supportedQuantile lowers want to the highest of the usual percentiles
// that still has minBeyond of the n samples beyond it; the median is always
// supported.
func supportedQuantile(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		// Samples beyond the nearest-rank q-quantile; the epsilon keeps
		// 0.9*100 from rounding up to rank 91.
		if beyond := n - int(math.Ceil(q*float64(n)-1e-9)); q <= want && beyond >= minBeyond {
			return q
		}
	}
	return 0.5
}

// dist summarises one latency sample.
type dist struct {
	n     int
	p50   float64
	tail  float64 // the value at tailQ
	tailQ float64 // 0.99, or lower when the sample cannot support it
}

func summarise(xs []float64) dist {
	if len(xs) == 0 {
		return dist{tailQ: 0.99}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := supportedQuantile(len(s), 0.99)
	return dist{n: len(s), p50: quantile(s, 0.5), tail: quantile(s, q), tailQ: q}
}

// quartiles returns Q1, median and Q3 with the method of Python's
// statistics.quantiles(values, n=4) (exclusive), which is what the
// benchmark's acceptance rule is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
