package main

import (
	"math"
	"slices"
	"time"
)

// sorted returns a sorted copy.
func sorted(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(asc []time.Duration, q float64) time.Duration {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

func medianOf(d []time.Duration) time.Duration { return quantile(sorted(d), 0.5) }

// tailQuantile picks the highest of p99, p95, p90, p75 that still has
// ten samples beyond it; with fewer than forty samples no tail can be
// told from noise and the median stands in.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func sum(d []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianFloat is the median of xs (mean of the middle two when even).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the pipeline uses to judge spread. A single value is both quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
