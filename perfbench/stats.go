package main

import (
	"math"
	"sort"
)

// tailPercentile is the tail percentile every latency is reported at.
// p99 on a shared two-core machine needs far more samples than a run
// collects to stay steady; p95 with at least minBeyond samples above it
// does not.
const (
	tailPercentile = 0.95
	minBeyond      = 10
)

// rank returns the 1-based nearest-rank position of the p-quantile in n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie strictly past the nearest-rank
// p-quantile of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// samplesFor returns the smallest sample count that leaves at least k
// samples beyond the p-quantile.
func samplesFor(p float64, k int) int {
	n := 1
	for beyond(n, p) < k {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-quantile of xs (any order).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with the
// default exclusive method, the rule the steadiness check is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
