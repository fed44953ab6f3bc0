package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses a percentile that has fewer than ten
// samples beyond it: a p99 of 200 samples is the third-largest value,
// which does not repeat between runs. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if beyond := len(xs) - rank; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need 10)", p, len(xs), beyond)
	}
	return xs[rank-1], nil
}

// percentileOrZero is percentile for layer metrics, where a workload
// that produced too few samples reads 0 instead of failing the run.
func percentileOrZero(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for none. It needs no sample floor: it is
// used to pool a handful of repeated measurements, not as a latency
// percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so -compare
// computes the same spread the acceptance procedure does. Fewer than
// two values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of xs as a share of their
// median: the run-to-run spread every bound is compared against.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
