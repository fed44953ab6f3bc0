// Package stats provides the small statistics toolkit used by the
// experiment harness: percentiles for latency distributions (Fig 10, 14),
// time series of confirmed bytes (Fig 9), and running mean/variance for
// error bars (Fig 11b, 12).
package stats

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0..100) of xs using nearest-rank
// on a sorted copy. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// DurationPercentile is Percentile over time.Durations.
func DurationPercentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(Percentile(xs, p))
}

// Welford accumulates running mean and variance without storing samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add ingests one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}

// TimeSeries records a monotone cumulative quantity over time (e.g.
// confirmed bytes), for progress plots like Fig 9.
type TimeSeries struct {
	Times  []time.Duration
	Values []float64
}

// Add appends a point.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// At returns the value at time t (step interpolation; 0 before the first
// point).
func (ts *TimeSeries) At(t time.Duration) float64 {
	i := sort.Search(len(ts.Times), func(i int) bool { return ts.Times[i] > t })
	if i == 0 {
		return 0
	}
	return ts.Values[i-1]
}

// Rate returns the average growth per second between two times.
func (ts *TimeSeries) Rate(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return (ts.At(to) - ts.At(from)) / (to - from).Seconds()
}
