package stats

import "time"

// reservoirCap is the number of samples a Reservoir retains.
const reservoirCap = 8192

// Reservoir is a bounded uniform sample of durations (Vitter's
// algorithm R): the first reservoirCap observations are kept verbatim,
// later ones replace a uniformly-chosen slot with probability
// reservoirCap/n. It replaces the unbounded latency slices the
// evaluation harness used to accumulate, keeping percentile queries
// accurate at any run length in bounded memory. The replacement
// randomness is a deterministic splitmix64 stream, so emulator runs stay
// reproducible. The zero value is ready to use.
type Reservoir struct {
	n       uint64
	rng     uint64
	samples []time.Duration
}

// Add ingests one observation.
func (r *Reservoir) Add(d time.Duration) {
	r.n++
	if len(r.samples) < reservoirCap {
		r.samples = append(r.samples, d)
		return
	}
	if j := r.next() % r.n; j < reservoirCap {
		r.samples[j] = d
	}
}

// next advances the deterministic splitmix64 stream.
func (r *Reservoir) next() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Count returns the total number of observations (not the retained
// sample size).
func (r *Reservoir) Count() uint64 { return r.n }

// Percentile returns the p-th percentile (0..100) of the retained
// sample, 0 when empty.
func (r *Reservoir) Percentile(p float64) time.Duration {
	return DurationPercentile(r.samples, p)
}
