// Package trace generates and evaluates the bandwidth traces used by the
// paper's controlled experiments (§6.3) and geo-distributed profiles
// (§6.1/§6.2, substituted per DESIGN.md).
//
// A Trace is a piecewise-constant bandwidth function of time: the rate is
// resampled on a fixed tick (the paper samples its Gauss-Markov processes
// every second). The network emulator integrates traces to compute
// transmission times, so traces expose both the instantaneous rate and
// the time of the next rate change.
package trace

import (
	"math"
	"math/rand"
	"time"
)

// Trace is a time-varying bandwidth cap in bytes per second.
type Trace interface {
	// RateAt returns the bandwidth in bytes/second at time t. It must be
	// positive (the emulator cannot serve bytes at rate zero; use a tiny
	// rate to model near-outages).
	RateAt(t time.Duration) float64
	// NextChange returns the first time strictly after t at which the
	// rate may change. Constant traces return a very large value.
	NextChange(t time.Duration) time.Duration
}

// Forever is the NextChange value of constant traces: far beyond any
// simulation horizon.
const Forever = time.Duration(math.MaxInt64)

// Constant is a fixed-rate trace.
type Constant float64

// RateAt implements Trace.
func (c Constant) RateAt(time.Duration) float64 { return float64(c) }

// NextChange implements Trace.
func (c Constant) NextChange(time.Duration) time.Duration { return Forever }

// Sampled is a piecewise-constant trace defined by samples taken every
// Tick, wrapping around at the end (so finite traces drive arbitrarily
// long simulations). Rates must all be positive.
type Sampled struct {
	Tick  time.Duration
	Rates []float64
}

// RateAt implements Trace.
func (s *Sampled) RateAt(t time.Duration) float64 {
	if t < 0 {
		t = 0
	}
	i := int(t/s.Tick) % len(s.Rates)
	return s.Rates[i]
}

// NextChange implements Trace.
func (s *Sampled) NextChange(t time.Duration) time.Duration {
	if t < 0 {
		t = 0
	}
	return (t/s.Tick + 1) * s.Tick
}

// Mean returns the average rate of one full cycle of the trace.
func (s *Sampled) Mean() float64 {
	sum := 0.0
	for _, r := range s.Rates {
		sum += r
	}
	return sum / float64(len(s.Rates))
}

// GaussMarkovParams configures the temporal-variation model of §6.3: a
// first-order Gauss-Markov (AR(1)) process with mean Mean, standard
// deviation Sigma, and correlation Alpha between consecutive samples.
// The paper's setting is Mean = 10 MB/s, Sigma = 5 MB/s, Alpha = 0.98,
// sampled every second.
type GaussMarkovParams struct {
	Mean  float64 // bytes per second
	Sigma float64
	Alpha float64
	Tick  time.Duration
	Min   float64 // rates are clamped below at Min (must be > 0)
}

// GaussMarkov generates a trace of n samples from the process, seeded
// deterministically so experiments are reproducible.
func GaussMarkov(p GaussMarkovParams, n int, seed int64) *Sampled {
	rng := rand.New(rand.NewSource(seed))
	if p.Min <= 0 {
		p.Min = p.Mean / 100
	}
	rates := make([]float64, n)
	// Start at the stationary distribution.
	x := p.Mean + p.Sigma*rng.NormFloat64()
	noise := p.Sigma * math.Sqrt(1-p.Alpha*p.Alpha)
	for i := range rates {
		if x < p.Min {
			rates[i] = p.Min
		} else {
			rates[i] = x
		}
		x = p.Mean + p.Alpha*(x-p.Mean) + noise*rng.NormFloat64()
	}
	return &Sampled{Tick: p.Tick, Rates: rates}
}

// Uniform is n links of rate bytes/second each: Fig 11b's fixed
// profile and Fig 12's.
func Uniform(n int, rate float64) []Trace {
	out := make([]Trace, n)
	for i := range out {
		out[i] = Constant(rate)
	}
	return out
}

// Spatial is the spatial-variation profile of §6.3 (Fig 11a): node i's
// link carries base·(1+0.05i) bytes/second, 10+0.5i MB/s at the
// paper's base of 10 MB/s.
func Spatial(n int, base float64) []Trace {
	out := make([]Trace, n)
	for i := range out {
		out[i] = Constant(base * (1 + 0.05*float64(i)))
	}
	return out
}

// Temporal is the temporal-variation profile of §6.3 (Fig 11b): n
// independent Gauss-Markov links around mean with σ = mean/2 and
// α = 0.98, sampled every second for a run of duration d.
func Temporal(n int, mean float64, d time.Duration, seed int64) []Trace {
	out := make([]Trace, n)
	for i := range out {
		out[i] = GaussMarkov(GaussMarkovParams{
			Mean:  mean,
			Sigma: mean / 2,
			Alpha: 0.98,
			Tick:  time.Second,
		}, int(d/time.Second)+2, seed+int64(i)*131)
	}
	return out
}

// MB is one megabyte in bytes, as used throughout the paper's units.
const MB = 1 << 20
