package trace

import (
	"math"
	"testing"
	"time"
)

func TestConstant(t *testing.T) {
	c := Constant(1000)
	if c.RateAt(0) != 1000 || c.RateAt(time.Hour) != 1000 {
		t.Fatal("constant trace rate wrong")
	}
	if c.NextChange(0) != Forever {
		t.Fatal("constant trace should never change")
	}
}

func TestSampledLookupAndWrap(t *testing.T) {
	s := &Sampled{Tick: time.Second, Rates: []float64{1, 2, 3}}
	cases := map[time.Duration]float64{
		0:                       1,
		999 * time.Millisecond:  1,
		time.Second:             2,
		2500 * time.Millisecond: 3,
		3 * time.Second:         1, // wrap
		7 * time.Second:         2,
	}
	for at, want := range cases {
		if got := s.RateAt(at); got != want {
			t.Fatalf("RateAt(%v) = %v, want %v", at, got, want)
		}
	}
	if got := s.NextChange(0); got != time.Second {
		t.Fatalf("NextChange(0) = %v", got)
	}
	if got := s.NextChange(1500 * time.Millisecond); got != 2*time.Second {
		t.Fatalf("NextChange(1.5s) = %v", got)
	}
	// Negative times clamp to zero.
	if got := s.RateAt(-time.Second); got != 1 {
		t.Fatalf("RateAt(-1s) = %v", got)
	}
}

func TestGaussMarkovStatistics(t *testing.T) {
	// The paper's parameters: mean 10 MB/s, sigma 5 MB/s, alpha 0.98.
	p := GaussMarkovParams{Mean: 10 * MB, Sigma: 5 * MB, Alpha: 0.98, Tick: time.Second}
	s := GaussMarkov(p, 200_000, 42)

	mean := s.Mean()
	if math.Abs(mean-10*MB)/(10*MB) > 0.05 {
		t.Fatalf("sample mean %.0f deviates >5%% from 10 MB/s", mean)
	}
	// Variance (clamping at Min biases it slightly low; allow 15%).
	varSum := 0.0
	for _, r := range s.Rates {
		varSum += (r - mean) * (r - mean)
	}
	sigma := math.Sqrt(varSum / float64(len(s.Rates)))
	if math.Abs(sigma-5*MB)/(5*MB) > 0.15 {
		t.Fatalf("sample sigma %.0f deviates >15%% from 5 MB/s", sigma)
	}
	// Lag-1 autocorrelation should be close to alpha.
	cov := 0.0
	for i := 1; i < len(s.Rates); i++ {
		cov += (s.Rates[i] - mean) * (s.Rates[i-1] - mean)
	}
	rho := cov / varSum
	if math.Abs(rho-0.98) > 0.02 {
		t.Fatalf("lag-1 autocorrelation %.3f, want ~0.98", rho)
	}
}

func TestGaussMarkovPositive(t *testing.T) {
	// Even with sigma close to the mean, rates must stay positive.
	p := GaussMarkovParams{Mean: 1000, Sigma: 900, Alpha: 0.9, Tick: time.Second}
	s := GaussMarkov(p, 50_000, 7)
	for i, r := range s.Rates {
		if r <= 0 {
			t.Fatalf("rate[%d] = %v not positive", i, r)
		}
	}
}

func TestGaussMarkovDeterministic(t *testing.T) {
	p := GaussMarkovParams{Mean: 5000, Sigma: 1000, Alpha: 0.98, Tick: time.Second}
	a := GaussMarkov(p, 100, 3)
	b := GaussMarkov(p, 100, 3)
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatal("same seed must produce identical traces")
		}
	}
	c := GaussMarkov(p, 100, 4)
	same := true
	for i := range a.Rates {
		if a.Rates[i] != c.Rates[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSpatial(t *testing.T) {
	// Fig 11a: node i capped at 10 + 0.5i MB/s.
	ts := Spatial(16, 10*MB)
	if len(ts) != 16 {
		t.Fatalf("got %d traces", len(ts))
	}
	if got := ts[0].RateAt(0); got != 10*MB {
		t.Fatalf("node 0 rate %v", got)
	}
	if got := ts[15].RateAt(time.Minute); got != 17.5*MB {
		t.Fatalf("node 15 rate %v, want 17.5 MB", got)
	}
}

func TestCityProfiles(t *testing.T) {
	if len(AWSCities) != 16 {
		t.Fatalf("AWS profile has %d cities, want 16", len(AWSCities))
	}
	if len(VultrCities) != 15 {
		t.Fatalf("Vultr profile has %d cities, want 15", len(VultrCities))
	}
	// Fig 8's spread: fastest site ~3x+ the slowest.
	if AWSCities[0].Bandwidth < 3*AWSCities[15].Bandwidth {
		t.Fatal("AWS profile spread too small to reproduce Fig 8's shape")
	}
	traces := CityTraces(AWSCities, 0.1, 100, time.Second, 1)
	if len(traces) != 16 {
		t.Fatal("trace count mismatch")
	}
	for i, tr := range traces {
		if tr.RateAt(0) <= 0 {
			t.Fatalf("city %d trace not positive", i)
		}
	}
	names := Names(AWSCities)
	if names[0] != "Ohio" || names[15] != "Mumbai" {
		t.Fatal("city names wrong")
	}
}
