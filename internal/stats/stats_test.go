package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := map[float64]float64{0: 1, 20: 1, 50: 3, 95: 5, 100: 5}
	for p, want := range cases {
		if got := Percentile(xs, p); got != want {
			t.Fatalf("P%v = %v, want %v", p, got, want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestDurationPercentile(t *testing.T) {
	ds := []time.Duration{time.Second, 3 * time.Second, 2 * time.Second}
	if got := DurationPercentile(ds, 50); got != 2*time.Second {
		t.Fatalf("median = %v", got)
	}
	if DurationPercentile(nil, 50) != 0 {
		t.Fatal("empty duration percentile should be 0")
	}
}

// batchMean and batchStdDev are the two-pass reference Welford is
// checked against.
func batchMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func batchStdDev(xs []float64) float64 {
	m := batchMean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

func TestBatchReference(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := batchMean(xs); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	if got := batchStdDev(xs); math.Abs(got-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Welford
	var xs []float64
	for i := 0; i < 10_000; i++ {
		x := rng.NormFloat64()*3 + 10
		w.Add(x)
		xs = append(xs, x)
	}
	if math.Abs(w.Mean()-batchMean(xs)) > 1e-9 {
		t.Fatalf("Welford mean %v vs batch %v", w.Mean(), batchMean(xs))
	}
	if math.Abs(w.StdDev()-batchStdDev(xs)) > 1e-9 {
		t.Fatalf("Welford stddev %v vs batch %v", w.StdDev(), batchStdDev(xs))
	}
	if w.N() != 10_000 {
		t.Fatalf("N = %d", w.N())
	}
}

func TestTimeSeries(t *testing.T) {
	ts := &TimeSeries{}
	ts.Add(0, 10)
	ts.Add(500*time.Millisecond, 20)
	ts.Add(time.Second, 30)
	ts.Add(1100*time.Millisecond, 40)
	if got := ts.At(0); got != 10 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := ts.At(999 * time.Millisecond); got != 20 {
		t.Fatalf("At(0.999s) = %v", got)
	}
	if got := ts.At(time.Second); got != 30 {
		t.Fatalf("At(1s) = %v", got)
	}
	if got := ts.At(-time.Second); got != 0 {
		t.Fatalf("At(-1s) = %v", got)
	}
	if got := ts.At(time.Hour); got != 40 {
		t.Fatalf("At(1h) = %v", got)
	}
}

func TestTimeSeriesRate(t *testing.T) {
	ts := &TimeSeries{}
	ts.Add(0, 0)
	ts.Add(10*time.Second, 1000)
	if got := ts.Rate(0, 10*time.Second); got != 100 {
		t.Fatalf("rate = %v, want 100/s", got)
	}
	if got := ts.Rate(10*time.Second, 10*time.Second); got != 0 {
		t.Fatal("degenerate window should be 0")
	}
}
