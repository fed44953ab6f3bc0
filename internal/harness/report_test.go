package harness

import (
	"strings"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/stats"
)

func TestFormatFig2(t *testing.T) {
	out := FormatFig2([]Fig2Point{
		{N: 16, BlockSize: 100 << 10, AVIDM: 0.18, AVIDFP: 0.35, LowerBound: 0.166},
	})
	for _, want := range []string{"AVID-M", "AVID-FP", "16", "100KB", "0.1800"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatGeo(t *testing.T) {
	r := &GeoResult{
		GeoParams:  GeoParams{Mode: core.ModeDL},
		Names:      []string{"Ohio", "Mumbai"},
		Throughput: []float64{5.5, 1.25},
		Mean:       3.375,

		RetrieveAmplification: 1.13,
	}
	out := FormatGeo([]*GeoResult{r, {GeoParams: GeoParams{Mode: core.ModeHB}, Throughput: []float64{1, 1}}})
	for _, want := range []string{"Ohio", "Mumbai", "5.50", "1.25", "MEAN", "3.38", "DL", "1.13          -\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("geo output missing %q:\n%s", want, out)
		}
	}
	if FormatGeo(nil) != "" {
		t.Fatal("empty input should render empty")
	}
}

func TestFormatProgress(t *testing.T) {
	var ts stats.TimeSeries
	ts.Add(0, 0)
	ts.Add(10*time.Second, float64(1<<30))
	r := &GeoResult{GeoParams: GeoParams{Mode: core.ModeHBLink}, Names: []string{"A"}, Progress: []stats.TimeSeries{ts}}
	out := FormatProgress(r, 5*time.Second, 10*time.Second)
	if !strings.Contains(out, "HB-Link") || !strings.Contains(out, "1.000") {
		t.Fatalf("progress output wrong:\n%s", out)
	}
}

// TestConfirmedReadsAt100ms: Fig 9 reads a progress series at 100 ms
// resolution, skipping a point less than 100 ms after the last one read.
func TestConfirmedReadsAt100ms(t *testing.T) {
	var ts stats.TimeSeries
	for _, p := range []struct {
		ms int
		v  float64
	}{{0, 10}, {50, 20}, {100, 30}, {150, 40}, {199, 50}, {200, 60}, {320, 70}} {
		ts.Add(time.Duration(p.ms)*time.Millisecond, p.v)
	}
	r := &GeoResult{Progress: []stats.TimeSeries{ts}}
	for _, c := range []struct {
		ms   int
		want float64
	}{{-1, 0}, {0, 10}, {99, 10}, {100, 30}, {199, 30}, {200, 60}, {319, 60}, {320, 70}, {1000, 70}} {
		if got := r.Confirmed(0, time.Duration(c.ms)*time.Millisecond); got != c.want {
			t.Errorf("Confirmed at %d ms = %v, want %v", c.ms, got, c.want)
		}
	}
}

func TestFormatLatency(t *testing.T) {
	r := &GeoResult{
		GeoParams: GeoParams{Mode: core.ModeDL, LoadPerNode: 2 << 20},
		Names:     []string{"Ohio"},
		P5:        []time.Duration{500 * time.Millisecond},
		P50:       []time.Duration{800 * time.Millisecond},
		P95:       []time.Duration{1500 * time.Millisecond},
		P99:       []time.Duration{2 * time.Second},
	}
	out := FormatLatency([]*GeoResult{r})
	for _, want := range []string{"Ohio", "800ms", "500ms", "1.5s", "2.0 MB/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("latency output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NOT STEADY STATE") {
		t.Fatalf("a point with a flat backlog is marked as not steady:\n%s", out)
	}
	r.BacklogSlope = 1.05
	if out = FormatLatency([]*GeoResult{r}); !strings.Contains(out, "NOT STEADY STATE") || !strings.Contains(out, "1.05 epochs/s") {
		t.Fatalf("a point whose backlog grows is not marked:\n%s", out)
	}
}

func TestFormatControlledAndScale(t *testing.T) {
	cr := &GeoResult{GeoParams: GeoParams{Mode: core.ModeHB}, Throughput: []float64{1, 2}, Mean: 1.5, Std: 0.5}
	out := FormatControlled("title", []*GeoResult{cr})
	for _, want := range []string{"title", "HB", "mean", "1.50", "std", "0.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("controlled output missing %q:\n%s", want, out)
		}
	}
	sr := &GeoResult{GeoParams: GeoParams{FixedBlockBytes: 1 << 20}, Throughput: make([]float64, 16), Mean: 3.0, DispersalFraction: 0.07}
	out = FormatScale([]*GeoResult{sr})
	for _, want := range []string{"16", "1.0MB", "3.00", "0.0700"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scale output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHeadline(t *testing.T) {
	mk := func(mean float64) *GeoResult { return &GeoResult{Mean: mean} }
	out := FormatHeadline(mk(1), mk(1.5), mk(2), mk(1.8))
	for _, want := range []string{"DL / HB         = 2.00x", "HB-Link / HB    = 1.50x", "DL-Coupled / DL = 0.90x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("headline output missing %q:\n%s", want, out)
		}
	}
}

func TestByteSizeAndHelpers(t *testing.T) {
	cases := map[int]string{
		100:     "100B",
		2 << 10: "2KB",
		3 << 20: "3.0MB",
	}
	for n, want := range cases {
		if got := byteSize(n); got != want {
			t.Fatalf("byteSize(%d) = %q, want %q", n, got, want)
		}
	}
	if got := truncate("abcdefgh", 3); got != "abc" {
		t.Fatalf("truncate = %q", got)
	}
	if got := truncate("ab", 3); got != "ab" {
		t.Fatalf("truncate = %q", got)
	}
}
