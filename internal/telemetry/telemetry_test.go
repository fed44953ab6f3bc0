package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// observe reports a stage boundary the way the replica does.
func observe(m *Metrics, epoch uint64, k Kind, at time.Duration) {
	m.Emit(Event{Kind: k, Epoch: epoch, At: at})
}

// observePeer reports a per-peer sub-span the way the replica does.
func observePeer(m *Metrics, epoch uint64, k Kind, peer int, at time.Duration) {
	m.Emit(Event{Kind: k, Epoch: epoch, Peer: int32(peer), At: at})
}

func TestNilHandlesNoop(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "", "nil")
	g := reg.Gauge("x", "", "nil")
	h := reg.Histogram("x_seconds", "", "nil", ExpBuckets(1, 2, 4), 0)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read zero")
	}
	var m *Metrics
	if m.Registry() != nil || m.Trace() != nil {
		t.Fatal("nil Metrics accessors must return nil")
	}
	observe(m, 1, StageDeliver, time.Second)
	if got := m.Trace().SlowestEpochs(10); got != nil {
		t.Fatalf("nil tracer returned %v", got)
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dl_test_total", `class="a"`, "test counter")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if again := reg.Counter("dl_test_total", `class="a"`, "test counter"); again != c {
		t.Fatal("re-registration must return the same handle")
	}
	other := reg.Counter("dl_test_total", `class="b"`, "test counter")
	if other == c {
		t.Fatal("distinct label sets must get distinct handles")
	}
	g := reg.Gauge("dl_depth", "", "test gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

// TestConcurrentRegistrationSharesHandle: goroutines registering the
// same series at once must all get the one handle that exposition
// reads, or some of their updates vanish. Run under -race.
func TestConcurrentRegistrationSharesHandle(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.Counter("dl_x_total", "", "").Inc()
			reg.Gauge("dl_x", "", "").Add(1)
			reg.Histogram("dl_x_seconds", "", "", ExpBuckets(1, 2, 4), 0).Observe(1)
		}()
	}
	wg.Wait()
	if got := reg.Counter("dl_x_total", "", "").Value(); got != workers {
		t.Errorf("counter = %d after %d concurrent registrations, want %d", got, workers, workers)
	}
	if got := reg.Gauge("dl_x", "", "").Value(); got != workers {
		t.Errorf("gauge = %d, want %d", got, workers)
	}
	if got := reg.FindHistogram("dl_x_seconds", "").Count(); got != workers {
		t.Errorf("histogram count = %d, want %d", got, workers)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	bounds := ExpBuckets(int64(time.Millisecond), 2, 12) // 1ms..2048ms
	h := reg.Histogram("dl_lat_seconds", "", "latency", bounds, 1e-9)
	for i := 1; i <= 100; i++ {
		h.Observe(int64(time.Duration(i) * time.Millisecond))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := time.Duration(h.Quantile(0.50))
	p95 := time.Duration(h.Quantile(0.95))
	if p50 < 30*time.Millisecond || p50 > 80*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", p50)
	}
	if p95 < 70*time.Millisecond || p95 > 140*time.Millisecond {
		t.Fatalf("p95 = %v, want ~95ms", p95)
	}
	// Above-top observations land in +Inf and clamp quantiles at the
	// last finite bound.
	h.Observe(int64(time.Hour))
	if q := h.Quantile(1); q != bounds[len(bounds)-1] {
		t.Fatalf("top quantile = %d, want clamp to %d", q, bounds[len(bounds)-1])
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dl_frames_total", `class="dispersal"`, "frames").Add(2)
	reg.Counter("dl_frames_total", `class="retrieval"`, "frames").Add(3)
	reg.Gauge("dl_mempool_bytes", "", "mempool").Set(11)
	h := reg.Histogram("dl_fsync_seconds", "", "fsync", ExpBuckets(int64(time.Millisecond), 10, 3), 1e-9)
	h.Observe(int64(5 * time.Millisecond))
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE dl_frames_total counter",
		`dl_frames_total{class="dispersal"} 2`,
		`dl_frames_total{class="retrieval"} 3`,
		"# TYPE dl_mempool_bytes gauge",
		"dl_mempool_bytes 11",
		"# TYPE dl_fsync_seconds histogram",
		`dl_fsync_seconds_bucket{le="0.001"} 0`,
		`dl_fsync_seconds_bucket{le="0.01"} 1`,
		`dl_fsync_seconds_bucket{le="+Inf"} 1`,
		"dl_fsync_seconds_sum 0.005",
		"dl_fsync_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	// One HELP/TYPE header per family, not per label set.
	if strings.Count(text, "# TYPE dl_frames_total") != 1 {
		t.Fatalf("family header repeated:\n%s", text)
	}
}

func TestTracerTimelinesAndSlowest(t *testing.T) {
	m := New(Options{TraceRing: 8})
	tr := m.Trace()
	// Epoch 1: full pipeline, 40ms e2e. Epoch 2: slower (100ms).
	feed := func(epoch uint64, base, scale time.Duration) {
		observe(m, epoch, StageDisperseStart, base)
		observe(m, epoch, StageBAInput, base+scale)
		observe(m, epoch, StageDisperseDone, base+2*scale)
		observe(m, epoch, StageBADecide, base+3*scale)
		observe(m, epoch, StageRetrieveStart, base+3*scale)
		// Duplicate observation must not overwrite the first.
		observe(m, epoch, StageRetrieveStart, base+100*scale)
		observe(m, epoch, StageDeliver, base+4*scale)
	}
	feed(1, 0, 10*time.Millisecond)
	feed(2, time.Second, 25*time.Millisecond)
	if n := tr.InflightEpochs(); n != 0 {
		t.Fatalf("inflight = %d after delivery", n)
	}
	got := tr.Delivered()
	if len(got) != 2 || got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Fatalf("delivered = %+v", got)
	}
	if got[0].E2E() != 40*time.Millisecond {
		t.Fatalf("e2e = %v", got[0].E2E())
	}
	bd := got[1].StageBreakdown()
	if bd["ba"] != 50*time.Millisecond || bd["retrieve"] != 25*time.Millisecond {
		t.Fatalf("breakdown = %v", bd)
	}
	slow := tr.SlowestEpochs(1)
	if len(slow) != 1 || slow[0].Epoch != 2 {
		t.Fatalf("slowest = %+v", slow)
	}
	// Ring wraps: 10 more deliveries on an 8-slot ring keep the last 8.
	for e := uint64(3); e <= 12; e++ {
		observe(m, e, StageDeliver, time.Duration(e)*time.Second)
	}
	all := tr.Delivered()
	if len(all) != 8 || all[0].Epoch != 5 || all[7].Epoch != 12 {
		t.Fatalf("ring contents = %+v", all)
	}
}

func TestAdminEndpoints(t *testing.T) {
	m := New(Options{})
	m.Registry().Counter("dl_epochs_delivered_total", "", "epochs").Add(9)
	observe(m, 4, StageDisperseStart, 0)
	observe(m, 4, StageDeliver, 30*time.Millisecond)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeAdmin(l, m, func() map[string]any {
		return map[string]any{"position": map[string]any{"delivered": 4}}
	})
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// Nine added by hand plus the one delivery emitted above.
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "dl_epochs_delivered_total 10") {
		t.Fatalf("/metrics = %d %.2000q", code, body)
	}
	code, body := get("/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	var status map[string]any
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if status["position"] == nil || status["slowest_epochs"] == nil || status["metrics"] == nil {
		t.Fatalf("/statusz missing keys: %s", body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}
