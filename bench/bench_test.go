package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/harness"
	"dledger/internal/trace"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smoke runs one workload at a few seconds' scale and checks that every
// catalogued metric of the mode comes out, named and with its unit.
func smoke(t *testing.T, workload string, seconds int, traced bool) *result {
	t.Helper()
	env, err := newEnv(7, seconds, traced, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(workload, env)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct {
		t.Fatalf("%s: correctness gate failed: %v", workload, res.Violations)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: attempted %d failed %d", workload, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.Name)
			continue
		}
		if !nameRE.MatchString(d.Name) || m.Unit == "" || m.Unit != d.Unit {
			t.Errorf("%s: metric %q unit %q (catalogue %q)", workload, d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", workload, d.Name, m.Value)
		}
		if !traced && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, d.Name, m.Value)
		}
	}
	return res
}

func TestSmokeEndToEnd(t *testing.T) {
	smoke(t, "steady4", 4, false) // wan16: TestWanRepeatsPerSeed
}

// The traced steady4 also closes its last node and reopens it under load.
func TestSmokePerLayer(t *testing.T) {
	res := smoke(t, "steady4", 4, true)
	if got := res.Metrics["cpu.accounted"].Value; got <= 0 || got > 1 {
		t.Errorf("cpu.accounted = %v", got)
	}
	if res.Notes["cpu_top_layer"] == "" {
		t.Error("the CPU fold did not name its top layer")
	}
	if res.Metrics["core.catchup_s"].Value <= 0 {
		t.Error("steady4 did not time the restarted node's catch-up")
	}
}

// The smokes that take tens of seconds (a 16-node cluster, five emulated
// sub-runs) run only when asked for, so that `go test` stays a quarter
// of a minute.
func TestSmokeLong(t *testing.T) {
	if os.Getenv("BENCH_LONG_TESTS") == "" {
		t.Skip("set BENCH_LONG_TESTS=1 to run bulk16 and the traced wan16")
	}
	smoke(t, "bulk16", 3, false)
	res := smoke(t, "wan16", 4, true)
	if res.Metrics["harness.dl_over_hb"].Value <= 0 || res.Metrics["cpu.simnet"].Value <= 0 {
		t.Errorf("wan16 layer metrics empty: %+v", res.Metrics)
	}
}

// The emulated workload is exactly repeatable: same seed, same numbers.
// The two runs are single-threaded and share the test's time.
func TestWanRepeatsPerSeed(t *testing.T) {
	var a, b *result
	t.Run("runs", func(t *testing.T) {
		for _, res := range []**result{&a, &b} {
			t.Run("wan16", func(t *testing.T) {
				t.Parallel()
				*res = smoke(t, "wan16", 2, false)
			})
		}
	})
	if a == nil || b == nil {
		return // a smoke failed and said why
	}
	for _, name := range []string{"committed_mb_s", "commit_p50_ms"} {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v with the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

// wan16 rebuilds harness.RunGeo's set-up from NewCluster (to attach the
// invariant checkers) with its own copy of the unexported delay matrix:
// the DL sub-run must measure what the figure lane measures.
func TestWanMatchesFigureLane(t *testing.T) {
	const virtual = 10 * time.Second
	sub, err := wanRun{core.ModeDL, harness.Scale, 0, virtual, wanNetworkSeed, false}.run()
	if err != nil {
		t.Fatal(err)
	}
	geo, err := harness.RunGeo(harness.GeoParams{Cities: trace.AWSCities, Mode: core.ModeDL, Duration: virtual, Seed: wanNetworkSeed})
	if err != nil {
		t.Fatal(err)
	}
	if sub.meanMBps <= 0 || sub.meanMBps != geo.Mean {
		t.Errorf("DL sub-run %v MB/s per node, harness.RunGeo %v", sub.meanMBps, geo.Mean)
	}
}

func TestParseStolen(t *testing.T) {
	for stat, want := range map[string]float64{
		"cpu  1537393 0 447083 1957256 290838 0 180212 23620 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n": 236.2,
		"cpu  10 0 10 100 0 0 0\n": 0, // a kernel without the column
		"":                         0,
	} {
		if got := parseStolen(stat); got != want {
			t.Errorf("parseStolen(%q) = %v, want %v", stat, got, want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 200 samples has 2 beyond it and must be refused")
	}
	if _, err := percentile(xs[:15], 50); err == nil {
		t.Error("p50 of 15 samples has 7 beyond it and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of nothing must be refused")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 3, 7, 9, 15, 1, 8, 20, 5, 11}
	q1, q3 := quartiles(xs)
	if q1 != 4.5 || q3 != 12.75 { // statistics.quantiles(xs, n=4) == [4.5, 8.5, 12.75]
		t.Errorf("quartiles = %v, %v; want 4.5, 12.75", q1, q3)
	}
	if got := spreadShare(xs); math.Abs(got-8.25/8.5) > 1e-12 {
		t.Errorf("spreadShare = %v", got)
	}
}

// A canned stack dump, innermost frame first: a sample belongs to the
// innermost repo package on its stack, so standard-library frames charge
// their caller and a stack with no repo frame is the runtime's.
func TestFoldCannedStacks(t *testing.T) {
	samples := []stackSample{
		{[]string{"crypto/sha256.block", "crypto/sha256.(*digest).Write", "dledger/internal/merkle.HashLeaf", "dledger/internal/avid.Disperse", "dledger/internal/core.(*Engine).Propose"}, 30},
		{[]string{"dledger/internal/gf256.MulAddSlice", "dledger/internal/erasure.(*Coder).encodeRows.func1"}, 25},
		{[]string{"syscall.Syscall", "os.(*File).Write", "dledger/internal/store.(*FileStore).Sync", "dledger/internal/replica.(*Replica).commit"}, 15},
		{[]string{"runtime.memmove", "dledger/internal/telemetry/txtrace.(*Journeys).Proof", "dledger/internal/gateway.(*Hub).OnDeliver"}, 10},
		{[]string{"runtime.mallocgc", "main.(*conn).makeTx", "main.(*conn).submit"}, 8},
		{[]string{"dledger/internal/bufpool.Get", "dledger/internal/transport.(*TCPNode).send"}, 4},
		{[]string{"dledger.(*Node).Stats"}, 2},
		{[]string{"runtime.gcBgMarkWorker", "runtime.systemstack"}, 6},
	}
	shares := foldStacks(samples)
	want := map[string]float64{
		"merkle": 0.30, "gf256": 0.25, "store": 0.15, "telemetry": 0.10,
		"bench": 0.08, "other": 0.06, "runtime": 0.06,
	}
	for layer, w := range want {
		if math.Abs(shares[layer]-w) > 1e-12 {
			t.Errorf("%s share = %v, want %v", layer, shares[layer], w)
		}
	}
	for _, layer := range []string{"avid", "core", "erasure", "replica", "gateway", "transport"} {
		if shares[layer] != 0 {
			t.Errorf("%s was charged %v for a frame further out on the stack", layer, shares[layer])
		}
	}
	if top := topLayer(shares); top != "merkle" {
		t.Errorf("top layer = %s, want merkle", top)
	}
}

// The minimal profile decoder must read what runtime/pprof writes.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	xs := make([]float64, 1<<12)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := range xs {
			xs[i] = float64((i * 7919) % len(xs))
		}
		if _, err := percentile(xs, 50); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler took no sample in 300 ms")
	}
	if shares := foldStacks(samples); shares["bench"] < 0.5 {
		t.Errorf("a loop in this package folded to %+v, want mostly bench", shares)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "commit_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "committed_mb_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	for _, c := range []struct {
		def  metricDef
		b    []float64
		want string
	}{
		{lower, scale(steady, 1.05), "ok"},
		{lower, scale(steady, 1.2), "worse"},
		{lower, scale(steady, 0.5), "ok"},
		{higher, scale(steady, 0.8), "worse"},
		{higher, scale(steady, 1.3), "ok"},
		{lower, noisy, "unresolved"},
	} {
		if got, _ := verdict(c.def, steady, c.b); got != c.want {
			t.Errorf("%s vs median %v: %s, want %s", c.def.Name, median(c.b), got, c.want)
		}
	}
}

func TestCompareBound(t *testing.T) {
	for _, c := range []struct {
		workload, metric string
		want             float64
	}{
		{"wan16", "committed_mb_s", 0.01},
		{"wan16", "commit_p50_ms", 0.10},
		{"bulk16", "committed_mb_s", 0.10},
		{"bulk16", "setup_s", 0.25},
	} {
		for _, def := range endToEnd {
			if got := compareBound(c.workload, def); def.Name == c.metric && got != c.want {
				t.Errorf("%s %s: bound %v, want %v", c.workload, c.metric, got, c.want)
			}
		}
	}
}

// BENCHMARK.json at the repo root is the catalogue as -manifest prints it.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the driver's limit is 200", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the driver's alphabet", d.Name)
		}
	}
}
