package harness

import (
	"strings"
	"testing"
	"time"

	"dledger/internal/avid"
	"dledger/internal/core"
	"dledger/internal/trace"
)

// Short, scaled-down runs: the full paper-shaped sweeps live in the
// benchmark harness (cmd/dlbench); these tests verify the
// runners work and the headline qualitative claims hold.

func TestFig2ShapeAVIDMBeatsAVIDFP(t *testing.T) {
	pts, err := RunFig2([]int{4, 16, 31}, []int{100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.AVIDM <= 0 || p.AVIDFP <= 0 {
			t.Fatalf("degenerate cost at N=%d: %+v", p.N, p)
		}
		if p.N >= 16 && p.AVIDM >= p.AVIDFP {
			t.Fatalf("N=%d: AVID-M (%.3f|B|) should beat AVID-FP (%.3f|B|)", p.N, p.AVIDM, p.AVIDFP)
		}
		if p.AVIDM < p.LowerBound {
			t.Fatalf("N=%d: AVID-M cost %.4f below the information-theoretic bound %.4f",
				p.N, p.AVIDM, p.LowerBound)
		}
	}
	// The gap must widen with N (the whole point of Fig 2).
	gap16 := pts[1].AVIDFP / pts[1].AVIDM
	gap31 := pts[2].AVIDFP / pts[2].AVIDM
	if gap31 <= gap16 {
		t.Fatalf("AVID-FP/AVID-M cost ratio should grow with N: %.2f at 16, %.2f at 31", gap16, gap31)
	}
}

// TestFig2MatchesBaseline pins every quick-sweep Fig 2 point to the
// committed BENCH_20261004.json record bit for bit: the AVID-M side is a
// deterministic run of package avid's servers and the AVID-FP side is
// closed-form, so any drift is a change to dispersal message sizes.
func TestFig2MatchesBaseline(t *testing.T) {
	want := []Fig2Point{
		{4, 102400, 0.50380859375, 0.511904296875, 0.5},
		{16, 102400, 0.181640625, 0.354736328125, 0.16666666666666666},
		{40, 102400, 0.10799023437500001, 1.2418359375, 0.07142857142857142},
		{64, 102400, 0.103232421875, 3.038203125, 0.045454545454545456},
		{4, 1048576, 0.5003719329833984, 0.5011625289916992, 0.5},
		{16, 1048576, 0.16812896728515625, 0.18503284454345703, 0.16666666666666666},
		{40, 1048576, 0.07499904632568359, 0.18572616577148438, 0.07142857142857142},
		{64, 1048576, 0.05109691619873047, 0.33771514892578125, 0.045454545454545456},
	}
	got, err := RunFig2([]int{4, 16, 40, 64}, []int{100 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func avidfpParams(t *testing.T, n, f int) avid.Params {
	t.Helper()
	p, err := avid.NewParams(n, f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAVIDFPCrossChecksumSize(t *testing.T) {
	// §2.2: the cross-checksum is Nλ + (N−2f)γ bytes.
	p := avidfpParams(t, 16, 5)
	if got, want := avidfpCrossChecksumSize(p), 16*32+6*16; got != want {
		t.Fatalf("CCS size %d, want %d", got, want)
	}
	// Every one of a server's 2N−1 downloads carries one checksum.
	grow := avidfpDispersalCost(p, 1000) - int64(p.Coder.ShardSize(1000))
	if min := int64(2*p.N-1) * int64(avidfpCrossChecksumSize(p)); grow < min {
		t.Fatalf("per-node cost %d carries less than 2N-1 checksums (%d bytes)", grow, min)
	}
}

func TestAVIDFPPerNodeOverheadQuadratic(t *testing.T) {
	// The per-node dispersal cost of AVID-FP grows ~quadratically with N
	// at fixed block size: each of Θ(N) received messages carries a Θ(N)
	// checksum. Verify cost(N=32) is much more than 2x cost(N=16).
	const block = 100 << 10
	c16 := avidfpDispersalCost(avidfpParams(t, 16, 5), block)
	c32 := avidfpDispersalCost(avidfpParams(t, 32, 10), block)
	if c32 < c16*2 {
		t.Fatalf("expected superlinear per-node cost growth: N=16 %d, N=32 %d", c16, c32)
	}
}

func TestAVIDFPExceedsBlockAtN127(t *testing.T) {
	// At N=127, |B|=100 KB, AVID-FP per-node dispersal download must
	// exceed the full block size (the paper's headline: >1x at N>40 for
	// 100 KB blocks).
	const block = 100 << 10
	if perNode := avidfpDispersalCost(avidfpParams(t, 127, 42), block); perNode < block {
		t.Fatalf("AVID-FP per-node cost %d should exceed block size %d at N=127", perNode, block)
	}
}

func smallGeo() []trace.City {
	// A 7-node slice of the AWS profile keeps tests fast while preserving
	// the fast/slow spread.
	return []trace.City{
		trace.AWSCities[0], // Ohio (fast)
		trace.AWSCities[2],
		trace.AWSCities[5],
		trace.AWSCities[8],
		trace.AWSCities[11],
		trace.AWSCities[13],
		trace.AWSCities[15], // Mumbai (slow)
	}
}

func TestGeoThroughputDLBeatsHB(t *testing.T) {
	p := GeoParams{Cities: smallGeo(), Scale: 1.0 / 64, Duration: 25 * time.Second, Seed: 1}

	p.Mode = core.ModeDL
	dl, err := RunGeo(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Mode = core.ModeHB
	hb, err := RunGeo(p)
	if err != nil {
		t.Fatal(err)
	}
	if dl.Mean <= 0 || hb.Mean <= 0 {
		t.Fatalf("degenerate throughputs: DL %.2f, HB %.2f", dl.Mean, hb.Mean)
	}
	// §6.2 headline: DL substantially outperforms HB (2x in the paper; we
	// only require a clear win at this scale).
	if dl.Mean < hb.Mean*1.3 {
		t.Fatalf("DL mean %.2f MB/s not clearly above HB %.2f MB/s", dl.Mean, hb.Mean)
	}
	// Decoupling: the fastest DL node should outrun the slowest DL node
	// (nodes run at their own pace), while HB is coupled to a straggler.
	if dl.Throughput[0] <= dl.Throughput[len(dl.Throughput)-1] {
		t.Fatalf("DL fast node (%.2f) not faster than slow node (%.2f)",
			dl.Throughput[0], dl.Throughput[len(dl.Throughput)-1])
	}
}

func TestGeoHBLinkBetweenHBAndDL(t *testing.T) {
	p := GeoParams{Cities: smallGeo(), Scale: 1.0 / 64, Duration: 25 * time.Second, Seed: 2}
	means := map[core.Mode]float64{}
	for _, m := range []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL} {
		p.Mode = m
		r, err := RunGeo(p)
		if err != nil {
			t.Fatal(err)
		}
		means[m] = r.Mean
	}
	if !(means[core.ModeHBLink] > means[core.ModeHB]) {
		t.Fatalf("HB-Link (%.2f) should beat HB (%.2f): linking stops wasted blocks",
			means[core.ModeHBLink], means[core.ModeHB])
	}
	if !(means[core.ModeDL] > means[core.ModeHBLink]) {
		t.Fatalf("DL (%.2f) should beat HB-Link (%.2f): decoupled retrieval",
			means[core.ModeDL], means[core.ModeHBLink])
	}
}

func TestProgressSeriesShape(t *testing.T) {
	p := GeoParams{Cities: smallGeo(), Mode: core.ModeDL, Scale: 1.0 / 64,
		Duration: 15 * time.Second, Seed: 3}
	r, err := RunGeo(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Progress) != 7 {
		t.Fatalf("got %d series", len(r.Progress))
	}
	for i, ts := range r.Progress {
		if len(ts.Times) < 3 {
			t.Fatalf("node %d has only %d progress points", i, len(ts.Times))
		}
		if ts.Values[len(ts.Values)-1] <= 0 {
			t.Fatalf("node %d confirmed nothing", i)
		}
		// Cumulative confirmed bytes never go down.
		for k := 1; k < len(ts.Values); k++ {
			if ts.Values[k] < ts.Values[k-1] {
				t.Fatalf("node %d: progress series not monotone at point %d", i, k)
			}
		}
	}
}

func TestLatencyLowLoadStaysLow(t *testing.T) {
	// At genuinely low load every node should confirm within a few
	// seconds (the paper sees ~800 ms at full scale; our scaled runs pay
	// relatively more per-message fixed overhead, so the bar is looser).
	p := GeoParams{
		Cities: smallGeo(), Mode: core.ModeDL, Scale: LatencyScale,
		Duration: 20 * time.Second, LoadPerNode: 0.25 * trace.MB, Seed: 4,
	}
	r, err := RunGeo(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, p50 := range r.P50 {
		if p50 == 0 {
			t.Fatalf("node %d (%s) has no local latency samples", i, r.Names[i])
		}
		if p50 > 4*time.Second {
			t.Fatalf("node %d (%s) median latency %v too high at low load", i, r.Names[i], p50)
		}
	}
	// The well-connected site should be comfortably fast.
	if r.P50[0] > 2500*time.Millisecond {
		t.Fatalf("fast site median %v too high at low load", r.P50[0])
	}
}

func TestLatencyDLFlatterThanHBUnderLoad(t *testing.T) {
	// Fig 10: as load rises toward HB's capacity, HB's median latency
	// grows much more than DL's.
	load := 2.0 * trace.MB
	base := GeoParams{Cities: smallGeo(), Scale: LatencyScale,
		Duration: 25 * time.Second, LoadPerNode: load, Seed: 5}

	base.Mode = core.ModeDL
	dl, err := RunGeo(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Mode = core.ModeHB
	hb, err := RunGeo(base)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the fast site (index 0 = Ohio-like).
	if dl.P50[0] >= hb.P50[0] {
		t.Fatalf("DL median %v should be below HB median %v under load", dl.P50[0], hb.P50[0])
	}
}

func TestSpatialVariationDecoupling(t *testing.T) {
	// Fig 11a: with bandwidth b(1+0.05i), HB's throughput is flat (capped
	// by the straggler quorum) while DL's grows with node bandwidth. Ten
	// nodes offer at most 7.7 MB/s (installBacklog's refill ceiling over
	// the epoch time), which the paper's 10 MB/s links all carry; at
	// b = 5 the links are the bound again.
	const n = 10
	pDL := GeoParams{Links: trace.Spatial(n, 5*trace.MB*Scale), Mode: core.ModeDL,
		Duration: 25 * time.Second, Seed: 6}
	dl, err := RunGeo(pDL)
	if err != nil {
		t.Fatal(err)
	}
	pHB := pDL
	pHB.Mode = core.ModeHB
	hb, err := RunGeo(pHB)
	if err != nil {
		t.Fatal(err)
	}
	// DL: fastest node clearly above slowest.
	if dl.Throughput[n-1] < dl.Throughput[0]*1.1 {
		t.Fatalf("DL did not decouple: node0 %.2f vs node%d %.2f",
			dl.Throughput[0], n-1, dl.Throughput[n-1])
	}
	// HB: fast nodes gated near the straggler rate — spread stays small.
	if hb.Throughput[n-1] > hb.Throughput[0]*1.35 {
		t.Fatalf("HB spread too large for coupled protocol: %.2f vs %.2f",
			hb.Throughput[0], hb.Throughput[n-1])
	}
}

func TestTemporalVariationRobustness(t *testing.T) {
	// Fig 11b: DL's throughput under Gauss-Markov variation stays close
	// to its fixed-bandwidth throughput; HB's drops. Links of 5 MB/s keep
	// ten nodes bandwidth-bound (see TestSpatialVariationDecoupling).
	const d = 25 * time.Second
	run := func(mode core.Mode, temporal bool) float64 {
		p := GeoParams{Links: trace.Uniform(10, 5*trace.MB*Scale), Mode: mode, Duration: d, Seed: 7}
		if temporal {
			p.Links = trace.Temporal(10, 5*trace.MB*Scale, d, p.Seed)
		}
		r, err := RunGeo(p)
		if err != nil {
			t.Fatal(err)
		}
		return r.Mean
	}
	dlFixed := run(core.ModeDL, false)
	dlVar := run(core.ModeDL, true)
	hbFixed := run(core.ModeHB, false)
	hbVar := run(core.ModeHB, true)

	if dlVar < dlFixed*0.85 {
		t.Fatalf("DL lost %.0f%% under temporal variation; paper says ~none",
			100*(1-dlVar/dlFixed))
	}
	hbDrop := 1 - hbVar/hbFixed
	dlDrop := 1 - dlVar/dlFixed
	if hbDrop <= dlDrop {
		t.Fatalf("HB drop (%.1f%%) should exceed DL drop (%.1f%%)", 100*hbDrop, 100*dlDrop)
	}
}

func TestScalabilityRunnerAndDispersalFraction(t *testing.T) {
	p := GeoParams{Links: trace.Uniform(7, 10*trace.MB*Scale), FixedBlockBytes: 500 << 10,
		Duration: 20 * time.Second, Seed: 8}
	small, err := RunGeo(p)
	if err != nil {
		t.Fatal(err)
	}
	if small.Mean <= 0 {
		t.Fatal("no throughput in scalability run")
	}
	if small.DispersalFraction <= 0 || small.DispersalFraction >= 1 {
		t.Fatalf("dispersal fraction %.3f out of range", small.DispersalFraction)
	}
	// Fig 13: larger blocks amortize VID/BA overhead, shrinking the
	// dispersal fraction.
	p.FixedBlockBytes = 2 << 20
	big, err := RunGeo(p)
	if err != nil {
		t.Fatal(err)
	}
	if big.DispersalFraction >= small.DispersalFraction {
		t.Fatalf("dispersal fraction should fall with block size: %.3f (500K) vs %.3f (2M)",
			small.DispersalFraction, big.DispersalFraction)
	}
}

func TestDLCoupledStillBeatsHB(t *testing.T) {
	// §6.2: DL-Coupled retains most of DL's gains.
	p := GeoParams{Cities: smallGeo(), Scale: 1.0 / 64, Duration: 25 * time.Second, Seed: 9}
	p.Mode = core.ModeDLCoupled
	dlc, err := RunGeo(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Mode = core.ModeHB
	hb, err := RunGeo(p)
	if err != nil {
		t.Fatal(err)
	}
	if dlc.Mean <= hb.Mean {
		t.Fatalf("DL-Coupled (%.2f) should beat HB (%.2f)", dlc.Mean, hb.Mean)
	}
}

// TestClusterGuardErrors covers the refusals of the cluster's crash and
// join entry points: each misuse must fail loudly instead of booting a
// node that silently wedges.
func TestClusterGuardErrors(t *testing.T) {
	build := func(durable, stateSync bool) *Cluster {
		t.Helper()
		traces := make([]trace.Trace, 4)
		for i := range traces {
			traces[i] = trace.Constant(2 * trace.MB)
		}
		c, err := NewCluster(ClusterOptions{
			Core: core.Config{N: 4, F: 1, Mode: core.ModeDL,
				CoinSecret: []byte("guard test"), StateSync: stateSync},
			Egress:  traces,
			Durable: durable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"AddNode without Hold", func() error {
			return build(true, true).AddNode(3, nil)
		}, "requires a prior Hold(3)"},
		{"AddNode without StateSync", func() error {
			c := build(true, false)
			c.Hold(3)
			return c.AddNode(3, nil)
		}, "requires Core.StateSync"},
		{"Restart without Durable", func() error {
			c := build(false, false)
			c.Crash(2)
			return c.Restart(2, nil)
		}, "requires ClusterOptions.Durable"},
	} {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
