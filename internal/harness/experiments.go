package harness

import (
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/stats"
	"dledger/internal/telemetry"
	"dledger/internal/trace"
)

// Scale is the default down-scaling factor applied to bandwidths and
// batch sizes so that simulated minutes of a 16-node WAN run in seconds
// of CPU. Rates and block sizes shrink together, so the queueing shapes
// (who waits on whom) are preserved; reported throughputs are divided by
// the factor again, i.e. printed in paper-equivalent MB/s. EXPERIMENTS.md
// discusses the fidelity of this substitution.
const Scale = 1.0 / 64

// GeoParams configures the geo-distributed experiments (Fig 8, 9, 15).
type GeoParams struct {
	Cities   []trace.City
	Mode     core.Mode
	Scale    float64
	Duration time.Duration
	Warmup   time.Duration
	Seed     int64
	// Telemetry instruments every node (ClusterOptions.Telemetry), used
	// to demonstrate the enabled-path overhead stays within noise.
	Telemetry bool
	// MaxEpochLag bounds dispersal pipelining (the §4.5 lag guard,
	// core.Config.MaxEpochLag). Zero leaves it unbounded — the Fig 8
	// 16-city default. Large-N geo points need a bound for the same
	// reason the Fig 12 sweep does: with infinite backlog, unbounded
	// dispersal would starve retrieval entirely.
	MaxEpochLag uint64
}

func (p *GeoParams) defaults() {
	if p.Cities == nil {
		p.Cities = trace.AWSCities
	}
	if p.Scale == 0 {
		p.Scale = Scale
	}
	if p.Duration == 0 {
		p.Duration = 60 * time.Second
	}
	if p.Warmup == 0 {
		p.Warmup = p.Duration / 5
	}
}

// geoDelay derives a deterministic 40–140 ms one-way delay per city pair,
// standing in for real inter-city latencies.
func geoDelay(n int, seed int64) func(from, to int) time.Duration {
	d := make([][]time.Duration, n)
	rng := newSplitMix(uint64(seed) ^ 0x9e3779b97f4a7c15)
	for i := range d {
		d[i] = make([]time.Duration, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ms := 40 + rng.next()%101
			d[i][j] = time.Duration(ms) * time.Millisecond
			d[j][i] = d[i][j]
		}
	}
	return func(from, to int) time.Duration {
		if from == to {
			return 0
		}
		return d[from][to]
	}
}

type splitMix struct{ x uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{x: seed} }
func (s *splitMix) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ScaledReplicaParams returns replica params with the paper's Nagle
// thresholds (100 ms / 150 KB), the byte threshold scaled alongside
// bandwidth.
func ScaledReplicaParams(scale float64) replica.Params {
	return replica.Params{
		BatchDelay: 100 * time.Millisecond,
		BatchBytes: int(float64(150<<10) * scale),
	}
}

// GeoResult is a per-node throughput profile in paper-equivalent MB/s.
type GeoResult struct {
	Mode       core.Mode
	Names      []string
	Throughput []float64 // per node, MB/s (already re-scaled)
	Mean       float64
	// RetrieveAmplification is the largest Cluster.RetrieveAmplification
	// of any node: how many times over the worst-placed node downloaded
	// what it delivered.
	RetrieveAmplification float64
}

// geoCluster builds the infinite-backlog cluster RunGeo measures (not yet
// started); p has its defaults filled in.
func geoCluster(p GeoParams) (*Cluster, error) {
	n := len(p.Cities)
	samples := int(p.Duration/time.Second) + 2
	return NewCluster(ClusterOptions{
		Core:            core.Config{N: n, F: (n - 1) / 3, Mode: p.Mode, MaxEpochLag: p.MaxEpochLag},
		Replica:         ScaledReplicaParams(p.Scale),
		Egress:          trace.CityTraces(p.Cities, p.Scale, samples, time.Second, p.Seed),
		Delay:           geoDelay(n, p.Seed),
		TxSize:          256,
		InfiniteBacklog: true,
		Telemetry:       p.Telemetry,
		Seed:            p.Seed,
	})
}

// RunGeo measures per-server throughput on a geo profile under infinite
// backlog (Fig 8 / Fig 15 methodology).
func RunGeo(p GeoParams) (*GeoResult, error) {
	p.defaults()
	c, err := geoCluster(p)
	if err != nil {
		return nil, err
	}
	c.Start()
	c.Run(p.Duration)
	res := &GeoResult{Mode: p.Mode, Names: trace.Names(p.Cities)}
	var sum float64
	for i := range c.Replicas {
		mbps := c.Throughput(i, p.Warmup, p.Duration) / p.Scale / trace.MB
		res.Throughput = append(res.Throughput, mbps)
		sum += mbps
		res.RetrieveAmplification = max(res.RetrieveAmplification, c.RetrieveAmplification(i))
	}
	res.Mean = sum / float64(len(c.Replicas))
	return res, nil
}

// ProgressResult is Fig 9: per-node confirmed bytes over time.
type ProgressResult struct {
	Mode  core.Mode
	Names []string
	// Series is per node; values are cumulative confirmed bytes divided
	// by scale (paper-equivalent bytes).
	Series []*stats.TimeSeries
}

// RunProgress records each node's confirmation progress on the geo
// profile (Fig 9 plots DL vs HB-Link on the same scale).
func RunProgress(p GeoParams) (*ProgressResult, error) {
	p.defaults()
	c, err := geoCluster(p)
	if err != nil {
		return nil, err
	}
	for i := range c.progress {
		c.progress[i].MinGap = 100 * time.Millisecond
	}
	c.Start()
	c.Run(p.Duration)
	res := &ProgressResult{Mode: p.Mode, Names: trace.Names(p.Cities)}
	for i := range c.Replicas {
		ts := &stats.TimeSeries{}
		src := &c.progress[i]
		for k := range src.Times {
			ts.Force(src.Times[k], src.Values[k]/p.Scale)
		}
		res.Series = append(res.Series, ts)
	}
	return res, nil
}

// LatencyParams configures the load-sweep latency experiment (Fig 10).
type LatencyParams struct {
	Cities   []trace.City
	Mode     core.Mode
	Duration time.Duration
	Warmup   time.Duration
	// LoadPerNode is the offered load per node in paper-equivalent
	// bytes/second (it is multiplied by LatencyScale internally).
	LoadPerNode float64
	Seed        int64
	// Telemetry instruments every node; LatencyResult.Stages then
	// carries the per-segment lifecycle latency panel.
	Telemetry bool

	// BatchDelay and BatchBytes, when set, override the Nagle thresholds
	// (the abl-batch sweep). BatchBytes is paper-equivalent: it is scaled
	// alongside bandwidth.
	BatchDelay time.Duration
	BatchBytes int
}

// StageLatency summarizes one epoch-lifecycle segment's telemetry
// histogram for a load point: quantiles in milliseconds (mean across
// nodes) and the total observation count.
type StageLatency struct {
	P50Ms, P95Ms float64
	Count        uint64
}

// LatencyResult reports per-node latency percentiles for one load point.
type LatencyResult struct {
	Mode              core.Mode
	LoadPerNode       float64 // paper-equivalent bytes/s
	Names             []string
	P5, P50, P95, P99 []time.Duration // local-transaction latency per node
	AllP50, AllP95    []time.Duration // all-transaction latency (Fig 14)
	DeliveredPayload  []int64
	// BacklogSlope is how fast the slowest node's backlog of decided but
	// undelivered epochs grew after warm-up, in epochs per virtual second.
	// A point whose backlog grows is not in steady state: its percentiles
	// are censored by the horizon and rise with the run length.
	BacklogSlope float64
	// Stages is the lifecycle latency panel (disperse, ba, retrieve,
	// e2e from dl_epoch_stage_seconds); nil without Params.Telemetry.
	Stages map[string]StageLatency
	// Phases is the sampled transaction-journey decomposition
	// (dl_tx_phase_seconds): where a transaction's inclusion-to-commit
	// latency actually goes. Nil without Params.Telemetry. The
	// admit_wait and proof phases are hub-side and absent in the
	// emulated cluster (loads are injected below the gateway).
	Phases map[string]StageLatency
}

// steadyBacklogSlope is the backlog growth, in epochs per second, above
// which a latency point is not a steady-state measurement: the slowest
// node falls another epoch behind its decisions every ten seconds.
const steadyBacklogSlope = 0.1

// Steady reports whether every node kept up with its decisions after
// warm-up, so that the percentiles do not depend on the run length.
func (r *LatencyResult) Steady() bool { return r.BacklogSlope <= steadyBacklogSlope }

// LatencyScale is the scale of the latency experiments. Latency runs
// are load-limited rather than bandwidth-limited, so they can afford a
// larger scale; a larger scale keeps per-message fixed overheads (headers,
// proofs — which do not shrink with the scale factor) a small fraction of
// the scaled bandwidth, as they are at paper scale.
const LatencyScale = 1.0 / 8

// latencyCluster builds the open-loop cluster RunLatency measures (not
// yet started), filling in p's defaults.
func latencyCluster(p *LatencyParams) (*Cluster, error) {
	if p.Cities == nil {
		p.Cities = trace.AWSCities
	}
	if p.Duration == 0 {
		p.Duration = 60 * time.Second
	}
	if p.Warmup == 0 {
		p.Warmup = p.Duration / 5
	}
	n := len(p.Cities)
	samples := int(p.Duration/time.Second) + 2
	rp := ScaledReplicaParams(LatencyScale)
	if p.BatchDelay != 0 {
		rp.BatchDelay = p.BatchDelay
	}
	if p.BatchBytes != 0 {
		rp.BatchBytes = int(float64(p.BatchBytes) * LatencyScale)
	}
	return NewCluster(ClusterOptions{
		Core:        core.Config{N: n, F: (n - 1) / 3, Mode: p.Mode},
		Replica:     rp,
		Egress:      trace.CityTraces(p.Cities, LatencyScale, samples, time.Second, p.Seed),
		Delay:       geoDelay(n, p.Seed),
		TxSize:      256,
		LoadPerNode: p.LoadPerNode * LatencyScale,
		Telemetry:   p.Telemetry,
		Seed:        p.Seed,
	})
}

// retrievalLag is each node's decided-but-undelivered epoch count.
func (c *Cluster) retrievalLag() []float64 {
	out := make([]float64, len(c.Replicas))
	for i, r := range c.Replicas {
		out[i] = float64(r.Engine().DecidedThrough()) - float64(r.Engine().DeliveredEpoch())
	}
	return out
}

// RunLatency measures confirmation latency at one offered load.
func RunLatency(p LatencyParams) (*LatencyResult, error) {
	c, err := latencyCluster(&p)
	if err != nil {
		return nil, err
	}
	c.Start()
	var lagAtWarmup []float64
	c.Sim.At(p.Warmup, func() { lagAtWarmup = c.retrievalLag() })
	c.Run(p.Duration)
	res := &LatencyResult{Mode: p.Mode, LoadPerNode: p.LoadPerNode, Names: trace.Names(p.Cities)}
	if lagAtWarmup != nil {
		for i, lag := range c.retrievalLag() {
			if s := (lag - lagAtWarmup[i]) / (p.Duration - p.Warmup).Seconds(); s > res.BacklogSlope {
				res.BacklogSlope = s
			}
		}
	}
	for i := range c.Replicas {
		local := &c.Replicas[i].Stats.LatLocal
		all := &c.Replicas[i].Stats.LatAll
		res.P5 = append(res.P5, local.Percentile(5))
		res.P50 = append(res.P50, local.Percentile(50))
		res.P95 = append(res.P95, local.Percentile(95))
		res.P99 = append(res.P99, local.Percentile(99))
		res.AllP50 = append(res.AllP50, all.Percentile(50))
		res.AllP95 = append(res.AllP95, all.Percentile(95))
		res.DeliveredPayload = append(res.DeliveredPayload, c.Replicas[i].Stats.DeliveredPayload)
	}
	if p.Telemetry {
		res.Stages = stagePanel(c)
		res.Phases = phasePanel(c)
	}
	return res, nil
}

// latencyPanel aggregates one histogram family across the cluster,
// one entry per label value (the family's label set is label="value"):
// quantiles averaged across the nodes that observed the series, counts
// summed. Series no node observed (admit_wait/proof without a gateway)
// are omitted.
func latencyPanel(c *Cluster, family, label string, values []string) map[string]StageLatency {
	out := map[string]StageLatency{}
	for _, v := range values {
		var sl StageLatency
		var sum50, sum95 float64
		nodes := 0
		for i := range c.Replicas {
			h := c.Tels[i].Registry().FindHistogram(family, label+`="`+v+`"`)
			if h.Count() == 0 {
				continue
			}
			sl.Count += h.Count()
			sum50 += float64(h.Quantile(0.50)) / float64(time.Millisecond)
			sum95 += float64(h.Quantile(0.95)) / float64(time.Millisecond)
			nodes++
		}
		if nodes > 0 {
			sl.P50Ms = sum50 / float64(nodes)
			sl.P95Ms = sum95 / float64(nodes)
			out[v] = sl
		}
	}
	return out
}

// stagePanel is the per-segment epoch-lifecycle latency panel
// (dl_epoch_stage_seconds).
func stagePanel(c *Cluster) map[string]StageLatency {
	return latencyPanel(c, "dl_epoch_stage_seconds", "stage", []string{"disperse", "ba", "retrieve", "e2e"})
}

// phasePanel is the sampled transaction-journey decomposition
// (dl_tx_phase_seconds).
func phasePanel(c *Cluster) map[string]StageLatency {
	phases := make([]string, telemetry.NumPhases)
	for p := range phases {
		phases[p] = telemetry.Phase(p).String()
	}
	return latencyPanel(c, telemetry.PhaseMetric, "phase", phases)
}

// ControlledParams configures the controlled experiments of §6.3
// (Fig 11a/11b): 16 nodes, flat 100 ms delay, synthetic bandwidth.
type ControlledParams struct {
	N        int
	Mode     core.Mode
	Duration time.Duration
	Warmup   time.Duration
	Seed     int64
	// Temporal selects Gauss-Markov traces (Fig 11b); otherwise constant
	// rates are used. Spatial selects the 10+0.5i MB/s profile (Fig 11a);
	// otherwise all nodes get 10 MB/s.
	Temporal bool
	Spatial  bool
	// PriorityWeight overrides T (for the priority ablation); 0 = 30.
	PriorityWeight float64
	// Bandwidth is the base link rate b in paper-equivalent MB/s (default
	// the paper's 10): links are b, b(1+0.05i) under Spatial, and
	// Gauss-Markov around b with σ = b/2 under Temporal. A cluster
	// smaller than the paper's 16 nodes offers less load per epoch and
	// needs narrower links to stay bandwidth-bound.
	Bandwidth float64
}

func (p *ControlledParams) defaults() {
	if p.N == 0 {
		p.N = 16
	}
	if p.Bandwidth == 0 {
		p.Bandwidth = 10
	}
	if p.Duration == 0 {
		p.Duration = 60 * time.Second
	}
	if p.Warmup == 0 {
		p.Warmup = p.Duration / 5
	}
}

// ControlledResult reports per-node and aggregate throughput.
type ControlledResult struct {
	Mode       core.Mode
	Throughput []float64 // per node, paper-equivalent MB/s
	Mean, Std  float64
	// EpochRate is the mean dispersal-pipeline progress in epochs/second
	// — the quantity the §5 priority scheme protects.
	EpochRate float64
}

// RunControlled runs one controlled-setting experiment.
func RunControlled(p ControlledParams) (*ControlledResult, error) {
	p.defaults()
	traces := make([]trace.Trace, p.N)
	samples := int(p.Duration/time.Second) + 2
	for i := 0; i < p.N; i++ {
		mean := p.Bandwidth * trace.MB * Scale
		if p.Spatial {
			mean *= 1 + 0.05*float64(i)
		}
		if p.Temporal {
			traces[i] = trace.GaussMarkov(trace.GaussMarkovParams{
				Mean:  mean,
				Sigma: p.Bandwidth / 2 * trace.MB * Scale,
				Alpha: 0.98,
				Tick:  time.Second,
			}, samples, p.Seed+int64(i)*131)
		} else {
			traces[i] = trace.Constant(mean)
		}
	}
	c, err := NewCluster(ClusterOptions{
		Core:            core.Config{N: p.N, F: (p.N - 1) / 3, Mode: p.Mode},
		Replica:         ScaledReplicaParams(Scale),
		Egress:          traces,
		TxSize:          256,
		InfiniteBacklog: true,
		Seed:            p.Seed,
		PriorityWeight:  p.PriorityWeight,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	c.Run(p.Duration)
	res := &ControlledResult{Mode: p.Mode}
	var w, er stats.Welford
	for i := 0; i < p.N; i++ {
		mbps := c.Throughput(i, p.Warmup, p.Duration) / Scale / trace.MB
		res.Throughput = append(res.Throughput, mbps)
		w.Add(mbps)
		er.Add(float64(c.Replicas[i].Engine().DispersalEpoch()) / p.Duration.Seconds())
	}
	res.Mean, res.Std = w.Mean(), w.StdDev()
	res.EpochRate = er.Mean()
	return res, nil
}

// ScaleParams configures the scalability experiments (Fig 12, 13).
type ScaleParams struct {
	N          int
	BlockBytes int // paper-equivalent block size (scaled internally)
	Scale      float64
	Duration   time.Duration
	Warmup     time.Duration
	Seed       int64
	// MaxEpochLag is the §4.5 lag guard P (core.Config.MaxEpochLag);
	// zero leaves dispersal pipelining unbounded.
	MaxEpochLag uint64
}

// ScaleResult reports Fig 12's throughput and Fig 13's dispersal-traffic
// fraction for one (N, block size) point.
type ScaleResult struct {
	N                 int
	BlockBytes        int
	Throughput        float64 // mean per-node, paper-equivalent MB/s
	ThroughputStd     float64
	DispersalFraction float64 // mean across nodes
	// FinalLag is the mean over nodes of the gap between the dispersal
	// and the delivered epoch at the horizon, in epochs.
	FinalLag float64
}

// ScalabilityScale is the default scale of the cluster-size sweeps.
// Per-message fixed costs (headers, quorum votes) do not shrink with the
// scale factor, and at N >= 31 they are Θ(N²) per epoch; a deeper
// down-scaling would let them dominate the scaled bandwidth, which no
// paper-scale deployment experiences.
const ScalabilityScale = 1.0 / 8

// RunScalability runs one point of the cluster-size sweep: uniform
// 10 MB/s caps, 100 ms delays, fixed-size blocks.
func RunScalability(p ScaleParams) (*ScaleResult, error) {
	if p.Scale == 0 {
		p.Scale = ScalabilityScale
	}
	if p.Duration == 0 {
		p.Duration = 60 * time.Second
	}
	if p.Warmup == 0 {
		p.Warmup = p.Duration / 5
	}
	traces := make([]trace.Trace, p.N)
	for i := range traces {
		traces[i] = trace.Constant(10 * trace.MB * p.Scale)
	}
	rp := ScaledReplicaParams(p.Scale)
	rp.FixedBlockBytes = int(float64(p.BlockBytes) * p.Scale)
	c, err := NewCluster(ClusterOptions{
		Core:            core.Config{N: p.N, F: (p.N - 1) / 3, Mode: core.ModeDL, MaxEpochLag: p.MaxEpochLag},
		Replica:         rp,
		Egress:          traces,
		TxSize:          256,
		InfiniteBacklog: true,
		Seed:            p.Seed,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	c.Run(p.Duration)
	res := &ScaleResult{N: p.N, BlockBytes: p.BlockBytes}
	var w, frac, lag stats.Welford
	for i := 0; i < p.N; i++ {
		w.Add(c.Throughput(i, p.Warmup, p.Duration) / p.Scale / trace.MB)
		frac.Add(c.DispersalFraction(i))
		eng := c.Replicas[i].Engine()
		lag.Add(float64(eng.DispersalEpoch()) - float64(eng.DeliveredEpoch()))
	}
	res.Throughput, res.ThroughputStd = w.Mean(), w.StdDev()
	res.DispersalFraction, res.FinalLag = frac.Mean(), lag.Mean()
	return res, nil
}
