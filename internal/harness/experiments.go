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

// GeoParams configures one run of the paper's §6 method, which every
// emulated figure from Fig 8 to Fig 15 shares: a link profile, a
// protocol and a load, measured per node after warm-up. A field left at
// zero takes the default its comment gives.
type GeoParams struct {
	// Cities gives each node a city's bandwidth trace, scaled by Scale,
	// and a 40–140 ms one-way delay per pair (default trace.AWSCities).
	// Links, when set, gives the egress traces explicitly, already
	// scaled, with the flat 100 ms delay of the controlled setting
	// (Fig 11 and 12: trace.Spatial, trace.Temporal, trace.Uniform).
	Cities []trace.City
	Links  []trace.Trace

	Mode core.Mode
	// Scale shrinks bandwidths and byte sizes alike (default Scale).
	Scale    float64
	Duration time.Duration // default 60 s
	Warmup   time.Duration // default Duration/5
	Seed     int64
	// Telemetry instruments every node (ClusterOptions.Telemetry);
	// GeoResult.Stages and Phases then carry the latency panels.
	Telemetry bool
	// MaxEpochLag bounds dispersal pipelining (the §4.5 lag guard,
	// core.Config.MaxEpochLag). Zero leaves it unbounded — the Fig 8
	// 16-city default. Large-N points need a bound: with infinite
	// backlog, unbounded dispersal would starve retrieval entirely.
	MaxEpochLag uint64

	// LoadPerNode is the offered Poisson load per node in
	// paper-equivalent bytes/second (Fig 10, 14); zero keeps every
	// mempool backlogged instead, the paper's throughput methodology.
	LoadPerNode float64
	// BatchDelay and BatchBytes override the Nagle thresholds
	// (abl-batch); FixedBlockBytes fixes the block size (Fig 12).
	// Byte sizes are paper-equivalent: they are scaled alongside
	// bandwidth.
	BatchDelay      time.Duration
	BatchBytes      int
	FixedBlockBytes int
	// PriorityWeight overrides the dispersal:retrieval weight T
	// (abl-priority); zero = 30.
	PriorityWeight float64
}

func (p *GeoParams) defaults() {
	if p.Cities == nil && p.Links == nil {
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

// cluster fills in p's defaults and builds the cluster RunGeo measures,
// not yet started.
func (p *GeoParams) cluster() (*Cluster, error) {
	p.defaults()
	rp := ScaledReplicaParams(p.Scale)
	if p.BatchDelay != 0 {
		rp.BatchDelay = p.BatchDelay
	}
	if p.BatchBytes != 0 {
		rp.BatchBytes = int(float64(p.BatchBytes) * p.Scale)
	}
	rp.FixedBlockBytes = int(float64(p.FixedBlockBytes) * p.Scale)
	opts := ClusterOptions{
		Replica:         rp,
		Egress:          p.Links,
		PriorityWeight:  p.PriorityWeight,
		TxSize:          256,
		LoadPerNode:     p.LoadPerNode * p.Scale,
		InfiniteBacklog: p.LoadPerNode == 0,
		Telemetry:       p.Telemetry,
		Seed:            p.Seed,
	}
	if p.Links == nil {
		samples := int(p.Duration/time.Second) + 2
		opts.Egress = trace.CityTraces(p.Cities, p.Scale, samples, time.Second, p.Seed)
		opts.Delay = geoDelay(len(p.Cities), p.Seed)
	}
	n := len(opts.Egress)
	opts.Core = core.Config{N: n, F: (n - 1) / 3, Mode: p.Mode, MaxEpochLag: p.MaxEpochLag}
	return NewCluster(opts)
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

// GeoResult is everything one run measures, per node and in
// paper-equivalent units, whichever figure reads it.
type GeoResult struct {
	// GeoParams is the run's configuration, defaults filled in.
	GeoParams
	Names []string // the city of each node; empty on explicit Links

	Throughput []float64 // per node, MB/s (already re-scaled)
	// Mean and Std summarize Throughput. On explicit Links the mean is
	// accumulated as a running (Welford) mean, as the Fig 11 and 12
	// baselines were recorded; it differs from the plain average only in
	// the last bits.
	Mean, Std float64
	// RetrieveAmplification is the largest Cluster.RetrieveAmplification
	// of any node: how many times over the worst-placed node downloaded
	// what it delivered.
	RetrieveAmplification float64
	// DispersalFraction is the mean Cluster.DispersalFraction (Fig 13).
	DispersalFraction float64
	// EpochRate is the mean dispersal-pipeline progress in epochs/second
	// — the quantity the §5 priority scheme protects.
	EpochRate float64
	// FinalLag is the mean over nodes of the gap between the dispersal
	// and the delivered epoch at the horizon, in epochs.
	FinalLag float64

	P5, P50, P95, P99 []time.Duration // local-transaction latency per node
	AllP50, AllP95    []time.Duration // all-transaction latency (Fig 14)
	// BacklogSlope is how fast the slowest node's backlog of decided but
	// undelivered epochs grew after warm-up, in epochs per virtual second.
	// A point whose backlog grows is not in steady state: its percentiles
	// are censored by the horizon and rise with the run length.
	BacklogSlope float64
	// Stages is the lifecycle latency panel (disperse, ba, retrieve,
	// e2e from dl_epoch_stage_seconds); nil without Telemetry.
	Stages map[string]StageLatency
	// Phases is the sampled transaction-journey decomposition
	// (dl_tx_phase_seconds): where a transaction's inclusion-to-commit
	// latency actually goes. Nil without Telemetry. The admit_wait and
	// proof phases are hub-side and absent in the emulated cluster
	// (loads are injected below the gateway).
	Phases map[string]StageLatency

	// Progress is each node's cumulative confirmed paper-equivalent
	// bytes, one point per delivered block (Fig 9; see Confirmed).
	Progress []stats.TimeSeries
}

// StageLatency summarizes one epoch-lifecycle segment's telemetry
// histogram for a run: quantiles in milliseconds (mean across nodes)
// and the total observation count.
type StageLatency struct {
	P50Ms, P95Ms float64
	Count        uint64
}

// steadyBacklogSlope is the backlog growth, in epochs per second, above
// which a latency point is not a steady-state measurement: the slowest
// node falls another epoch behind its decisions every ten seconds.
const steadyBacklogSlope = 0.1

// Steady reports whether every node kept up with its decisions after
// warm-up, so that the percentiles do not depend on the run length.
func (r *GeoResult) Steady() bool { return r.BacklogSlope <= steadyBacklogSlope }

// progressGap is Fig 9's read-out resolution.
const progressGap = 100 * time.Millisecond

// Confirmed is node i's confirmed paper-equivalent bytes at t as Fig 9
// reads them: from its progress series at 100 ms resolution, skipping
// any point less than 100 ms after the previous point read.
func (r *GeoResult) Confirmed(i int, t time.Duration) float64 {
	ts := &r.Progress[i]
	var v float64
	var last time.Duration
	for k, at := range ts.Times {
		if at > t {
			break
		}
		if k == 0 || at-last >= progressGap {
			v, last = ts.Values[k], at
		}
	}
	return v
}

// LatencyScale is the scale of the latency experiments. Latency runs
// are load-limited rather than bandwidth-limited, so they can afford a
// larger scale; a larger scale keeps per-message fixed overheads (headers,
// proofs — which do not shrink with the scale factor) a small fraction of
// the scaled bandwidth, as they are at paper scale.
const LatencyScale = 1.0 / 8

// ScalabilityScale is the scale of the cluster-size sweeps. Per-message
// fixed costs (headers, quorum votes) do not shrink with the scale
// factor, and at N >= 31 they are Θ(N²) per epoch; a deeper down-scaling
// would let them dominate the scaled bandwidth, which no paper-scale
// deployment experiences.
const ScalabilityScale = 1.0 / 8

// retrievalLag is each node's decided-but-undelivered epoch count.
func (c *Cluster) retrievalLag() []float64 {
	out := make([]float64, len(c.Replicas))
	for i, r := range c.Replicas {
		out[i] = float64(r.Engine().DecidedThrough()) - float64(r.Engine().DeliveredEpoch())
	}
	return out
}

// RunGeo runs one configuration of the §6 method and measures every
// per-node quantity the figures report.
func RunGeo(p GeoParams) (*GeoResult, error) {
	c, err := p.cluster()
	if err != nil {
		return nil, err
	}
	c.Start()
	var lagAtWarmup []float64
	c.Sim.At(p.Warmup, func() { lagAtWarmup = c.retrievalLag() })
	c.Run(p.Duration)
	res := &GeoResult{GeoParams: p, Names: trace.Names(p.Cities)}
	var sum float64
	var w, frac, er, lag stats.Welford
	for i, r := range c.Replicas {
		mbps := c.Throughput(i, p.Warmup, p.Duration) / p.Scale / trace.MB
		res.Throughput = append(res.Throughput, mbps)
		sum += mbps
		w.Add(mbps)
		res.RetrieveAmplification = max(res.RetrieveAmplification, c.RetrieveAmplification(i))
		frac.Add(c.DispersalFraction(i))
		eng := r.Engine()
		er.Add(float64(eng.DispersalEpoch()) / p.Duration.Seconds())
		lag.Add(float64(eng.DispersalEpoch()) - float64(eng.DeliveredEpoch()))

		local, all := &r.Stats.LatLocal, &r.Stats.LatAll
		res.P5 = append(res.P5, local.Percentile(5))
		res.P50 = append(res.P50, local.Percentile(50))
		res.P95 = append(res.P95, local.Percentile(95))
		res.P99 = append(res.P99, local.Percentile(99))
		res.AllP50 = append(res.AllP50, all.Percentile(50))
		res.AllP95 = append(res.AllP95, all.Percentile(95))

		var ts stats.TimeSeries
		src := &c.progress[i]
		for k := range src.Times {
			ts.Add(src.Times[k], src.Values[k]/p.Scale)
		}
		res.Progress = append(res.Progress, ts)
	}
	res.Mean, res.Std = sum/float64(len(c.Replicas)), w.StdDev()
	if p.Links != nil {
		res.Mean = w.Mean()
	}
	res.DispersalFraction, res.EpochRate, res.FinalLag = frac.Mean(), er.Mean(), lag.Mean()
	if lagAtWarmup != nil {
		for i, l := range c.retrievalLag() {
			if s := (l - lagAtWarmup[i]) / (p.Duration - p.Warmup).Seconds(); s > res.BacklogSlope {
				res.BacklogSlope = s
			}
		}
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
