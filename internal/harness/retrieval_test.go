package harness

import (
	"sort"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/trace"
)

// midLoad is fig10's 6 MB/s point on the 16-city profile, the load at
// which downloading every block N/K times over used to fill the links.
func midLoad() GeoParams {
	return GeoParams{Mode: core.ModeDL, Scale: LatencyScale, LoadPerNode: 6e6 / 16, Duration: 50 * time.Second, Seed: 1}
}

func medianP50(c *Cluster, nodes []int) time.Duration {
	var p50 []time.Duration
	for _, i := range nodes {
		p50 = append(p50, c.Replicas[i].Stats.LatLocal.Percentile(50))
	}
	sort.Slice(p50, func(a, b int) bool { return p50[a] < p50[b] })
	return p50[len(p50)/2]
}

// TestEachBlockDownloadedOnce: a node that keeps up with its decisions
// receives little more in the retrieval class than the payload it
// delivers — the chunks of each block once, not N/K times.
func TestEachBlockDownloadedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("50 virtual seconds of a 16-node WAN")
	}
	p := midLoad()
	c, err := p.cluster()
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(p.Duration)
	keptUp := 0
	for i, lag := range c.retrievalLag() {
		ratio := c.RetrieveAmplification(i)
		t.Logf("%-10s lag %3.0f epochs, retrieval ingress / delivered payload %.2f, p50 %v",
			p.Cities[i].Name, lag, ratio, c.Replicas[i].Stats.LatLocal.Percentile(50))
		if lag > 5 {
			continue // what it received and has not delivered yet would count against it
		}
		keptUp++
		if ratio > 1.15 {
			t.Errorf("%s received %.2f retrieval bytes per delivered payload byte, want at most 1.15", p.Cities[i].Name, ratio)
		}
	}
	if keptUp < 12 {
		t.Errorf("only %d of 16 nodes kept within 5 epochs of their decisions", keptUp)
	}
}

// TestSaturatedNodesDownloadEachBlockOnce: under infinite backlog most of
// the sixteen sites have their own ingress as the bottleneck. Before the
// scheduler paced its requests by that link, seven of them had hundreds of
// requests outstanding, hedged against every server each tick and read 2.0
// to 2.8 here; the throughput floor per site is nine tenths of what each
// delivered then (seed 1, 50 virtual seconds).
func TestSaturatedNodesDownloadEachBlockOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("50 virtual seconds of a 16-node WAN")
	}
	before := []float64{8.79, 9.03, 8.07, 8.79, 7.60, 8.79, 7.12, 2.14, 4.28, 1.90, 1.43, 2.38, 0.71, 1.19, 1.19, 0.95}
	p := GeoParams{Mode: core.ModeDL, Duration: 50 * time.Second, Seed: 1}
	c, err := p.cluster()
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(p.Duration)
	for i, city := range p.Cities {
		mbps := c.Throughput(i, p.Warmup, p.Duration) / p.Scale / trace.MB
		amp := c.RetrieveAmplification(i)
		t.Logf("%-10s %5.2f MB/s (was %5.2f), retrieval ingress / delivered payload %.2f, limit held on %d ticks",
			city.Name, mbps, before[i], amp, c.Replicas[i].Engine().RetrievalHeldTicks())
		if amp > 1.3 {
			t.Errorf("%s received %.2f retrieval bytes per delivered payload byte, want at most 1.3", city.Name, amp)
		}
		if mbps < 0.9*before[i] {
			t.Errorf("%s delivers %.2f MB/s, under nine tenths of the %.2f it did with unpaced requests", city.Name, mbps, before[i])
		}
	}
}

// TestSaturatedNodesOutliveCrashedServers: two of the sixteen sites crash
// ten seconds into the infinite-backlog run. The sites whose own ingress is
// the bottleneck have their limit binding and chunks arriving on every
// tick from then on, so the tick that hedges everything after two empty
// ones never comes; a block that asked a crashed server must be hedged all
// the same, or delivery stands still behind it (Sydney stayed at epoch 3
// for the rest of the run when a full link hedged nothing), and without the
// duplicates that hedging by the tick brought (1.7 to 2.4 here at six sites).
func TestSaturatedNodesOutliveCrashedServers(t *testing.T) {
	if testing.Short() {
		t.Skip("50 virtual seconds of a 16-node WAN")
	}
	p := GeoParams{Mode: core.ModeDL, Duration: 50 * time.Second, Seed: 1}
	c, err := p.cluster()
	if err != nil {
		t.Fatal(err)
	}
	const survivors = 14
	delivered := func() (epochs []uint64) {
		for _, r := range c.Replicas[:survivors] {
			epochs = append(epochs, r.Engine().DeliveredEpoch())
		}
		return epochs
	}
	c.Start()
	c.Sim.At(10*time.Second, func() {
		c.Crash(14)
		c.Crash(15)
	})
	var at20, at35 []uint64
	c.Sim.At(20*time.Second, func() { at20 = delivered() })
	c.Sim.At(35*time.Second, func() { at35 = delivered() })
	c.Run(p.Duration)
	for i, end := range delivered() {
		amp := c.RetrieveAmplification(i)
		t.Logf("%-10s delivered through epoch %d at 20 s, %d at 35 s, %d at 50 s; retrieval ingress / delivered payload %.2f",
			p.Cities[i].Name, at20[i], at35[i], end, amp)
		if at35[i] <= at20[i] || end <= at35[i] {
			t.Errorf("%s stopped delivering: through epoch %d at 20 s, %d at 35 s, %d at 50 s", p.Cities[i].Name, at20[i], at35[i], end)
		}
		if amp > 1.3 {
			t.Errorf("%s received %.2f retrieval bytes per delivered payload byte, want at most 1.3", p.Cities[i].Name, amp)
		}
	}
}

// TestLimitNeverBindsAtLightLoad: at 2 MB/s system-wide no node's link is
// anywhere near full, and the limit on unanswered requests must not delay
// a burst on an idle link, the first epoch's included.
func TestLimitNeverBindsAtLightLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("50 virtual seconds of a 16-node WAN")
	}
	p := GeoParams{Mode: core.ModeDL, Scale: LatencyScale, LoadPerNode: 2e6 / 16, Duration: 50 * time.Second, Seed: 1}
	c, err := p.cluster()
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(p.Duration)
	for i, r := range c.Replicas {
		if ticks := r.Engine().RetrievalHeldTicks(); ticks != 0 {
			t.Errorf("%s: the limit held a block back on %d ticks, want none", p.Cities[i].Name, ticks)
		}
		if r.Stats.EpochsDelivered == 0 {
			t.Errorf("%s delivered nothing", p.Cities[i].Name)
		}
	}
}

// TestRetrievalSurvivesCrashedServers: with f nodes gone mid-run, the
// survivors stop asking them after a few hedges and latency stays near
// the fault-free figure.
func TestRetrievalSurvivesCrashedServers(t *testing.T) {
	if testing.Short() {
		t.Skip("50 virtual seconds of a 16-node WAN")
	}
	p := midLoad()
	c, err := p.cluster()
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Sim.At(10*time.Second, func() {
		for i := 0; i < 5; i++ {
			c.Crash(i)
		}
	})
	c.Run(p.Duration)
	survivors := []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for _, i := range survivors {
		t.Logf("%-10s p50 %v", p.Cities[i].Name, c.Replicas[i].Stats.LatLocal.Percentile(50))
	}
	if got := medianP50(c, survivors); got > 4*time.Second {
		t.Errorf("survivors' median p50 is %v with 5 of 16 nodes crashed, want under 4s", got)
	}
}
