package harness

import (
	"sort"
	"testing"
	"time"

	"dledger/internal/core"
)

// midLoad is fig10's 6 MB/s point on the 16-city profile, the load at
// which downloading every block N/K times over used to fill the links.
func midLoad() LatencyParams {
	return LatencyParams{Mode: core.ModeDL, LoadPerNode: 6e6 / 16, Duration: 50 * time.Second, Seed: 1}
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
	c, err := latencyCluster(&p)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(p.Duration)
	keptUp := 0
	for i, lag := range c.retrievalLag() {
		_, retrieval := c.Net.BytesReceived(i)
		ratio := float64(retrieval) / float64(c.Replicas[i].Stats.DeliveredPayload)
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

// TestRetrievalSurvivesCrashedServers: with f nodes gone mid-run, the
// survivors stop asking them after a few hedges and latency stays near
// the fault-free figure.
func TestRetrievalSurvivesCrashedServers(t *testing.T) {
	if testing.Short() {
		t.Skip("50 virtual seconds of a 16-node WAN")
	}
	p := midLoad()
	c, err := latencyCluster(&p)
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
