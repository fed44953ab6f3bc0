package harness

import (
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/trace"
)

func clientClusterOpts(n int, seed int64) ClusterOptions {
	traces := make([]trace.Trace, n)
	for i := range traces {
		traces[i] = trace.Constant(4 * trace.MB)
	}
	return ClusterOptions{
		Core: core.Config{N: n, F: (n - 1) / 3, Mode: core.ModeDL,
			CoinSecret: []byte("client traffic test")},
		Replica:    replica.Params{BatchDelay: 100 * time.Millisecond},
		Egress:     traces,
		TxSize:     250,
		Clients:    2,
		ClientRate: 30 << 10,
		ClientStop: 8 * time.Second,
		Durable:    true,
		Seed:       seed,
	}
}

// TestClientTrafficCleanRun drives an emulated cluster purely from
// gateway clients: every accepted transaction must commit with a
// verifying proof before the horizon, and all whole-cluster invariants
// must hold over the client-generated traffic.
func TestClientTrafficCleanRun(t *testing.T) {
	c, err := NewCluster(clientClusterOpts(4, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	lr := NewLogRecorder(c)
	c.Start()
	c.Run(15 * time.Second)

	honest := []int{0, 1, 2, 3}
	honestMask := []bool{true, true, true, true}
	var violations []string
	violations = append(violations, CheckPrefixAgreement(lr.Logs(), honest)...)
	for _, i := range honest {
		violations = append(violations, CheckNoDuplicates(i, lr.Log(i))...)
		violations = append(violations, lr.CheckTxValidity(i, 4, honestMask)...)
		violations = append(violations, lr.CheckNoDuplicateTxs(i, honestMask)...)
	}
	for _, v := range violations {
		t.Error(v)
	}

	total := 0
	for _, rep := range c.ClientReports() {
		if rep.VerifyFailures > 0 {
			t.Errorf("client %d@%d: %d proof verification failures", rep.Client, rep.Node, rep.VerifyFailures)
		}
		if rep.Outstanding > 0 {
			t.Errorf("client %d@%d: %d accepted txs never committed", rep.Client, rep.Node, rep.Outstanding)
		}
		if rep.Commits == 0 || len(rep.Latencies) == 0 {
			t.Errorf("client %d@%d observed no commits", rep.Client, rep.Node)
		}
		total += rep.Commits
	}
	if total == 0 {
		t.Fatal("no client traffic flowed")
	}
}

// TestClientTrafficCrashRestart crash-restarts a node mid-run while its
// gateway clients keep submitting: resubmission after the restart plus
// WAL-recovered dedup must yield exactly-once commitment for every
// accepted transaction, and the recovered receipts must verify.
func TestClientTrafficCrashRestart(t *testing.T) {
	opts := clientClusterOpts(4, 23)
	opts.ClientStop = 14 * time.Second
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	lr := NewLogRecorder(c)
	c.Start()
	var restartErr error
	c.Sim.After(4*time.Second, func() { c.Crash(0) })
	c.Sim.After(8*time.Second, func() {
		if err := c.Restart(0, lr.Hook(0)); err != nil {
			restartErr = err
		}
	})
	c.Run(25 * time.Second)
	if restartErr != nil {
		t.Fatal(restartErr)
	}

	honestMask := []bool{true, true, true, true}
	var violations []string
	violations = append(violations, CheckPrefixAgreement(lr.Logs(), []int{0, 1, 2, 3})...)
	for i := 0; i < 4; i++ {
		violations = append(violations, CheckNoDuplicates(i, lr.Log(i))...)
		// The exactly-once check is the point: post-restart resubmission
		// must never double-commit a client transaction.
		violations = append(violations, lr.CheckNoDuplicateTxs(i, honestMask)...)
	}
	for _, v := range violations {
		t.Error(v)
	}

	resubmits := 0
	for _, rep := range c.ClientReports() {
		resubmits += rep.Resubmitted
		if rep.VerifyFailures > 0 {
			t.Errorf("client %d@%d: %d verification failures", rep.Client, rep.Node, rep.VerifyFailures)
		}
		if rep.Outstanding > 0 {
			t.Errorf("client %d@%d: %d accepted txs never committed", rep.Client, rep.Node, rep.Outstanding)
		}
	}
	if resubmits == 0 {
		t.Error("no client ever resubmitted — the restart path was not exercised")
	}
}

// TestClientTrafficOverload pins a tiny mempool budget under sustained
// client load: over-capacity rejections (with backoff-and-retry on the
// client side) keep the backlog bounded, and every accepted transaction
// still commits.
func TestClientTrafficOverload(t *testing.T) {
	opts := clientClusterOpts(4, 37)
	opts.Replica.MempoolBytes = 2 << 10
	opts.ClientRate = 120 << 10 // well past what 2 KB of queue absorbs
	opts.ClientStop = 6 * time.Second
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Start()
	checks := 0
	var overBudget bool
	c.Sim.After(time.Second, func() {
		var probe func()
		probe = func() {
			for _, r := range c.Replicas {
				if r.PendingBytes() > 2<<10 {
					overBudget = true
				}
			}
			checks++
			if checks < 40 {
				c.Sim.After(200*time.Millisecond, probe)
			}
		}
		probe()
	})
	c.Run(20 * time.Second)

	if overBudget {
		t.Error("mempool grew past its byte budget under overload")
	}
	busy, accepted, outstanding := 0, 0, 0
	for _, rep := range c.ClientReports() {
		busy += rep.RejectedBusy
		accepted += rep.Accepted
		outstanding += rep.Outstanding
	}
	if busy == 0 {
		t.Error("overload never produced an over-capacity rejection")
	}
	if accepted == 0 {
		t.Error("admission rejected everything")
	}
	if outstanding > 0 {
		t.Errorf("%d accepted txs never committed", outstanding)
	}
	for i := range c.Replicas {
		if c.Replicas[i].Stats.RejectedSubmissions == 0 {
			t.Errorf("node %d counted no rejected submissions", i)
		}
	}
}
