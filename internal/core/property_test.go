package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// chaosCluster extends the engine test harness with message duplication:
// the asynchronous model allows the network to deliver a message any
// number of times, and every automaton must deduplicate.
func runChaos(t *testing.T, cfg Config, seed int64, epochs int, dupProb float64) *testCluster {
	t.Helper()
	c := newTestCluster(t, cfg, seed, epochs)
	c.start()
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	steps := 0
	for len(c.queue) > 0 || len(c.propose) > 0 || len(c.timers) > 0 {
		steps++
		if steps > 5_000_000 {
			t.Fatal("chaos cluster did not quiesce")
		}
		if len(c.queue) == 0 && len(c.propose) == 0 {
			tm := c.timers[0]
			c.timers = c.timers[1:]
			if !c.crashed[tm.node] {
				c.apply(tm.node, c.engines[tm.node].HandleTimer(tm.token))
			}
			continue
		}
		if len(c.propose) > 0 && (len(c.queue) == 0 || rng.Intn(4) == 0) {
			c.proposeNext()
			continue
		}
		i := rng.Intn(len(c.queue))
		m := c.queue[i]
		if rng.Float64() < dupProb {
			// Duplicate: deliver now AND leave a copy in the queue.
			c.queue = append(c.queue, m)
		}
		c.queue[i] = c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		if c.crashed[m.to] || c.crashed[m.env.From] {
			continue
		}
		c.apply(m.to, c.engines[m.to].Handle(m.env))
	}
	return c
}

func TestChaosDuplicationTotalOrder(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := runChaos(t, Config{N: 4, F: 1, Mode: ModeDL}, seed, 3, 0.25)
		c.checkTotalOrder()
		// Exactly-once despite duplicated network messages.
		for node := 0; node < 4; node++ {
			seen := map[string]int{}
			for _, d := range c.delivered[node] {
				for _, tx := range d.Txs {
					seen[string(tx)]++
					if seen[string(tx)] > 1 {
						t.Fatalf("seed %d: tx %q delivered twice at node %d", seed, tx, node)
					}
				}
			}
		}
	}
}

func TestChaosAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeDL, ModeDLCoupled, ModeHB, ModeHBLink} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				c := runChaos(t, Config{N: 4, F: 1, Mode: mode}, seed, 3, 0.15)
				c.checkTotalOrder()
			}
		})
	}
}

func TestChaosWithCrashAndDuplication(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c := newTestCluster(t, Config{N: 7, F: 2, Mode: ModeDL}, seed, 2)
		c.crashed[5] = true
		c.crashed[6] = true
		c.start()
		rng := rand.New(rand.NewSource(seed))
		steps := 0
		for len(c.queue) > 0 || len(c.propose) > 0 || len(c.timers) > 0 {
			steps++
			if steps > 5_000_000 {
				t.Fatal("did not quiesce")
			}
			if len(c.queue) == 0 && len(c.propose) == 0 {
				tm := c.timers[0]
				c.timers = c.timers[1:]
				if !c.crashed[tm.node] {
					c.apply(tm.node, c.engines[tm.node].HandleTimer(tm.token))
				}
				continue
			}
			if len(c.propose) > 0 && (len(c.queue) == 0 || rng.Intn(4) == 0) {
				c.proposeNext()
				continue
			}
			i := rng.Intn(len(c.queue))
			m := c.queue[i]
			if rng.Float64() < 0.2 {
				c.queue = append(c.queue, m)
			}
			c.queue[i] = c.queue[len(c.queue)-1]
			c.queue = c.queue[:len(c.queue)-1]
			if c.crashed[m.to] || c.crashed[m.env.From] {
				continue
			}
			c.apply(m.to, c.engines[m.to].Handle(m.env))
		}
		c.checkTotalOrder()
		// Epochs must still decide with f crashed nodes.
		for i := 0; i < 5; i++ {
			if c.engines[i].DeliveredEpoch() < 2 {
				t.Fatalf("seed %d: node %d delivered only %d epochs with f crashes",
					seed, i, c.engines[i].DeliveredEpoch())
			}
		}
	}
}

// TestQuickRandomSchedules drives random (seed, mode, duplication) tuples
// through the chaos harness under testing/quick.
func TestQuickRandomSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("property fuzz skipped in -short")
	}
	f := func(seed int64, modeRaw uint8, dupRaw uint8) bool {
		mode := Mode(modeRaw % 4)
		dup := float64(dupRaw%30) / 100
		c := runChaos(t, Config{N: 4, F: 1, Mode: mode}, seed, 2, dup)
		c.checkTotalOrder() // fails the test directly on violation
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDeliveryPrefixesUnderPartialRun checks the prefix property: if the
// run is cut short (messages dropped wholesale at a random point), the
// delivered logs of all correct nodes are prefixes of each other — no
// node ever delivers something that contradicts another.
func TestDeliveryPrefixesUnderPartialRun(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, seed, 4)
		c.start()
		rng := rand.New(rand.NewSource(seed))
		budget := 2000 + rng.Intn(8000) // cut off after a random number of steps
		steps := 0
		for (len(c.queue) > 0 || len(c.propose) > 0) && steps < budget {
			steps++
			if len(c.propose) > 0 && (len(c.queue) == 0 || rng.Intn(4) == 0) {
				c.proposeNext()
				continue
			}
			i := rng.Intn(len(c.queue))
			m := c.queue[i]
			c.queue[i] = c.queue[len(c.queue)-1]
			c.queue = c.queue[:len(c.queue)-1]
			c.apply(m.to, c.engines[m.to].Handle(m.env))
		}
		// Logs must be pairwise prefixes.
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				la, lb := c.delivered[a], c.delivered[b]
				n := len(la)
				if len(lb) < n {
					n = len(lb)
				}
				for k := 0; k < n; k++ {
					if la[k].Epoch != lb[k].Epoch || la[k].Proposer != lb[k].Proposer {
						t.Fatalf("seed %d: logs of %d and %d diverge at %d: (%d,%d) vs (%d,%d)",
							seed, a, b, k, la[k].Epoch, la[k].Proposer, lb[k].Epoch, lb[k].Proposer)
					}
				}
			}
		}
	}
}

// TestManyProposersManyEpochs is a heavier soak: 7 nodes, 6 epochs,
// verifying every correct block lands exactly once everywhere.
func TestManyProposersManyEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	c := newTestCluster(t, Config{N: 7, F: 2, Mode: ModeDL}, 99, 6)
	c.start()
	c.run()
	c.checkTotalOrder()
	for node := 0; node < 7; node++ {
		seen := map[string]int{}
		for _, d := range c.delivered[node] {
			for _, tx := range d.Txs {
				seen[string(tx)]++
			}
		}
		for j := 0; j < 7; j++ {
			for s := 1; s <= 5; s++ { // last epoch exempt (see linking note)
				tx := fmt.Sprintf("tx-%d-%d", j, s)
				if seen[tx] != 1 {
					t.Fatalf("node %d saw %q %d times", node, tx, seen[tx])
				}
			}
		}
	}
}
