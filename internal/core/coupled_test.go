package core

import (
	"testing"

	"dledger/internal/wire"
)

// TestDLCoupledProposesEmptyWhenLagging exercises §4.5's spam filter:
// when retrieval lags more than lagLimit (1) epochs behind dispersal, a
// DL-Coupled node's next proposal must be empty (ProposalDue), and the
// node recovers (proposes transactions again) once retrieval catches up.
func TestDLCoupledProposesEmptyWhenLagging(t *testing.T) {
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDLCoupled}, 1, 6)
	// Delay every ReturnChunk so no retrieval (except of one's own
	// blocks, which are local) can finish; dispersal and agreement are
	// unaffected, so epochs keep deciding and the lag grows.
	c.deferFn = func(env wire.Envelope, to int) bool {
		_, isReturn := env.Payload.(wire.ReturnChunk)
		return isReturn
	}
	c.releaseWhen = func(c *testCluster) bool {
		// Release once every node has been asked for an empty proposal.
		for i := range c.engines {
			if c.emptyReq[i] == 0 {
				return false
			}
		}
		return true
	}
	c.start()
	c.run()
	c.checkTotalOrder()
	for i := range c.engines {
		if c.emptyReq[i] == 0 {
			t.Fatalf("node %d never hit the §4.5 empty-proposal rule", i)
		}
		if got := c.engines[i].DeliveredEpoch(); got < 5 {
			t.Fatalf("node %d did not recover after release (delivered %d)", i, got)
		}
	}
}

// TestDLUnaffectedBySameLag shows the contrast: pure DL under the same
// retrieval delay keeps proposing full blocks (no proposal required empty).
func TestDLUnaffectedBySameLag(t *testing.T) {
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, 1, 4)
	released := false
	c.deferFn = func(env wire.Envelope, to int) bool {
		_, isReturn := env.Payload.(wire.ReturnChunk)
		return isReturn && !released
	}
	c.releaseWhen = func(c *testCluster) bool {
		if c.engines[0].DispersalEpoch() >= 3 {
			released = true
			return true
		}
		return false
	}
	c.start()
	c.run()
	c.checkTotalOrder()
	for i := range c.engines {
		if c.emptyReq[i] != 0 {
			t.Fatalf("pure DL node %d was asked for an empty proposal", i)
		}
	}
}

// TestMaxEpochLagThrottlesPipeline verifies the second §4.5 mitigation:
// with MaxEpochLag set, dispersal cannot run more than P epochs ahead of
// delivery.
func TestMaxEpochLagThrottlesPipeline(t *testing.T) {
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL, MaxEpochLag: 2}, 3, 8)
	maxObservedLag := uint64(0)
	c.deferFn = func(env wire.Envelope, to int) bool {
		// Observe the lag as a side effect of every delivery decision.
		for i := range c.engines {
			d := c.engines[i].DispersalEpoch()
			del := c.engines[i].DeliveredEpoch()
			if d > del && d-del > maxObservedLag {
				maxObservedLag = d - del
			}
		}
		_, isReturn := env.Payload.(wire.ReturnChunk)
		return isReturn
	}
	c.releaseWhen = func(c *testCluster) bool {
		// Release once the pipeline has stalled at the lag bound: every
		// node proposed some epochs but none can move past the guard.
		return c.engines[0].DispersalEpoch() >= 3
	}
	c.start()
	c.run()
	c.checkTotalOrder()
	// A node may propose epoch e while delivery is at e-1-P; transient
	// +1 slack is allowed by the definition (the guard gates the NEXT
	// proposal). Anything beyond that means the guard leaked.
	if maxObservedLag > 3+1 {
		t.Fatalf("dispersal ran %d epochs ahead despite MaxEpochLag=2", maxObservedLag)
	}
	for i := range c.engines {
		if got := c.engines[i].DeliveredEpoch(); got < 7 {
			t.Fatalf("node %d did not finish after release (delivered %d)", i, got)
		}
	}
}
