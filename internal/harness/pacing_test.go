package harness

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/trace"
	"dledger/internal/workload"
)

// pacingRun runs sixteen nodes on one-millisecond links with a one-second
// batch timer and the default 150 KB batch, for the given virtual time.
// The first `loaded` nodes are offered `rate` bytes/s of 32 KiB
// transactions each (busyRate fills a batch in under half a timer
// period); the rest are idle. The links carry 10 GiB/s, like loopback: at 1 GiB/s a
// loaded block released one message after the idle nodes' empty ones
// took another millisecond to disperse, and five of the loaded nodes'
// forty blocks lost the agreement race, to be linked an epoch later.
// It returns the cluster and the payload sizes of the blocks node 0
// delivered, in delivery order.
func pacingRun(t *testing.T, loaded int, rate float64, horizon time.Duration) (*Cluster, []int) {
	t.Helper()
	const n, txSize = 16, 32 << 10
	links := make([]trace.Trace, n)
	for i := range links {
		links[i] = trace.Constant(10 << 30)
	}
	c, err := NewCluster(ClusterOptions{
		Core:    core.Config{N: n, F: 5, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: time.Second},
		Egress:  links,
		Delay:   func(int, int) time.Duration { return time.Millisecond },
		TxSize:  txSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []int
	c.SetDeliverHook(0, func(d replica.Delivery) { blocks = append(blocks, d.Payload) })
	c.Start()
	for i := 0; i < loaded; i++ {
		gen := workload.NewGenerator(i, txSize, rate, int64(i)+1)
		var arm func()
		arm = func() {
			tx, gap := gen.Next(c.Sim.Now())
			c.Sim.After(gap, func() {
				c.Replicas[i].Submit(tx)
				arm()
			})
		}
		arm()
	}
	c.Run(horizon)
	return c, blocks
}

// busyRate is pacingRun's offered load per loaded node, 400 KB/s.
const busyRate = 400 << 10

// TestIdleNodesAnswerAnOpenedEpoch: two of sixteen nodes fill a batch
// well before the idle nodes' one-second timers fire. Every epoch decides
// only once the idle nodes' empty blocks are dispersed too, so the
// loaded node whose batch fills first opens the epoch and every other
// node answers it at once, with whatever it holds. A loaded node that
// proposed at once and left its block waiting inside agreement for the
// idle nodes' timers (the paper's §5 rule) read a local p50 of 1.51 and
// 1.46 s here; held until the timers opened the epoch, 617 and 535 ms;
// answered at once, 118 and 128 ms. No block misses agreement for it.
func TestIdleNodesAnswerAnOpenedEpoch(t *testing.T) {
	c, _ := pacingRun(t, 2, busyRate, 20*time.Second)
	for i, r := range c.Replicas {
		if r.Stats.LinkedBlocks != 0 {
			t.Errorf("node %d delivered %d linked blocks, want none", i, r.Stats.LinkedBlocks)
		}
	}
	for i := 0; i < 2; i++ {
		lat := &c.Replicas[i].Stats.LatLocal
		p50 := lat.Percentile(50)
		t.Logf("loaded node %d: local p50 %v over %d transactions", i, p50, lat.Count())
		if p50 >= 250*time.Millisecond {
			t.Errorf("loaded node %d: local p50 %v, want below 250 ms, a quarter of the batch delay", i, p50)
		}
	}
}

// TestByteFullClusterNeverHolds: with every node loaded, each epoch opens
// when the first batch fills and the other nodes' partial batches go
// with it, so no batch is ever held: the epochs and the block sizes, in
// delivery order, are pinned. Under the paper's §5 rule alone, where a
// node proposes only when its own batch fills or its timer fires, this
// run delivered 28,606,464 payload bytes in 13 epochs; answering an
// opened epoch at once must not deliver less. Each node starts idle,
// so its first two transaction-carrying proposals go at once: that
// first-second transition from idle to busy takes 56 epochs where the
// same payload took 33 before idle nodes stopped waiting for the timer.
func TestByteFullClusterNeverHolds(t *testing.T) {
	c, blocks := pacingRun(t, 16, busyRate, 5*time.Second)
	sizes := fnv.New64a()
	for _, b := range blocks {
		binary.Write(sizes, binary.BigEndian, int64(b))
	}
	const epochs, count, payload, digest = 56, 896, 31981568, 0x50aaeef9d586e41a
	const floor = 28606464
	r := c.Replicas[0]
	if r.Stats.EpochsDelivered != epochs || len(blocks) != count || r.Stats.DeliveredPayload != payload || sizes.Sum64() != digest {
		t.Errorf("node 0 delivered %d epochs, %d blocks, %d payload bytes, block sizes %x; want %d, %d, %d, %x",
			r.Stats.EpochsDelivered, len(blocks), r.Stats.DeliveredPayload, sizes.Sum64(), epochs, count, payload, uint64(digest))
	}
	if r.Stats.DeliveredPayload < floor {
		t.Errorf("node 0 delivered %d payload bytes, below the %d of the §5 rule", r.Stats.DeliveredPayload, floor)
	}
}

// TestLightLoadSkipsTheBatchTimer: one of sixteen nodes is offered a
// transaction every 1.5 s on average, so it is idle whenever one
// arrives: its batch delay, counted from its last transaction-carrying
// proposal, has mostly run out. Such a transaction goes at once and
// commits one agreement round later; waiting out the one-second timer,
// as it did before idle nodes stopped doing so, put the local p50 near
// half the batch delay.
func TestLightLoadSkipsTheBatchTimer(t *testing.T) {
	c, _ := pacingRun(t, 1, (32<<10)/1.5, 60*time.Second)
	lat := &c.Replicas[0].Stats.LatLocal
	p50 := lat.Percentile(50)
	t.Logf("light-load node 0: local p50 %v over %d transactions", p50, lat.Count())
	if lat.Count() < 20 {
		t.Fatalf("node 0 committed %d local transactions, want at least 20", lat.Count())
	}
	if p50 >= 100*time.Millisecond {
		t.Errorf("light-load node 0: local p50 %v, want below 100 ms, a fifth of half the batch delay", p50)
	}
}
