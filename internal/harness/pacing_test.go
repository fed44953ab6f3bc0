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
// The first `loaded` nodes are offered 400 KB/s of 32 KiB transactions
// each, enough to fill a batch in under half a timer period; the rest
// are idle. The links carry 10 GiB/s, like loopback: at 1 GiB/s a
// loaded block released one message after the idle nodes' empty ones
// took another millisecond to disperse, and five of the loaded nodes'
// forty blocks lost the agreement race, to be linked an epoch later.
// It returns the cluster and the payload sizes of the blocks node 0
// delivered, in delivery order.
func pacingRun(t *testing.T, loaded int, horizon time.Duration) (*Cluster, []int) {
	t.Helper()
	const n, txSize, rate = 16, 32 << 10, 400 << 10
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

// TestFullBatchWaitsForTheEpochToOpen: two of sixteen nodes fill a batch
// well before the idle nodes' one-second timers fire, so every epoch
// decides only once the idle nodes' empty blocks are dispersed. A loaded
// node that proposes the moment it is asked (the paper's §5 rule) leaves
// its block waiting for them inside agreement, and the loaded nodes'
// local p50 read 1.51 and 1.46 s here. Held until the epoch opens, the
// same second of transactions goes one message after the idle nodes'
// blocks, and no block misses agreement for it.
func TestFullBatchWaitsForTheEpochToOpen(t *testing.T) {
	c, _ := pacingRun(t, 2, 20*time.Second)
	for i, r := range c.Replicas {
		if r.Stats.LinkedBlocks != 0 {
			t.Errorf("node %d delivered %d linked blocks, want none", i, r.Stats.LinkedBlocks)
		}
	}
	for i := 0; i < 2; i++ {
		lat := &c.Replicas[i].Stats.LatLocal
		p50 := lat.Percentile(50)
		t.Logf("loaded node %d: local p50 %v over %d transactions", i, p50, lat.Count())
		if p50 >= time.Second {
			t.Errorf("loaded node %d: local p50 %v, want below the 1 s batch delay", i, p50)
		}
	}
}

// TestByteFullClusterNeverHolds: with every node loaded, every block
// agreement commits carries transactions and each epoch is paced by the
// batches filling, so no batch is ever held: the epochs and the block
// sizes, in delivery order, are those of proposing at once (recorded
// before holding existed).
func TestByteFullClusterNeverHolds(t *testing.T) {
	c, blocks := pacingRun(t, 16, 5*time.Second)
	sizes := fnv.New64a()
	for _, b := range blocks {
		binary.Write(sizes, binary.BigEndian, int64(b))
	}
	const epochs, count, payload, digest = 13, 203, 28606464, 0x2683b2e04d4b3963
	r := c.Replicas[0]
	if r.Stats.EpochsDelivered != epochs || len(blocks) != count || r.Stats.DeliveredPayload != payload || sizes.Sum64() != digest {
		t.Errorf("node 0 delivered %d epochs, %d blocks, %d payload bytes, block sizes %x; want %d, %d, %d, %x",
			r.Stats.EpochsDelivered, len(blocks), r.Stats.DeliveredPayload, sizes.Sum64(), epochs, count, payload, uint64(digest))
	}
}
