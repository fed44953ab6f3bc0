package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/store"
	"dledger/internal/workload"
)

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

// memCluster is every node of one MemoryNet — the in-process twin of
// the slice newTCPCluster returns.
type memCluster []*MemoryNode

// newMemCluster builds all Core.N nodes from one option template; stores
// and onDeliver (either may be nil) are handed out per node.
func newMemCluster(t *testing.T, tmpl MemoryOptions, delay time.Duration, stores []store.Store, onDeliver func(node int, d replica.Delivery)) memCluster {
	t.Helper()
	tmpl.Net = NewMemoryNet(tmpl.Core.N, delay)
	var c memCluster
	for i := 0; i < tmpl.Core.N; i++ {
		i, opts := i, tmpl
		opts.Self = i
		if stores != nil {
			opts.Store = stores[i]
		}
		if onDeliver != nil {
			opts.OnDeliver = func(d replica.Delivery) { onDeliver(i, d) }
		}
		n, err := NewMemoryNode(opts)
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		c = append(c, n)
	}
	return c
}

func (c memCluster) Close() {
	for _, n := range c {
		n.Close()
	}
}

func TestMemoryClusterDelivers(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{} // node -> delivered tx count
	c := newMemCluster(t, MemoryOptions{
		Core: core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{
			BatchDelay: 20 * time.Millisecond,
		},
	}, 0, nil, func(node int, d replica.Delivery) {
		mu.Lock()
		seen[node] += len(d.Txs)
		mu.Unlock()
	})
	defer c.Close()
	for i := 0; i < 4; i++ {
		c[i].Submit(workload.Make(i, 1, 0, 64))
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < 4; i++ {
			if seen[i] < 4 {
				return false
			}
		}
		return true
	}, "all nodes deliver all 4 txs")
}

func TestMemoryClusterIdenticalLogs(t *testing.T) {
	var mu sync.Mutex
	logs := make([][]string, 4)
	c := newMemCluster(t, MemoryOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 10 * time.Millisecond},
	}, 2*time.Millisecond, nil, func(node int, d replica.Delivery) {
		mu.Lock()
		for _, tx := range d.Txs {
			logs[node] = append(logs[node], fmt.Sprintf("%d-%d:%x", d.Epoch, d.Proposer, tx[:8]))
		}
		mu.Unlock()
	})
	defer c.Close()
	const perNode = 25
	for i := 0; i < 4; i++ {
		for k := 0; k < perNode; k++ {
			c[i].Submit(workload.Make(i, uint32(k), 0, 128))
		}
	}
	waitFor(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < 4; i++ {
			if len(logs[i]) < 4*perNode {
				return false
			}
		}
		return true
	}, "all nodes deliver 100 txs")

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < 4; i++ {
		if len(logs[i]) != len(logs[0]) {
			t.Fatalf("log lengths differ: %d vs %d", len(logs[i]), len(logs[0]))
		}
		for k := range logs[0] {
			if logs[i][k] != logs[0][k] {
				t.Fatalf("logs diverge at %d: %s vs %s", k, logs[i][k], logs[0][k])
			}
		}
	}
}

// TestMemoryNodeValidation is TestTCPNodeValidation's twin: a node must
// name a free slot of a net of its cluster's size.
func TestMemoryNodeValidation(t *testing.T) {
	opts := MemoryOptions{Core: core.Config{N: 4, F: 1, Mode: core.ModeDL}, Net: NewMemoryNet(4, 0)}
	opts.Self = 7
	if _, err := NewMemoryNode(opts); err == nil {
		t.Fatal("out-of-range Self accepted")
	}
	opts.Self = 0
	opts.Core.N = 7
	if _, err := NewMemoryNode(opts); err == nil {
		t.Fatal("net size != Core.N accepted")
	}
	opts.Core.N = 4
	n, err := NewMemoryNode(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := NewMemoryNode(opts); err == nil {
		t.Fatal("taken slot accepted")
	}
}

func TestMemoryClusterInspect(t *testing.T) {
	c := newMemCluster(t, MemoryOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 10 * time.Millisecond},
	}, 0, nil, nil)
	defer c.Close()
	c[0].Submit(workload.Make(0, 1, 0, 64))
	waitFor(t, 10*time.Second, func() bool {
		var done bool
		c[0].Inspect(func(r *replica.Replica) { done = r.Stats.DeliveredTxs >= 1 })
		return done
	}, "node 0 delivers its tx")
}

func newTCPCluster(t *testing.T, n, f int, mode core.Mode) []*TCPNode {
	t.Helper()
	// Pre-bind every listener so all real ports are known before any node
	// starts dialing.
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*TCPNode, n)
	for i := 0; i < n; i++ {
		node, err := NewTCPNode(TCPOptions{
			Core:     core.Config{N: n, F: f, Mode: mode, CoinSecret: []byte("tcp test secret")},
			Replica:  replica.Params{BatchDelay: 20 * time.Millisecond},
			Self:     i,
			Addrs:    addrs,
			Listener: listeners[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes
}

func TestTCPClusterDelivers(t *testing.T) {
	nodes := newTCPCluster(t, 4, 1, core.ModeDL)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i, n := range nodes {
		for k := 0; k < 5; k++ {
			n.Submit(workload.Make(i, uint32(k), 0, 200))
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		ok := true
		for _, n := range nodes {
			n.Inspect(func(r *replica.Replica) {
				if r.Stats.DeliveredTxs < 20 {
					ok = false
				}
			})
		}
		return ok
	}, "all TCP nodes deliver all 20 txs")
}

func TestTCPClusterHB(t *testing.T) {
	nodes := newTCPCluster(t, 4, 1, core.ModeHB)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i, n := range nodes {
		n.Submit(workload.Make(i, 9, 0, 100))
	}
	waitFor(t, 30*time.Second, func() bool {
		ok := true
		for _, n := range nodes {
			n.Inspect(func(r *replica.Replica) {
				if r.Stats.DeliveredTxs < 4 {
					ok = false
				}
			})
		}
		return ok
	}, "HB over TCP delivers")
}

func TestTCPNodeValidation(t *testing.T) {
	if _, err := NewTCPNode(TCPOptions{
		Core:  core.Config{N: 4, F: 1, CoinSecret: []byte("s")},
		Self:  9,
		Addrs: []string{"a", "b", "c", "d"},
	}); err == nil {
		t.Fatal("bad Self accepted")
	}
	if _, err := NewTCPNode(TCPOptions{
		Core:  core.Config{N: 4, F: 1},
		Self:  0,
		Addrs: []string{"127.0.0.1:0", "x", "y", "z"},
	}); err == nil {
		t.Fatal("missing coin secret accepted")
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	nodes := newTCPCluster(t, 4, 1, core.ModeDL)
	for _, n := range nodes {
		n.Close()
		n.Close() // second close must not panic or deadlock
	}
}

// TestMemoryClusterRestartFromStores shuts a whole in-process cluster
// down and rebuilds it over the same stores (with a small checkpoint
// interval so recovery crosses a checkpoint, not just raw WAL replay):
// the new cluster must resume from the recovered log position, not
// re-deliver, and keep delivering.
func TestMemoryClusterRestartFromStores(t *testing.T) {
	stores := make([]store.Store, 4)
	mems := make([]*store.MemStore, 4)
	for i := range stores {
		mems[i] = store.NewMem()
		stores[i] = mems[i]
	}
	opts := MemoryOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 10 * time.Millisecond, CheckpointEvery: 2},
	}
	c := newMemCluster(t, opts, 0, stores, nil)
	for i := 0; i < 4; i++ {
		for k := 0; k < 10; k++ {
			c[i].Submit(workload.Make(i, uint32(k), 0, 100))
		}
	}
	var before int64
	waitFor(t, 20*time.Second, func() bool {
		c[0].Inspect(func(r *replica.Replica) { before = r.Stats.EpochsDelivered })
		return before >= 4
	}, "first incarnation delivers epochs")
	var txsBefore int64
	c[0].Inspect(func(r *replica.Replica) { txsBefore = r.Stats.DeliveredTxs })
	c.Close()

	for i := range stores {
		mems[i] = mems[i].Reopen()
		stores[i] = mems[i]
	}
	c2 := newMemCluster(t, opts, 0, stores, nil)
	defer c2.Close()
	var recovered, recoveredTxs int64
	c2[0].Inspect(func(r *replica.Replica) {
		recovered = r.Stats.EpochsDelivered
		recoveredTxs = r.Stats.DeliveredTxs
	})
	if recovered < before || recoveredTxs != txsBefore {
		t.Fatalf("recovered epochs=%d txs=%d, want >=%d / ==%d", recovered, recoveredTxs, before, txsBefore)
	}
	for i := 0; i < 4; i++ {
		for k := 0; k < 10; k++ {
			c2[i].Submit(workload.Make(i, uint32(100+k), 0, 100))
		}
	}
	waitFor(t, 20*time.Second, func() bool {
		var now int64
		c2[0].Inspect(func(r *replica.Replica) { now = r.Stats.EpochsDelivered })
		return now > recovered
	}, "restarted cluster keeps delivering")
}

// TestEpochCounterConsistentAcrossRestarts runs a cluster through three
// incarnations over the same stores (checkpointing every 2 epochs, so
// recovery crosses checkpoint + WAL replay) and checks the recovered
// EpochsDelivered counter always equals the engine's delivered position
// — the counter must be replayed, not re-counted or double-counted.
func TestEpochCounterConsistentAcrossRestarts(t *testing.T) {
	mems := make([]*store.MemStore, 4)
	stores := make([]store.Store, 4)
	for i := range mems {
		mems[i] = store.NewMem()
		stores[i] = mems[i]
	}
	opts := MemoryOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 5 * time.Millisecond, CheckpointEvery: 2},
	}
	for round := 0; round < 3; round++ {
		c := newMemCluster(t, opts, 0, stores, nil)
		for i := 0; i < 4; i++ {
			for k := 0; k < 20; k++ {
				c[i].Submit(workload.Make(i, uint32(round*100+k), 0, 100))
			}
		}
		// 60 s: generous for a correctness (not timing) assertion — under
		// -race with other CPU-heavy packages in parallel, the real-time
		// cluster can be starved well past the usual 20 s.
		waitFor(t, 60*time.Second, func() bool {
			var done bool
			c[0].Inspect(func(r *replica.Replica) {
				done = r.Stats.EpochsDelivered >= int64(20*(round+1))
			})
			return done
		}, "cluster delivers this round's epochs")
		c[0].Inspect(func(r *replica.Replica) {
			if r.Stats.EpochsDelivered != int64(r.Engine().DeliveredEpoch()) {
				t.Errorf("round %d: EpochsDelivered=%d but engine at %d",
					round, r.Stats.EpochsDelivered, r.Engine().DeliveredEpoch())
			}
		})
		c.Close()
		for i := range mems {
			mems[i] = mems[i].Reopen()
			stores[i] = mems[i]
		}
	}
}
