package replica

import (
	"container/heap"
	"reflect"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/store"
	"dledger/internal/wire"
	"dledger/internal/workload"
)

// fakeNet is a zero-latency, infinite-bandwidth test context with a
// deterministic virtual clock shared by all replicas.
type fakeNet struct {
	now      time.Duration
	seq      uint64
	events   eventHeap
	replicas []*Replica
}

type fakeCtx struct {
	net  *fakeNet
	self int
}

func (c *fakeCtx) Now() time.Duration { return c.net.now }
func (c *fakeCtx) Send(to int, env wire.Envelope, prio wire.Priority, stream uint64) {
	c.net.schedule(c.net.now, func() { c.net.replicas[to].OnEnvelope(env) })
}
func (c *fakeCtx) After(d time.Duration, fn func()) {
	c.net.schedule(c.net.now+d, fn)
}

type fakeEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}
type eventHeap []fakeEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(fakeEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

func (n *fakeNet) schedule(at time.Duration, fn func()) {
	n.seq++
	heap.Push(&n.events, fakeEvent{at, n.seq, fn})
}

func (n *fakeNet) run(until time.Duration) {
	for len(n.events) > 0 {
		ev := n.events[0]
		if ev.at > until {
			break
		}
		heap.Pop(&n.events)
		n.now = ev.at
		ev.fn()
	}
	if n.now < until {
		n.now = until
	}
}

// openStore opens a FileStore on dir, closed when the test ends.
func openStore(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	st, err := store.OpenFile(store.FileOptions{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// restartStore closes st, the store opened on dir, and opens dir again:
// the new handle recovers what st's incarnation wrote.
func restartStore(t *testing.T, st *store.FileStore, dir string) *store.FileStore {
	t.Helper()
	st.Close()
	return openStore(t, dir)
}

func newFakeCluster(t *testing.T, cfg core.Config, params Params) *fakeNet {
	t.Helper()
	if cfg.CoinSecret == nil {
		cfg.CoinSecret = []byte("replica test")
	}
	net := &fakeNet{}
	for i := 0; i < cfg.N; i++ {
		r, err := New(cfg, i, params, nil, &fakeCtx{net: net, self: i})
		if err != nil {
			t.Fatal(err)
		}
		net.replicas = append(net.replicas, r)
	}
	return net
}

func TestEndToEndDelivery(t *testing.T) {
	net := newFakeCluster(t, core.Config{N: 4, F: 1, Mode: core.ModeDL}, Params{})
	for _, r := range net.replicas {
		r.Start()
	}
	// Submit one tagged transaction per node at t=0.
	for i, r := range net.replicas {
		r.Submit(workload.Make(i, 1, 0, 64))
	}
	net.run(10 * time.Second)
	for i, r := range net.replicas {
		if r.Stats.DeliveredTxs < 4 {
			t.Fatalf("node %d delivered %d txs, want >= 4", i, r.Stats.DeliveredTxs)
		}
		if r.Stats.LatLocal.Count() != 1 {
			t.Fatalf("node %d has %d local latencies, want 1", i, r.Stats.LatLocal.Count())
		}
		if r.Stats.LatAll.Count() < 4 {
			t.Fatalf("node %d has %d latency samples", i, r.Stats.LatAll.Count())
		}
	}
}

func TestBatchingDelayGate(t *testing.T) {
	// With BatchDelay 100ms and a trickle of tiny transactions, blocks
	// must not be proposed faster than every ~100ms.
	net := newFakeCluster(t, core.Config{N: 4, F: 1, Mode: core.ModeDL}, Params{
		BatchDelay: 100 * time.Millisecond,
		BatchBytes: 1 << 20,
	})
	for _, r := range net.replicas {
		r.Start()
	}
	// Trickle txs to node 0 every 10 ms for 1 s.
	for k := 0; k < 100; k++ {
		k := k
		net.schedule(time.Duration(k)*10*time.Millisecond, func() {
			net.replicas[0].Submit(workload.Make(0, uint32(k), net.now, 32))
		})
	}
	net.run(5 * time.Second)
	// <= ~1s/100ms + slack epochs should have been decided.
	if got := net.replicas[0].Engine().DispersalEpoch(); got > 55 {
		t.Fatalf("node proposed %d epochs in 5s with a 100ms Nagle gate", got)
	}
	if net.replicas[0].Stats.DeliveredTxs != 100*1 {
		// All 100 of node 0's txs delivered at node 0 (plus empties from
		// others carry no txs).
		t.Fatalf("delivered %d txs, want 100", net.replicas[0].Stats.DeliveredTxs)
	}
}

func TestBatchBytesTriggersEarly(t *testing.T) {
	// A large burst must trigger an immediate proposal without waiting
	// for the BatchDelay gate: node 0 must reach epoch 2 well before its
	// 200 ms timer, and the idle nodes answer the epoch it opened.
	net := newFakeCluster(t, core.Config{N: 4, F: 1, Mode: core.ModeDL}, Params{
		BatchDelay: 200 * time.Millisecond,
		BatchBytes: 1000,
	})
	for _, r := range net.replicas {
		r.Start()
	}
	net.schedule(time.Millisecond, func() {
		for k := 0; k < 20; k++ {
			net.replicas[0].Submit(workload.Make(0, uint32(k), net.now, 100))
		}
	})
	net.schedule(50*time.Millisecond, func() {
		if got := net.replicas[0].Engine().DispersalEpoch(); got < 2 {
			t.Errorf("node 0 at epoch %d by 50ms; byte threshold should have fired", got)
		}
		if got := net.replicas[1].Engine().DispersalEpoch(); got < 2 {
			t.Errorf("idle node 1 at epoch %d by 50ms; it should have answered node 0's opening", got)
		}
	})
	net.run(3 * time.Second)
	if net.replicas[0].Stats.DeliveredTxs != 20 {
		t.Fatalf("delivered %d txs, want 20", net.replicas[0].Stats.DeliveredTxs)
	}
}

func TestFixedBlockMode(t *testing.T) {
	net := newFakeCluster(t, core.Config{N: 4, F: 1, Mode: core.ModeDL}, Params{
		FixedBlockBytes: 1000,
	})
	for _, r := range net.replicas {
		r.Start()
	}
	// 950 bytes pending: below the fixed size, no proposal.
	net.replicas[0].Submit(workload.Make(0, 1, 0, 950))
	net.run(time.Second)
	if got := net.replicas[0].Engine().DispersalEpoch(); got != 0 {
		t.Fatalf("fixed-size node proposed with only 950 bytes pending (epoch %d)", got)
	}
	// Crossing the threshold triggers the proposal.
	net.replicas[0].Submit(workload.Make(0, 2, net.now, 100))
	net.run(2 * time.Second)
	if got := net.replicas[0].Engine().DispersalEpoch(); got != 1 {
		t.Fatalf("fixed-size node at epoch %d, want 1", got)
	}
}

func TestStatsEpochCounters(t *testing.T) {
	net := newFakeCluster(t, core.Config{N: 4, F: 1, Mode: core.ModeDL}, Params{})
	for _, r := range net.replicas {
		r.Start()
	}
	for k := 0; k < 50; k++ {
		k := k
		net.schedule(time.Duration(k)*20*time.Millisecond, func() {
			for i, r := range net.replicas {
				r.Submit(workload.Make(i, uint32(k), net.now, 200))
			}
		})
	}
	net.run(10 * time.Second)
	r := net.replicas[1]
	if r.Stats.DeliveredPayload == 0 {
		t.Fatal("no payload delivered")
	}
	if r.Stats.EpochsDelivered == 0 || r.Stats.EpochsDecided < r.Stats.EpochsDelivered {
		t.Fatalf("epoch stats inconsistent: decided %d delivered %d",
			r.Stats.EpochsDecided, r.Stats.EpochsDelivered)
	}
}

func TestOnDeliverHook(t *testing.T) {
	net := newFakeCluster(t, core.Config{N: 4, F: 1, Mode: core.ModeDL}, Params{})
	var got []Delivery
	net.replicas[2].OnDeliver = func(d Delivery) { got = append(got, d) }
	for _, r := range net.replicas {
		r.Start()
	}
	net.replicas[0].Submit(workload.Make(0, 1, 0, 64))
	net.run(5 * time.Second)
	found := false
	for _, d := range got {
		if d.Proposer == 0 && d.Payload > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("OnDeliver hook never saw node 0's block")
	}
}

// sendLog records every Send, in call order.
type sendLog struct {
	soloCtx
	sends []loggedSend
}

type loggedSend struct {
	to     int
	env    wire.Envelope
	prio   wire.Priority
	stream uint64
}

func (c *sendLog) Send(to int, env wire.Envelope, prio wire.Priority, stream uint64) {
	c.sends = append(c.sends, loggedSend{to, env, prio, stream})
}

// TestBroadcastFansOutToPeersInOrder: a broadcast SendAction reaches
// ctx.Send once per other node, in ascending id order, never for the
// node itself; a unicast goes to its one peer.
func TestBroadcastFansOutToPeersInOrder(t *testing.T) {
	ctx := &sendLog{soloCtx: soloCtx{net: &fakeNet{}}}
	r, err := New(core.Config{N: 5, F: 1, Mode: core.ModeDL, CoinSecret: []byte("fan-out")}, 2, Params{}, nil, ctx)
	if err != nil {
		t.Fatal(err)
	}
	bcast := wire.Envelope{From: 2, Epoch: 3, Proposer: 4, Payload: wire.CancelRequest{}}
	uni := wire.Envelope{From: 2, Epoch: 3, Proposer: 4, Payload: wire.RequestChunk{}}
	r.apply([]core.Action{
		core.SendAction{To: 4, Env: uni, Prio: wire.PrioDispersal, Stream: 3},
		core.SendAction{To: wire.Broadcast, Env: bcast, Prio: wire.PrioRetrieval, Stream: 7},
	})
	want := []loggedSend{
		{4, uni, wire.PrioDispersal, 3},
		{0, bcast, wire.PrioRetrieval, 7},
		{1, bcast, wire.PrioRetrieval, 7},
		{3, bcast, wire.PrioRetrieval, 7},
		{4, bcast, wire.PrioRetrieval, 7},
	}
	if !reflect.DeepEqual(ctx.sends, want) {
		t.Fatalf("sends = %+v\nwant %+v", ctx.sends, want)
	}
}

func TestDoubleStartIsNoop(t *testing.T) {
	net := newFakeCluster(t, core.Config{N: 4, F: 1, Mode: core.ModeDL}, Params{})
	net.replicas[0].Start()
	net.replicas[0].Start() // must not propose twice or panic
	for _, r := range net.replicas[1:] {
		r.Start()
	}
	net.run(time.Second)
}
