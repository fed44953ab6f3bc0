package replica

import (
	"maps"
	"slices"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/store"
	"dledger/internal/telemetry"
	"dledger/internal/wire"
	"dledger/internal/workload"
)

// pacingCfg is the cluster of the proposal-pacing tests.
var pacingCfg = core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("replica test")}

// crashCtx is a fakeCtx whose node can be killed: once dead, its leftover
// timers and sends do nothing.
type crashCtx struct {
	fakeCtx
	dead bool
}

func (c *crashCtx) Send(to int, env wire.Envelope, prio wire.Priority, stream uint64) {
	if !c.dead {
		c.fakeCtx.Send(to, env, prio, stream)
	}
}

func (c *crashCtx) After(d time.Duration, fn func()) {
	if !c.dead {
		c.fakeCtx.After(d, fn)
	}
}

// pacedParams are node i's parameters: a 1000-byte batch and a one-second
// batch delay, delay0 for node 0, which also reports to tel.
func pacedParams(i int, delay0 time.Duration, tel *telemetry.Metrics) Params {
	p := Params{BatchDelay: time.Second, BatchBytes: 1000}
	if i == 0 {
		p.BatchDelay, p.Telemetry = delay0, tel
	}
	return p
}

// pacedNet starts four replicas with pacedParams, node 0 persisting to st
// (nil: nothing). The first epoch's blocks are empty and decide at once;
// from then on an epoch opens when its first proposal's chunks arrive, and
// the other nodes answer it at once.
func pacedNet(t *testing.T, delay0 time.Duration, st store.Store) (*fakeNet, *telemetry.Metrics) {
	t.Helper()
	net := &fakeNet{}
	tel := telemetry.New(telemetry.Options{})
	for i := 0; i < pacingCfg.N; i++ {
		var s store.Store
		if i == 0 {
			s = st
		}
		r, err := New(pacingCfg, i, pacedParams(i, delay0, tel), s, &crashCtx{fakeCtx: fakeCtx{net: net, self: i}})
		if err != nil {
			t.Fatal(err)
		}
		net.replicas = append(net.replicas, r)
	}
	for _, r := range net.replicas {
		r.Start()
	}
	return net, tel
}

// submit gives node txs transactions of 500 bytes at the given instant:
// one is half a batch, two fill one.
func submit(net *fakeNet, node int, at time.Duration, txs int) {
	net.schedule(at, func() {
		for k := 0; k < txs; k++ {
			net.replicas[node].Submit(workload.Make(node, uint32(at/time.Millisecond)*2+uint32(k), at, 500))
		}
	})
}

// burst submits one full batch to node at the given instant, as one
// 1000-byte transaction: it goes at once on bytes, idle node or not.
func burst(net *fakeNet, node int, at time.Duration) {
	net.schedule(at, func() {
		net.replicas[node].Submit(workload.Make(node, uint32(at/time.Millisecond)*2, at, 1000))
	})
}

// busy makes node 0 busy at 10 ms: two half batches reach it idle and go
// as its two early proposals, into epochs 2 and 3, so its batching clock
// runs from 10 ms again.
func busy(net *fakeNet) { submit(net, 0, 10*time.Millisecond, 2) }

// proposals reads node 0's dl_proposals_total by trigger.
func proposals(tel *telemetry.Metrics) map[string]uint64 {
	snap := tel.Registry().Snapshot()
	out := map[string]uint64{}
	for _, trigger := range []string{"timer", "bytes", "opened", "idle"} {
		out[trigger] = snap[`dl_proposals_total{trigger="`+trigger+`"}`].(uint64)
	}
	return out
}

// proposedAt checks that node 0 proposed into epoch at instant when and
// not a moment before.
func proposedAt(t *testing.T, net *fakeNet, epoch uint64, when time.Duration) {
	t.Helper()
	r := net.replicas[0]
	net.run(when - time.Millisecond)
	if got := r.Engine().DispersalEpoch(); got != epoch-1 {
		t.Fatalf("node 0 at epoch %d just before %v, want %d", got, when, epoch-1)
	}
	net.run(when)
	if got := r.Engine().DispersalEpoch(); got != epoch || r.lastProposal != when {
		t.Fatalf("node 0 at epoch %d, last proposal at %v; want epoch %d at %v", got, r.lastProposal, epoch, when)
	}
}

// TestOpeningReleasesAPartialBatch: busy node 0 holds half a batch from
// 100 ms, and node 1's full batch opens epoch 4 at 200 ms, well before
// node 0's one-second timer. The half batch goes with it.
func TestOpeningReleasesAPartialBatch(t *testing.T) {
	net, tel := pacedNet(t, time.Second, nil)
	busy(net)
	submit(net, 0, 100*time.Millisecond, 1)
	burst(net, 1, 200*time.Millisecond)
	proposedAt(t, net, 4, 200*time.Millisecond)
	if got := net.replicas[0].PendingBytes(); got != 0 {
		t.Errorf("%d bytes left in node 0's mempool, want 0", got)
	}
	if got, want := proposals(tel), map[string]uint64{"timer": 0, "bytes": 0, "opened": 1, "idle": 2}; !maps.Equal(got, want) {
		t.Errorf("dl_proposals_total %v, want %v", got, want)
	}
}

// TestOpeningReleasesAnEmptyBlock: a node with nothing to propose answers
// an opened epoch at once too, with an empty block, which reports no
// TxProposed and so counts under no trigger.
func TestOpeningReleasesAnEmptyBlock(t *testing.T) {
	net, tel := pacedNet(t, time.Second, nil)
	burst(net, 1, 200*time.Millisecond)
	proposedAt(t, net, 2, 200*time.Millisecond)
	if got, want := proposals(tel), map[string]uint64{"timer": 0, "bytes": 0, "opened": 0, "idle": 0}; !maps.Equal(got, want) {
		t.Errorf("dl_proposals_total %v, want %v", got, want)
	}
}

// TestByteFullClusterProposesAtOnce: a full batch goes the moment it is
// pending, whether it fills right after the epoch node 0 last proposed
// into or after three all-empty epochs the timers paced.
func TestByteFullClusterProposesAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		epoch uint64
		at    time.Duration
	}{
		{"right after the epoch", 2, 100 * time.Millisecond},
		{"after three all-empty epochs", 5, 3500 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, tel := pacedNet(t, time.Second, nil)
			burst(net, 0, tc.at)
			proposedAt(t, net, tc.epoch, tc.at)
			if got, want := proposals(tel), map[string]uint64{"timer": 0, "bytes": 1, "opened": 0, "idle": 0}; !maps.Equal(got, want) {
				t.Errorf("dl_proposals_total %v, want %v", got, want)
			}
		})
	}
}

// TestPartialBatchWaitsForItsTimer: with nobody opening epoch 4, busy
// node 0's half batch from 100 ms waits out its 500 ms batch delay,
// which runs from its proposal at 10 ms.
func TestPartialBatchWaitsForItsTimer(t *testing.T) {
	net, tel := pacedNet(t, 500*time.Millisecond, nil)
	busy(net)
	submit(net, 0, 100*time.Millisecond, 1)
	proposedAt(t, net, 4, 510*time.Millisecond)
	if got, want := proposals(tel), map[string]uint64{"timer": 1, "bytes": 0, "opened": 0, "idle": 2}; !maps.Equal(got, want) {
		t.Errorf("dl_proposals_total %v, want %v", got, want)
	}
}

// TestEmptyProposalIsNeverHeld: node 0 proposes into epochs 2 and 3,
// goes down at 500 ms while nodes 1-3 decide epochs 4 to 6 on their
// empty ticks, and restarts at 3.5 s, when a transaction reaches it
// during its status catch-up. Once the catch-up ends, the slots decided
// in its absence go at once and empty, and the transaction waits for the
// first slot at the frontier, epoch 7: a block in a decided slot commits
// only through linking, so it must risk no transactions.
func TestEmptyProposalIsNeverHeld(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	net, _ := pacedNet(t, time.Second, st)
	busy(net)
	net.run(500 * time.Millisecond)
	// The down node receives into a throwaway engine and sends nothing.
	sink, err := New(pacingCfg, 0, pacedParams(0, time.Second, nil), nil,
		&crashCtx{fakeCtx: fakeCtx{net: net, self: 0}, dead: true})
	if err != nil {
		t.Fatal(err)
	}
	net.replicas[0].ctx.(*crashCtx).dead = true
	net.replicas[0] = sink
	net.run(3500 * time.Millisecond)
	if got := net.replicas[1].Engine().DecidedThrough(); got != 6 {
		t.Fatalf("setup: nodes 1-3 decided through epoch %d by 3.5 s, want 6", got)
	}
	r, err := New(pacingCfg, 0, pacedParams(0, time.Second, nil), restartStore(t, st, dir),
		&crashCtx{fakeCtx: fakeCtx{net: net, self: 0}})
	if err != nil {
		t.Fatal(err)
	}
	type block struct {
		epoch uint64
		txs   int
		at    time.Duration
	}
	var got []block
	r.Engine().SetActionTap(func(actions []core.Action) []core.Action {
		for _, a := range actions {
			if m, ok := a.(core.ProposalMadeAction); ok {
				blk, err := wire.DecodeBlock(m.Block)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, block{m.Epoch, len(blk.Txs), net.now})
			}
		}
		return actions
	})
	if got := r.Engine().DispersalEpoch(); got != 3 {
		t.Fatalf("setup: node 0 recovered proposals through epoch %d, want 3", got)
	}
	net.replicas[0] = r
	r.Start()
	submit(net, 0, 3500*time.Millisecond, 1)
	net.run(3500 * time.Millisecond)
	at := 3500 * time.Millisecond
	want := []block{{4, 0, at}, {5, 0, at}, {6, 0, at}, {7, 1, at}}
	if !slices.Equal(got, want) {
		t.Fatalf("node 0's proposals after the restart %v, want %v", got, want)
	}
}

// TestIdleNodeProposesAtOnce: a half batch at an idle node goes at once,
// as an idle proposal, into the epoch node 0 has due. Node 0 is
// idle when its one-second batch delay, counted from its last
// transaction-carrying proposal, had run out before the batch arrived:
// on a fresh node, and on a busy one left quiet for longer than that.
func TestIdleNodeProposesAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		busy  bool
		epoch uint64
		at    time.Duration
	}{
		{"fresh", false, 2, 300 * time.Millisecond},
		// Epoch 4 is node 0's empty tick at 1.01 s.
		{"quiet after busy", true, 5, 1500 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, tel := pacedNet(t, time.Second, nil)
			idle := uint64(1)
			if tc.busy {
				busy(net)
				idle = 3
			}
			submit(net, 0, tc.at, 1)
			proposedAt(t, net, tc.epoch, tc.at)
			if got, want := proposals(tel), map[string]uint64{"timer": 0, "bytes": 0, "opened": 0, "idle": idle}; !maps.Equal(got, want) {
				t.Errorf("dl_proposals_total %v, want %v", got, want)
			}
		})
	}
}

// TestIdleBurstGoesAsTwoProposals: eight small transactions reach idle
// node 0 back to back. The first goes at once; the other seven queue
// behind its dispersal and go whole as soon as the next block is due,
// in the same instant on this zero-latency net. The idle spell is then spent: a
// ninth transaction at 400 ms waits for the batch delay, counted from
// the second proposal.
func TestIdleBurstGoesAsTwoProposals(t *testing.T) {
	net, tel := pacedNet(t, time.Second, nil)
	type block struct {
		epoch uint64
		txs   int
		at    time.Duration
	}
	var got []block
	net.replicas[1].OnDeliver = func(d Delivery) {
		if d.Proposer == 0 && len(d.Txs) > 0 {
			got = append(got, block{d.Epoch, len(d.Txs), d.At})
		}
	}
	for k, at := range []time.Duration{300, 300, 300, 300, 300, 300, 300, 300, 400} {
		at := at * time.Millisecond
		net.schedule(at, func() { net.replicas[0].Submit(workload.Make(0, uint32(k), at, 100)) })
	}
	net.run(1299 * time.Millisecond)
	want := []block{{2, 1, 300 * time.Millisecond}, {3, 7, 300 * time.Millisecond}}
	if !slices.Equal(got, want) {
		t.Fatalf("node 0's blocks by 1.299 s %v, want %v", got, want)
	}
	net.run(1300 * time.Millisecond)
	if want = append(want, block{4, 1, 1300 * time.Millisecond}); !slices.Equal(got, want) {
		t.Fatalf("node 0's blocks by 1.3 s %v, want %v", got, want)
	}
	if got, want := proposals(tel), map[string]uint64{"timer": 1, "bytes": 0, "opened": 0, "idle": 2}; !maps.Equal(got, want) {
		t.Errorf("dl_proposals_total %v, want %v", got, want)
	}
}

// TestBusyNodeKeepsItsCadence: node 0 gets an 80-byte transaction every
// 50 ms, so a batch delay's worth never fills a batch. The first two go
// at once, as it starts idle; from then on its batch goes every 500 ms
// batch delay, and nobody else opens an epoch.
func TestBusyNodeKeepsItsCadence(t *testing.T) {
	net, tel := pacedNet(t, 500*time.Millisecond, nil)
	var got []time.Duration
	net.replicas[1].OnDeliver = func(d Delivery) {
		if d.Proposer == 0 && len(d.Txs) > 0 {
			got = append(got, d.At)
		}
	}
	for at := 10 * time.Millisecond; at < 3*time.Second; at += 50 * time.Millisecond {
		net.schedule(at, func() { net.replicas[0].Submit(workload.Make(0, uint32(at/time.Millisecond), at, 80)) })
	}
	net.run(3 * time.Second)
	var want []time.Duration
	for _, ms := range []int{10, 60, 560, 1060, 1560, 2060, 2560} {
		want = append(want, time.Duration(ms)*time.Millisecond)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("node 0's batches at %v, want %v", got, want)
	}
	if got, want := proposals(tel), map[string]uint64{"timer": 5, "bytes": 0, "opened": 0, "idle": 2}; !maps.Equal(got, want) {
		t.Errorf("dl_proposals_total %v, want %v", got, want)
	}
}

// TestEmptyPoolTicksAtBatchDelay: an empty mempool still proposes every
// batch delay from the last proposal of any kind, the idle one included.
func TestEmptyPoolTicksAtBatchDelay(t *testing.T) {
	net, _ := pacedNet(t, 500*time.Millisecond, nil)
	proposedAt(t, net, 2, 500*time.Millisecond)
	submit(net, 0, 700*time.Millisecond, 1)
	proposedAt(t, net, 3, 700*time.Millisecond)
	proposedAt(t, net, 4, 1200*time.Millisecond)
	proposedAt(t, net, 5, 1700*time.Millisecond)
}

// TestOpeningReleasesNoCatchingUpProposal: a node still catching up after
// a restart proposes nothing, however many epochs open around it.
func TestOpeningReleasesNoCatchingUpProposal(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	net, _ := pacedNet(t, time.Second, st)
	net.run(500 * time.Millisecond)
	net.replicas[0].ctx.(*crashCtx).dead = true
	// The new incarnation's status requests never leave it, so it stays
	// catching up.
	r, err := New(pacingCfg, 0, pacedParams(0, time.Second, nil), restartStore(t, st, dir),
		&crashCtx{fakeCtx: fakeCtx{net: net, self: 0}, dead: true})
	if err != nil {
		t.Fatal(err)
	}
	net.replicas[0] = r
	r.Start()
	submit(net, 0, 600*time.Millisecond, 1)
	burst(net, 1, 700*time.Millisecond)
	net.run(2 * time.Second)
	if !r.Engine().CatchingUp() || !r.Engine().EpochOpened() {
		t.Fatalf("setup: node 0 catching up %v, epoch opened %v; want an epoch opened while catching up",
			r.Engine().CatchingUp(), r.Engine().EpochOpened())
	}
	if r.lastProposal >= 500*time.Millisecond {
		t.Errorf("node 0 proposed at %v while catching up", r.lastProposal)
	}
}

// TestFixedBlockProposalIsNeverHeld: in the fixed-block-size mode a block
// goes as soon as its bytes are pending, and not before: node 1's full
// block opens epoch 1 at 200 ms, and node 0's half block stays until it
// fills at 300 ms.
func TestFixedBlockProposalIsNeverHeld(t *testing.T) {
	net := newFakeCluster(t, pacingCfg, Params{BatchDelay: time.Second, FixedBlockBytes: 1000})
	for _, r := range net.replicas {
		r.Start()
	}
	r := net.replicas[0]
	submit(net, 0, 100*time.Millisecond, 1)
	burst(net, 1, 200*time.Millisecond)
	submit(net, 0, 300*time.Millisecond, 1)
	net.run(299 * time.Millisecond)
	if !r.Engine().EpochOpened() || r.Engine().DispersalEpoch() != 0 {
		t.Fatalf("node 0 saw an epoch open %v and proposed into epoch %d by 299ms; want epoch 1 open and none", r.Engine().EpochOpened(), r.Engine().DispersalEpoch())
	}
	net.run(300 * time.Millisecond)
	if got := r.Engine().DispersalEpoch(); got != 1 || r.lastProposal != 300*time.Millisecond {
		t.Fatalf("node 0 at epoch %d, last proposal at %v; want epoch 1 at 300ms", got, r.lastProposal)
	}
}

// TestEagerOpenerSetsThePace: node 0 runs a one-millisecond batch delay,
// so it opens every epoch a millisecond after the last one decided, and
// the other nodes answer each opening at once. The cluster runs at node
// 0's pace and stays live; no node proposes twice into one epoch, and
// every transaction is delivered once.
func TestEagerOpenerSetsThePace(t *testing.T) {
	net, _ := pacedNet(t, time.Millisecond, nil)
	type slot struct {
		epoch    uint64
		proposer int
	}
	blocks := map[slot]int{}
	txs := map[string]int{}
	net.replicas[1].OnDeliver = func(d Delivery) {
		blocks[slot{d.Epoch, d.Proposer}]++
		for _, tx := range d.Txs {
			txs[string(tx)]++
		}
	}
	submitted := 0
	for at := 10 * time.Millisecond; at < 4*time.Second; at += 100 * time.Millisecond {
		for node := range net.replicas {
			submit(net, node, at, 1)
			submitted++
		}
	}
	net.run(5 * time.Second)
	for s, n := range blocks {
		if n != 1 {
			t.Errorf("node %d's block of epoch %d delivered %d times", s.proposer, s.epoch, n)
		}
	}
	if len(txs) != submitted {
		t.Errorf("%d of %d transactions delivered", len(txs), submitted)
	}
	for tx, n := range txs {
		if n != 1 {
			t.Errorf("transaction %x delivered %d times", tx[:6], n)
		}
	}
	// Epoch 1 at 0 s, then one a millisecond: one per agreement round.
	const epochs = 5001
	for i, r := range net.replicas {
		if r.Stats.EpochsDelivered != epochs {
			t.Errorf("node %d delivered %d epochs in 5 s, want %d", i, r.Stats.EpochsDelivered, epochs)
		}
	}
}
