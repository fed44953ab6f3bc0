package replica

import (
	"maps"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/store"
	"dledger/internal/telemetry"
	"dledger/internal/wire"
	"dledger/internal/workload"
)

// pacingCfg is the cluster of the proposal-pacing tests: N−f = 3.
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
// from then on an epoch decides when three nodes have proposed.
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

// burst submits one full batch to node at the given instant.
func burst(net *fakeNet, node int, at time.Duration) {
	net.schedule(at, func() {
		for k := 0; k < 2; k++ {
			net.replicas[node].Submit(workload.Make(node, uint32(at/time.Millisecond)*2+uint32(k), at, 500))
		}
	})
}

// proposals reads node 0's dl_proposals_total by trigger.
func proposals(tel *telemetry.Metrics) map[string]uint64 {
	snap := tel.Registry().Snapshot()
	out := map[string]uint64{}
	for _, trigger := range []string{"timer", "bytes", "opened"} {
		out[trigger] = snap[`dl_proposals_total{trigger="`+trigger+`"}`].(uint64)
	}
	return out
}

// timerPacedAt1s: node 0's full batch at 100 ms goes at once (nothing has
// been delivered, so the cluster counts as byte-paced) and is the one
// transaction-carrying block of epoch 2, which the other nodes' timers
// complete at 1 s: from its delivery node 0 counts the cluster as
// timer-paced. It was solicited for epoch 3 at 1 s, before its own timer
// expired.
func timerPacedAt1s(t *testing.T, delay0 time.Duration, st store.Store) (*fakeNet, *telemetry.Metrics) {
	t.Helper()
	net, tel := pacedNet(t, delay0, st)
	burst(net, 0, 100*time.Millisecond)
	net.run(time.Second)
	if r := net.replicas[0]; !r.timerPaced || r.lastProposal != 100*time.Millisecond {
		t.Fatalf("setup: node 0 timer-paced %v, last proposal at %v; want true, 100ms", r.timerPaced, r.lastProposal)
	}
	return net, tel
}

// TestHeldBatchGoesWhenTheEpochOpens: a batch that fills at 1.2 s waits
// for the other nodes' timers to open epoch 3 at 2 s — before node 0's own
// 1.5 s timer would release it at 2.5 s — and goes the moment they do.
func TestHeldBatchGoesWhenTheEpochOpens(t *testing.T) {
	net, tel := timerPacedAt1s(t, 1500*time.Millisecond, nil)
	r := net.replicas[0]
	burst(net, 0, 1200*time.Millisecond)
	net.run(1999 * time.Millisecond)
	if got := r.Engine().DispersalEpoch(); got != 2 {
		t.Fatalf("node 0 proposed into epoch %d before another node opened epoch 3", got)
	}
	net.run(2 * time.Second)
	if got := r.Engine().DispersalEpoch(); got != 3 || r.lastProposal != 2*time.Second {
		t.Fatalf("node 0 at epoch %d, last proposal at %v; want epoch 3 at 2s", got, r.lastProposal)
	}
	if got, want := proposals(tel), map[string]uint64{"timer": 0, "bytes": 1, "opened": 1}; !maps.Equal(got, want) {
		t.Errorf("dl_proposals_total %v, want %v", got, want)
	}
}

// TestHeldBatchGoesWhenItsTimerFires: with the other nodes' timers slowed
// to 3 s, nobody opens epoch 3 until 4 s, and node 0's batch, held from
// 1.05 s, goes BatchDelay after node 0 was solicited at 1 s.
func TestHeldBatchGoesWhenItsTimerFires(t *testing.T) {
	net, tel := timerPacedAt1s(t, time.Second, nil)
	r := net.replicas[0]
	for _, other := range net.replicas[1:] {
		other.params.BatchDelay = 3 * time.Second
	}
	burst(net, 0, 1050*time.Millisecond)
	net.run(1999 * time.Millisecond)
	if got := r.Engine().DispersalEpoch(); got != 2 {
		t.Fatalf("node 0 proposed into epoch %d before its hold ran out", got)
	}
	net.run(2 * time.Second)
	if got := r.Engine().DispersalEpoch(); got != 3 || r.lastProposal != 2*time.Second {
		t.Fatalf("node 0 at epoch %d, last proposal at %v; want epoch 3 at 2s", got, r.lastProposal)
	}
	if got, want := proposals(tel), map[string]uint64{"timer": 1, "bytes": 1, "opened": 0}; !maps.Equal(got, want) {
		t.Errorf("dl_proposals_total %v, want %v", got, want)
	}
}

// TestByteFullClusterProposesAtOnce: once an epoch commits N−f
// transaction-carrying blocks the cluster is byte-paced again and a full
// batch goes at once; epochs with no transactions at all say nothing
// about pacing and leave that verdict in place.
func TestByteFullClusterProposesAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   time.Duration
	}{
		{"right after the epoch", 2500 * time.Millisecond},
		{"after three all-empty epochs", 5500 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, tel := timerPacedAt1s(t, time.Second, nil)
			// Every node fills at 1.05 s and holds its batch until the
			// holds run out at 2 s: epoch 3 is four transaction-carrying
			// blocks.
			for i := range net.replicas {
				burst(net, i, 1050*time.Millisecond)
			}
			burst(net, 0, tc.at)
			net.run(tc.at)
			r := net.replicas[0]
			if r.timerPaced || r.lastProposal != tc.at {
				t.Fatalf("node 0 timer-paced %v, last proposal at %v; want false, %v", r.timerPaced, r.lastProposal, tc.at)
			}
			if got := proposals(tel)["bytes"]; got != 2 {
				t.Errorf("%d proposals released by bytes, want 2", got)
			}
		})
	}
}

// TestLateSolicitationIsNotHeld: a node asked to propose after its own
// timer expired is in a cluster whose epochs outlast its batch delay,
// where every node proposes as soon as it is asked and nothing waits for
// a timer. Node 0 (500 ms timer, last proposal at 1 s) is asked for
// epoch 4 at 2 s with a full batch and a timer-paced verdict, and
// proposes at once.
func TestLateSolicitationIsNotHeld(t *testing.T) {
	net, _ := pacedNet(t, 500*time.Millisecond, nil)
	burst(net, 0, 100*time.Millisecond)
	burst(net, 0, 1600*time.Millisecond)
	net.run(2 * time.Second)
	r := net.replicas[0]
	if !r.timerPaced || r.Engine().DispersalEpoch() != 4 || r.lastProposal != 2*time.Second {
		t.Fatalf("node 0: timer-paced %v, epoch %d proposed at %v; want true, epoch 4 at 2s",
			r.timerPaced, r.Engine().DispersalEpoch(), r.lastProposal)
	}
}

// TestRestartedNodeIsNotHeld: the pacing verdict is soft state. Node 0
// restarts from its store at 1.5 s; its full batch then goes the moment
// it is solicited at 2 s, where the incarnation before it would have held
// it until epoch 4 opened at 3 s.
func TestRestartedNodeIsNotHeld(t *testing.T) {
	st := store.NewMem()
	net, _ := timerPacedAt1s(t, 1500*time.Millisecond, st)
	net.run(1500 * time.Millisecond)
	net.replicas[0].ctx.(*crashCtx).dead = true
	r, err := New(pacingCfg, 0, pacedParams(0, 1500*time.Millisecond, nil), st.Reopen(),
		&crashCtx{fakeCtx: fakeCtx{net: net, self: 0}})
	if err != nil {
		t.Fatal(err)
	}
	net.replicas[0] = r
	r.Start()
	burst(net, 0, 1600*time.Millisecond)
	net.run(2 * time.Second)
	if r.timerPaced || r.lastProposal != 2*time.Second || r.Engine().DispersalEpoch() != 4 {
		t.Fatalf("restarted node 0: timer-paced %v, epoch %d proposed at %v; want false, epoch 4 at 2s",
			r.timerPaced, r.Engine().DispersalEpoch(), r.lastProposal)
	}
}

// TestEmptyProposalIsNeverHeld: an empty or gap-fill proposal goes the
// moment it is asked for, whatever the batch pending behind it.
func TestEmptyProposalIsNeverHeld(t *testing.T) {
	net, _ := timerPacedAt1s(t, 1500*time.Millisecond, nil)
	r := net.replicas[0]
	burst(net, 0, 1200*time.Millisecond)
	net.run(1500 * time.Millisecond)
	if !r.pendingProposal {
		t.Fatal("setup: node 0's full batch is not held")
	}
	r.proposalEmpty = true
	r.tryPropose()
	if r.pendingProposal || r.lastProposal != 1500*time.Millisecond || r.PendingBytes() != 1000 {
		t.Fatalf("empty proposal pending %v, last proposal at %v, %d bytes left; want sent at 1.5s, 1000 left",
			r.pendingProposal, r.lastProposal, r.PendingBytes())
	}
}

// TestFixedBlockProposalIsNeverHeld: in the fixed-block-size mode a block
// goes as soon as its bytes are pending, timer-paced cluster or not.
func TestFixedBlockProposalIsNeverHeld(t *testing.T) {
	net := newFakeCluster(t, pacingCfg, Params{BatchDelay: time.Second, FixedBlockBytes: 1000})
	for _, r := range net.replicas {
		r.Start()
	}
	r := net.replicas[0]
	r.timerPaced = true
	burst(net, 0, 100*time.Millisecond)
	net.run(100 * time.Millisecond)
	if got := r.Engine().DispersalEpoch(); got != 1 || r.lastProposal != 100*time.Millisecond {
		t.Fatalf("node 0 at epoch %d, last proposal at %v; want epoch 1 at 100ms", got, r.lastProposal)
	}
}
