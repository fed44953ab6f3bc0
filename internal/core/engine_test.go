package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dledger/internal/avid"
	"dledger/internal/merkle"
	"dledger/internal/wire"
)

// testCluster drives N engines under a random delivery schedule.
type testCluster struct {
	t       *testing.T
	cfg     Config
	engines []*Engine
	rng     *rand.Rand

	queue   []routed
	propose []int // node ids whose engine said a proposal is due
	timers  []pendingTimer

	maxEpochs int
	proposed  []int // blocks proposed so far per node
	txBlocks  []int // transaction-carrying blocks proposed so far per node
	emptyReq  []int // how many proposals the engine required empty

	delivered [][]DeliverAction
	decided   []map[uint64][]int
	resubmits [][]([][]byte)

	crashed map[int]bool
	dropFn  func(from, to int) bool
	// deferFn holds back matching messages until releaseWhen fires —
	// modelling adversarial delay (the async model allows delay, not loss).
	deferFn     func(env wire.Envelope, to int) bool
	releaseWhen func(c *testCluster) bool
	deferred    []routed
	// txFor generates the batch for a node's k-th transaction-carrying
	// proposal.
	txFor func(node, seq int) [][]byte
	// onAction, when set, observes every action each engine emits (the
	// vote-persistence tests use it as a stand-in for the replica's WAL).
	onAction func(node int, a Action)
	// onDrain, when set, runs each time all traffic has drained and a
	// timer is about to fire.
	onDrain func()
}

type routed struct {
	to  int
	env wire.Envelope
}

type pendingTimer struct {
	node  int
	token uint64
}

func newTestCluster(t *testing.T, cfg Config, seed int64, maxEpochs int) *testCluster {
	t.Helper()
	if cfg.CoinSecret == nil {
		cfg.CoinSecret = []byte("core test secret")
	}
	c := &testCluster{
		t: t, cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		maxEpochs: maxEpochs,
		proposed:  make([]int, cfg.N),
		txBlocks:  make([]int, cfg.N),
		emptyReq:  make([]int, cfg.N),
		delivered: make([][]DeliverAction, cfg.N),
		decided:   make([]map[uint64][]int, cfg.N),
		resubmits: make([][]([][]byte), cfg.N),
		crashed:   map[int]bool{},
	}
	c.txFor = func(node, seq int) [][]byte {
		return [][]byte{[]byte(fmt.Sprintf("tx-%d-%d", node, seq))}
	}
	for i := 0; i < cfg.N; i++ {
		c.decided[i] = map[uint64][]int{}
		eng, err := NewEngine(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		c.engines = append(c.engines, eng)
	}
	return c
}

func (c *testCluster) start() {
	for i, eng := range c.engines {
		if c.crashed[i] {
			continue
		}
		c.apply(i, eng.Start())
	}
}

func (c *testCluster) apply(node int, actions []Action) {
	for _, a := range Unicast(actions, c.cfg.N, node) {
		if c.onAction != nil {
			c.onAction(node, a)
		}
		switch act := a.(type) {
		case SendAction:
			c.queue = append(c.queue, routed{to: act.To, env: act.Env})
		case DeliverAction:
			c.delivered[node] = append(c.delivered[node], act)
		case ResubmitAction:
			c.resubmits[node] = append(c.resubmits[node], act.Txs)
		case TimerAction:
			c.timers = append(c.timers, pendingTimer{node: node, token: act.Token})
		case EpochDecidedAction:
			c.decided[node][act.Epoch] = act.S
		case EpochDeliveredAction:
		}
	}
	c.schedulePropose(node)
}

// schedulePropose queues node's next proposal once its engine says one
// is due, as a replica asks after every step. A node that has proposed
// maxEpochs blocks stops; the cluster winds down.
func (c *testCluster) schedulePropose(node int) {
	if c.proposed[node] >= c.maxEpochs || slices.Contains(c.propose, node) {
		return
	}
	if due, _ := c.engines[node].ProposalDue(); due {
		c.propose = append(c.propose, node)
	}
}

// proposeNext answers the scheduled proposal at the head of the queue:
// txFor's next batch, or an empty block where the engine requires one.
// The engine is asked again, as the proposal may have stopped being due
// (a crash, a state-sync bootstrap) since it was scheduled.
func (c *testCluster) proposeNext() {
	node := c.propose[0]
	c.propose = c.propose[1:]
	if c.crashed[node] || c.proposed[node] >= c.maxEpochs {
		return
	}
	due, empty := c.engines[node].ProposalDue()
	if !due {
		return
	}
	c.proposed[node]++
	var txs [][]byte
	if empty {
		c.emptyReq[node]++
	} else {
		c.txBlocks[node]++
		txs = c.txFor(node, c.txBlocks[node])
	}
	acts, err := c.engines[node].Propose(txs)
	if err != nil {
		c.t.Fatalf("node %d propose: %v", node, err)
	}
	c.apply(node, acts)
}

// run processes queued work in random order until quiescent. Timers fire
// only when all message traffic has drained, which models "eventually"
// without simulated time. A timer that keeps re-arming itself while nothing
// is in flight is a livelock, not a wait, and fails the test.
func (c *testCluster) run() {
	steps, idleTimers := 0, 0
	for len(c.queue) > 0 || len(c.propose) > 0 || len(c.timers) > 0 {
		if len(c.queue) == 0 && len(c.propose) == 0 {
			if idleTimers++; idleTimers > 1000 {
				c.t.Fatal("timers fired 1000 times in a row without causing a message: the cluster never quiesces")
			}
			if c.onDrain != nil {
				c.onDrain()
			}
			t := c.timers[0]
			c.timers = c.timers[1:]
			if !c.crashed[t.node] {
				c.apply(t.node, c.engines[t.node].HandleTimer(t.token))
			}
			continue
		}
		idleTimers = 0
		steps++
		if steps > 5_000_000 {
			c.t.Fatal("cluster did not quiesce within 5M steps")
		}
		c.stepOnce()
	}
}

// stepOnce processes one scheduled proposal or message delivery (shared
// by run and runSteps so the two schedulers cannot drift).
func (c *testCluster) stepOnce() {
	if c.releaseWhen != nil && c.releaseWhen(c) {
		c.queue = append(c.queue, c.deferred...)
		c.deferred = nil
		c.releaseWhen = nil
		c.deferFn = nil
	}
	// Mix proposals and deliveries randomly.
	if len(c.propose) > 0 && (len(c.queue) == 0 || c.rng.Intn(4) == 0) {
		c.proposeNext()
		return
	}
	i := c.rng.Intn(len(c.queue))
	m := c.queue[i]
	c.queue[i] = c.queue[len(c.queue)-1]
	c.queue = c.queue[:len(c.queue)-1]
	if c.crashed[m.to] || c.crashed[m.env.From] {
		return
	}
	if c.dropFn != nil && c.dropFn(m.env.From, m.to) {
		return
	}
	if c.deferFn != nil && c.deferFn(m.env, m.to) {
		c.deferred = append(c.deferred, m)
		return
	}
	c.apply(m.to, c.engines[m.to].Handle(m.env))
}

// runSteps processes at most k scheduled message deliveries (timers do
// not fire), leaving the cluster genuinely mid-flight: in-progress BA
// rounds, undrained queues. The crash-restart vote tests use it to crash
// a node mid-round.
func (c *testCluster) runSteps(k int) {
	for steps := 0; steps < k && (len(c.queue) > 0 || len(c.propose) > 0); steps++ {
		c.stepOnce()
	}
}

// sequences returns each node's delivered (epoch, proposer) sequence.
func (c *testCluster) checkTotalOrder() {
	c.t.Helper()
	var ref []DeliverAction
	refNode := -1
	for i := range c.engines {
		if c.crashed[i] {
			continue
		}
		if refNode == -1 {
			refNode, ref = i, c.delivered[i]
			continue
		}
		got := c.delivered[i]
		if len(got) != len(ref) {
			c.t.Fatalf("node %d delivered %d blocks, node %d delivered %d",
				i, len(got), refNode, len(ref))
		}
		for k := range ref {
			if got[k].Epoch != ref[k].Epoch || got[k].Proposer != ref[k].Proposer {
				c.t.Fatalf("delivery order diverges at %d: node %d has (%d,%d), node %d has (%d,%d)",
					k, i, got[k].Epoch, got[k].Proposer, refNode, ref[k].Epoch, ref[k].Proposer)
			}
			if len(got[k].Txs) != len(ref[k].Txs) {
				c.t.Fatalf("block content diverges at %d", k)
			}
			for x := range ref[k].Txs {
				if !bytes.Equal(got[k].Txs[x], ref[k].Txs[x]) {
					c.t.Fatalf("tx content diverges at block %d tx %d", k, x)
				}
			}
		}
	}
}

// deliveredKeys returns the set of delivered (epoch, proposer) pairs at a node.
func (c *testCluster) deliveredKeys(node int) map[blockKey]bool {
	keys := map[blockKey]bool{}
	for _, d := range c.delivered[node] {
		keys[blockKey{d.Epoch, d.Proposer}] = true
	}
	return keys
}

func TestDLHappyPath(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, seed, 4)
		c.start()
		c.run()
		c.checkTotalOrder()
		// With linking, every block of epochs 1..3 must be delivered at
		// every node by the end of epoch 4 (validity).
		keys := c.deliveredKeys(0)
		for e := uint64(1); e <= 3; e++ {
			for j := 0; j < 4; j++ {
				if !keys[blockKey{e, j}] {
					t.Fatalf("seed %d: block (%d,%d) not delivered", seed, e, j)
				}
			}
		}
		// Each epoch must commit at least N-f blocks directly via BA.
		for e := uint64(1); e <= 3; e++ {
			if len(c.decided[0][e]) < 3 {
				t.Fatalf("epoch %d committed only %d blocks", e, len(c.decided[0][e]))
			}
		}
	}
}

func TestDLAgreementOnSets(t *testing.T) {
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, 7, 4)
	c.start()
	c.run()
	// All nodes must agree on the committed set S of every epoch.
	for e := uint64(1); e <= 4; e++ {
		ref := c.decided[0][e]
		for i := 1; i < 4; i++ {
			got := c.decided[i][e]
			if len(got) != len(ref) {
				t.Fatalf("epoch %d: node %d S=%v, node 0 S=%v", e, i, got, ref)
			}
			for k := range ref {
				if got[k] != ref[k] {
					t.Fatalf("epoch %d: committed sets differ", e)
				}
			}
		}
	}
}

func TestDLWithCrashedNode(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, seed, 4)
		c.crashed[3] = true
		c.start()
		c.run()
		c.checkTotalOrder()
		keys := c.deliveredKeys(0)
		for e := uint64(1); e <= 3; e++ {
			for j := 0; j < 3; j++ {
				if !keys[blockKey{e, j}] {
					t.Fatalf("seed %d: correct block (%d,%d) not delivered despite crash", seed, e, j)
				}
			}
			if keys[blockKey{e, 3}] {
				t.Fatalf("delivered a block from the crashed node in epoch %d", e)
			}
		}
	}
}

func TestHBHappyPath(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeHB}, seed, 3)
		c.start()
		c.run()
		c.checkTotalOrder()
		// HB has no linking; per epoch at least N-f blocks commit. Across
		// 3 epochs each node delivers the same >= 9 blocks.
		if len(c.delivered[0]) < 9 {
			t.Fatalf("HB delivered only %d blocks", len(c.delivered[0]))
		}
	}
}

func TestHBLinkDeliversEverything(t *testing.T) {
	// Linking can only pick up a dropped epoch-e block in an epoch > e,
	// so run one epoch beyond the asserted range: blocks of epochs 1..3
	// must all be delivered by the end of epoch 4.
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeHBLink}, 3, 4)
	c.start()
	c.run()
	c.checkTotalOrder()
	keys := c.deliveredKeys(0)
	for e := uint64(1); e <= 3; e++ {
		for j := 0; j < 4; j++ {
			if !keys[blockKey{e, j}] {
				t.Fatalf("HB-Link: block (%d,%d) not delivered", e, j)
			}
		}
	}
}

func TestDLCoupledRuns(t *testing.T) {
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDLCoupled}, 11, 3)
	c.start()
	c.run()
	c.checkTotalOrder()
	if len(c.delivered[0]) != 12 {
		t.Fatalf("DL-Coupled delivered %d blocks, want 12", len(c.delivered[0]))
	}
}

func TestValidityAllTxsDelivered(t *testing.T) {
	// Every transaction handed to a correct node's proposals must appear
	// exactly once in every node's delivered log (DL guarantees this via
	// linking; exactly-once via the Delivered bookkeeping).
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, 13, 5)
	c.start()
	c.run()
	for node := 0; node < 4; node++ {
		seen := map[string]int{}
		for _, d := range c.delivered[node] {
			for _, tx := range d.Txs {
				seen[string(tx)]++
			}
		}
		for j := 0; j < 4; j++ {
			// Proposals 1..4 must be delivered exactly once; the final
			// (5th) epoch's blocks may legitimately still be pending.
			for s := 1; s <= 4; s++ {
				tx := fmt.Sprintf("tx-%d-%d", j, s)
				if seen[tx] != 1 {
					t.Fatalf("node %d saw tx %q %d times, want exactly 1", node, tx, seen[tx])
				}
			}
			if n := seen[fmt.Sprintf("tx-%d-5", j)]; n > 1 {
				t.Fatalf("node %d saw a 5th-epoch tx %d times", node, n)
			}
		}
	}
}

func TestHBResubmitsDroppedBlocks(t *testing.T) {
	// Force drops: node 3's dispersal traffic is heavily delayed by
	// dropping its chunks to half the cluster; in some epoch its BA should
	// output 0 and HB must emit a ResubmitAction. This is scheduling
	// dependent, so we run several seeds and require at least one hit.
	hits := 0
	for seed := int64(0); seed < 12 && hits == 0; seed++ {
		c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeHB}, seed, 3)
		c.dropFn = func(from, to int) bool {
			return from == 3 && to != 3 // node 3's messages never arrive
		}
		c.start()
		c.run()
		hits += len(c.resubmits[3])
	}
	if hits == 0 {
		t.Fatal("HB never resubmitted a dropped block across 12 seeds")
	}
}

// TestHBLateProposalIntoDecidedEpochIsEmpty pins the late-proposal
// case: the epoch decides (self ∉ S, our BA at 0) before node 3 proposes
// into it. HB has no linking, so a block there can never commit: the
// engine requires it empty and refuses transactions for it, which stay
// with the caller instead of riding a dead slot.
func TestHBLateProposalIntoDecidedEpochIsEmpty(t *testing.T) {
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeHB}, 1, 1)
	c.proposed[3] = c.maxEpochs // node 3 holds back its proposal
	c.start()
	c.run()
	S, ok := c.decided[3][1]
	if !ok || len(S) != 3 {
		t.Fatalf("node 3: epoch 1 decided=%v S=%v, want S={0,1,2}", ok, S)
	}
	if due, empty := c.engines[3].ProposalDue(); !due || !empty {
		t.Fatalf("node 3: proposal due %v, empty %v; want an empty one due", due, empty)
	}
	if _, err := c.engines[3].Propose([][]byte{[]byte("late")}); err == nil {
		t.Fatal("Propose accepted transactions for a decided HB epoch")
	}
	acts, err := c.engines[3].Propose(nil)
	if err != nil {
		t.Fatal(err)
	}
	c.apply(3, acts)
	if c.engines[3].DispersalEpoch() != 1 || len(c.resubmits[3]) != 0 {
		t.Fatalf("node 3 proposed through %d, resubmitted %q; want epoch 1, nothing", c.engines[3].DispersalEpoch(), c.resubmits[3])
	}
}

func TestDLNeverResubmits(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, seed, 3)
		c.dropFn = func(from, to int) bool { return from == 3 && to != 3 }
		c.start()
		c.run()
		for i := range c.engines {
			if len(c.resubmits[i]) != 0 {
				t.Fatal("DL emitted a ResubmitAction; linking should make that impossible")
			}
		}
	}
}

func TestCensoredNodeStillDeliveredByLinking(t *testing.T) {
	// The censorship attack of §4.3: the adversary delays node 0's chunk
	// messages for epochs 1 and 2 so that the corresponding BAs output 0.
	// The chunks are released once the cluster reaches epoch 3; inter-node
	// linking must then deliver the censored blocks at every node, in the
	// same position of every log.
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, 17, 5)
	c.deferFn = func(env wire.Envelope, to int) bool {
		_, isChunk := env.Payload.(wire.Chunk)
		return isChunk && env.From == 0 && env.Epoch <= 2 && to != 0 && to != 1
	}
	c.releaseWhen = func(c *testCluster) bool {
		return c.engines[1].DispersalEpoch() >= 3
	}
	c.start()
	c.run()
	c.checkTotalOrder()
	keys := c.deliveredKeys(1)
	for e := uint64(1); e <= 2; e++ {
		if !keys[blockKey{e, 0}] {
			t.Fatalf("censored node's block (%d,0) was never delivered", e)
		}
	}
	// And the censorship must have actually happened: epoch 1's committed
	// set should not contain node 0.
	for _, j := range c.decided[1][1] {
		if j == 0 {
			t.Skip("scheduling did not censor node 0 in epoch 1; harmless but unexpected")
		}
	}
}

func TestByzantineBadUploader(t *testing.T) {
	// Node 3 disperses inconsistent chunks (valid Merkle commitments over
	// garbage). The cluster must still agree, deliver identical logs, and
	// deliver nothing from node 3.
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("core test secret")}
	c := newTestCluster(t, cfg, 19, 3)
	c.crashed[3] = true // engine 3 is replaced by a manual adversary
	c.start()

	// Byzantine dispersal for epochs 1..3: individually proof-valid,
	// jointly inconsistent chunks.
	params, _ := avid.NewParams(4, 1)
	rng := rand.New(rand.NewSource(5))
	for epoch := uint64(1); epoch <= 3; epoch++ {
		shards := make([][]byte, 4)
		for i := range shards {
			shards[i] = make([]byte, 64)
			rng.Read(shards[i])
		}
		chunks := byzChunks(t, params, shards)
		for to := 0; to < 3; to++ {
			c.queue = append(c.queue, routed{to: to, env: wire.Envelope{
				From: 3, Epoch: epoch, Proposer: 3, Payload: chunks[to],
			}})
		}
	}
	// The crashed filter would drop node 3's injected traffic; lift it for
	// sender 3 by clearing crashed and instead never delivering TO node 3.
	delete(c.crashed, 3)
	c.dropFn = func(from, to int) bool { return to == 3 }
	c.proposed[3] = 99 // node 3 never proposes honestly
	c.run()

	// Check agreement across nodes 0..2 only.
	c.crashed[3] = true
	c.checkTotalOrder()
	for _, d := range c.delivered[0] {
		if d.Proposer == 3 {
			t.Fatal("delivered transactions from a BAD_UPLOADER block")
		}
	}
}

// byzChunks builds chunk messages that are individually proof-valid under
// one Merkle root but are not a consistent erasure encoding.
func byzChunks(t *testing.T, p avid.Params, shards [][]byte) []wire.Chunk {
	t.Helper()
	tree := merkle.NewTree(shards)
	chunks := make([]wire.Chunk, p.N)
	for i := 0; i < p.N; i++ {
		proof, err := tree.Prove(i)
		if err != nil {
			t.Fatal(err)
		}
		chunks[i] = wire.Chunk{Root: tree.Root(), Data: shards[i], Proof: proof}
	}
	return chunks
}

func TestByzantineLyingVArray(t *testing.T) {
	// Node 3 proposes valid blocks whose V array claims everyone completed
	// epoch 999. E[j] takes the (f+1)-th largest observation, so a single
	// liar must not trigger retrieval of nonexistent blocks (which would
	// stall delivery forever).
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("core test secret")}
	c := newTestCluster(t, cfg, 23, 3)
	c.crashed[3] = true
	c.start()

	params, _ := avid.NewParams(4, 1)
	for epoch := uint64(1); epoch <= 3; epoch++ {
		blk := &wire.Block{
			Proposer: 3, Epoch: epoch,
			V:   []uint64{999, 999, 999, 999},
			Txs: [][]byte{[]byte(fmt.Sprintf("evil-%d", epoch))},
		}
		chunks, _, err := avid.Disperse(params, blk.Encode())
		if err != nil {
			t.Fatal(err)
		}
		for to := 0; to < 3; to++ {
			c.queue = append(c.queue, routed{to: to, env: wire.Envelope{
				From: 3, Epoch: epoch, Proposer: 3, Payload: chunks[to],
			}})
		}
	}
	delete(c.crashed, 3)
	c.dropFn = func(from, to int) bool { return to == 3 }
	c.proposed[3] = 99
	c.run()

	c.crashed[3] = true
	c.checkTotalOrder()
	// All three correct nodes must have delivered epochs 1..3 fully
	// (a stall would leave delivered logs short).
	for i := 0; i < 3; i++ {
		if got := c.engines[i].DeliveredEpoch(); got < 3 {
			t.Fatalf("node %d delivery stalled at epoch %d", i, got)
		}
	}
}

// TestProposeFailsWhenNotDue: a fresh engine may propose epoch 1 at
// once, but not epoch 2 before epoch 1 decides.
func TestProposeFailsWhenNotDue(t *testing.T) {
	eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if due, empty := eng.ProposalDue(); !due || empty {
		t.Fatalf("fresh engine: proposal due %v, empty %v; want due, not empty", due, empty)
	}
	if _, err := eng.Propose([][]byte{[]byte("tx")}); err != nil {
		t.Fatal(err)
	}
	if due, _ := eng.ProposalDue(); due {
		t.Fatal("epoch 2 is due before epoch 1 decided")
	}
	if _, err := eng.Propose(nil); err == nil {
		t.Fatal("Propose into epoch 2 before epoch 1 decided should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{N: 3, F: 1}, 0); err == nil {
		t.Fatal("N=3,F=1 should fail")
	}
	if _, err := NewEngine(Config{N: 4, F: 1}, 4); err == nil {
		t.Fatal("self out of range should fail")
	}
	if _, err := NewEngine(Config{N: 4, F: 1}, -1); err == nil {
		t.Fatal("negative self should fail")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeDL: "DL", ModeDLCoupled: "DL-Coupled", ModeHB: "HB", ModeHBLink: "HB-Link",
	} {
		if m.String() != want {
			t.Fatalf("Mode.String() = %q, want %q", m.String(), want)
		}
	}
}

func TestLargerClusterDL(t *testing.T) {
	if testing.Short() {
		t.Skip("large cluster test skipped in -short")
	}
	c := newTestCluster(t, Config{N: 7, F: 2, Mode: ModeDL}, 29, 2)
	c.start()
	c.run()
	c.checkTotalOrder()
	keys := c.deliveredKeys(0)
	for e := uint64(1); e <= 2; e++ {
		for j := 0; j < 7; j++ {
			if !keys[blockKey{e, j}] {
				t.Fatalf("block (%d,%d) missing in 7-node run", e, j)
			}
		}
	}
}
