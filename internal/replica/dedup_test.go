package replica

import (
	"fmt"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/mempool"
	"dledger/internal/store"
	"dledger/internal/wire"
	"dledger/internal/workload"
)

// newDurableDedupCluster builds a fakeNet cluster where every replica
// persists to a MemStore with content-hash dedup enabled.
func newDurableDedupCluster(t *testing.T, params Params) (*fakeNet, []*store.MemStore) {
	t.Helper()
	cfg := core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("dedup test")}
	net := &fakeNet{}
	stores := make([]*store.MemStore, cfg.N)
	for i := 0; i < cfg.N; i++ {
		stores[i] = store.NewMem()
		r, err := New(cfg, i, params, stores[i], &fakeCtx{net: net, self: i})
		if err != nil {
			t.Fatal(err)
		}
		net.replicas = append(net.replicas, r)
	}
	return net, stores
}

// TestDedupSurvivesRestartViaWAL: a committed transaction's hash is
// recovered from the WAL, so the restarted node rejects a resubmission
// as already committed and reports the block among RecoveredBlocks.
func TestDedupSurvivesRestartViaWAL(t *testing.T) {
	// Checkpointing off: this test pins the WAL replay path (the
	// checkpoint path has its own test below).
	params := Params{ClientDedup: true, BatchDelay: 10 * time.Millisecond, CheckpointEvery: -1}
	net, stores := newDurableDedupCluster(t, params)
	for _, r := range net.replicas {
		r.Start()
	}
	tx := workload.Make(0, 1, 0, 120)
	if err := net.replicas[0].SubmitFrom(42, tx); err != nil {
		t.Fatal(err)
	}
	net.run(2 * time.Second)
	if net.replicas[0].Stats.DeliveredTxs < 1 {
		t.Fatal("tx never delivered")
	}

	// Restart node 0 from its surviving store.
	cfg := core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("dedup test")}
	r2, err := New(cfg, 0, params, stores[0].Reopen(), &fakeCtx{net: net, self: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.SubmitFrom(42, tx); err != mempool.ErrDuplicateCommitted {
		t.Fatalf("resubmission after restart: %v, want ErrDuplicateCommitted", err)
	}
	found := false
	for _, rb := range r2.RecoveredBlocks() {
		for _, h := range rb.TxHashes {
			if h == mempool.HashTx(tx) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("recovered blocks do not carry the committed tx hash")
	}
}

// TestDedupSurvivesCheckpointCompaction: after a checkpoint compacts
// the WAL records of old deliveries away, their hashes must still be
// refused — they ride the checkpoint's committed-hash section.
func TestDedupSurvivesCheckpointCompaction(t *testing.T) {
	params := Params{ClientDedup: true, BatchDelay: 10 * time.Millisecond, CheckpointEvery: 2}
	net, stores := newDurableDedupCluster(t, params)
	for _, r := range net.replicas {
		r.Start()
	}
	first := workload.Make(0, 1, 0, 120)
	if err := net.replicas[0].SubmitFrom(7, first); err != nil {
		t.Fatal(err)
	}
	net.run(time.Second)
	// Push the cluster through enough epochs that multiple checkpoints
	// subsume (and compact away) the first delivery's WAL records.
	for k := 2; k < 30; k++ {
		net.replicas[0].SubmitFrom(7, workload.Make(0, uint32(k), net.now, 120))
		net.run(net.now + 150*time.Millisecond)
	}
	if net.replicas[0].Stats.EpochsDelivered < 6 {
		t.Fatalf("only %d epochs delivered; checkpoints never cycled", net.replicas[0].Stats.EpochsDelivered)
	}

	cfg := core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("dedup test")}
	r2, err := New(cfg, 0, params, stores[0].Reopen(), &fakeCtx{net: net, self: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.SubmitFrom(7, first); err != mempool.ErrDuplicateCommitted {
		t.Fatalf("resubmission after checkpointed restart: %v, want ErrDuplicateCommitted", err)
	}
}

// soloCtx drops every outbound message: the replica proposes into the
// void, so its proposal stays in flight forever.
type soloCtx struct{ net *fakeNet }

func (c *soloCtx) Now() time.Duration { return c.net.now }
func (c *soloCtx) Send(int, wire.Envelope, wire.Priority, uint64) {
}
func (c *soloCtx) After(d time.Duration, fn func()) { c.net.schedule(c.net.now+d, fn) }

// TestInFlightProposalMarkedPending: a proposal written to the WAL but
// not yet delivered at crash time will be re-dispersed; its transactions
// must be refused as pending (not silently requeued) or they would
// commit twice.
func TestInFlightProposalMarkedPending(t *testing.T) {
	params := Params{ClientDedup: true, BatchDelay: 10 * time.Millisecond}
	cfg := core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("dedup test")}
	st := store.NewMem()
	net := &fakeNet{}
	r, err := New(cfg, 0, params, st, &soloCtx{net: net})
	if err != nil {
		t.Fatal(err)
	}
	// Submit before Start so the immediate first proposal carries the
	// transaction; a lone replica proposes (persisting RecProposed) but
	// can never decide — the proposal stays in flight forever.
	tx := workload.Make(0, 1, 0, 120)
	if err := r.SubmitFrom(3, tx); err != nil {
		t.Fatal(err)
	}
	r.Start()
	net.run(time.Second)

	r2, err := New(cfg, 0, params, st.Reopen(), &fakeCtx{net: net, self: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.SubmitFrom(3, tx); err != mempool.ErrDuplicatePending {
		t.Fatalf("resubmission of in-flight tx: %v, want ErrDuplicatePending", err)
	}
}

// TestRejectionCounters: admission rejections are visible in Stats.
func TestRejectionCounters(t *testing.T) {
	net := newFakeCluster(t, core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Params{ClientDedup: true, MempoolBytes: 300})
	r := net.replicas[0]
	if err := r.SubmitFrom(1, make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if err := r.SubmitFrom(1, make([]byte, 200)); err != mempool.ErrDuplicatePending {
		t.Fatalf("dup: %v", err)
	}
	if err := r.SubmitFrom(2, []byte(fmt.Sprintf("%200d", 1))); err != mempool.ErrOverCapacity {
		t.Fatalf("budget: %v", err)
	}
	if r.Stats.RejectedSubmissions != 2 || r.Stats.Submitted != 1 {
		t.Fatalf("rejected=%d submitted=%d", r.Stats.RejectedSubmissions, r.Stats.Submitted)
	}
}
