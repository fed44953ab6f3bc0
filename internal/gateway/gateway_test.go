package gateway

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/mempool"
	"dledger/internal/replica"
	"dledger/internal/wire"
)

// stubCtx is a replica context that goes nowhere: hub unit tests only
// exercise admission and proof logic, not consensus.
type stubCtx struct{}

func (stubCtx) Now() time.Duration                             { return 0 }
func (stubCtx) Send(int, wire.Envelope, wire.Priority, uint64) {}
func (stubCtx) After(time.Duration, func())                    {}

// stubNode satisfies gateway.Node with a standalone replica.
type stubNode struct{ r *replica.Replica }

func (s stubNode) Exec(fn func(*replica.Replica)) { fn(s.r) }

func newStub(t *testing.T, params replica.Params) stubNode {
	t.Helper()
	r, err := replica.New(core.Config{N: 4, F: 1}, 0, params, nil, stubCtx{})
	if err != nil {
		t.Fatal(err)
	}
	return stubNode{r}
}

func delivery(epoch uint64, proposer int, txs ...[]byte) replica.Delivery {
	d := replica.Delivery{Epoch: epoch, Proposer: proposer, Txs: txs}
	for _, tx := range txs {
		d.TxHashes = append(d.TxHashes, mempool.HashTx(tx))
	}
	return d
}

func TestHubSubmitReceiptAndCommit(t *testing.T) {
	node := newStub(t, replica.Params{ClientDedup: true})
	hub := NewHub(node, Options{N: 4, F: 1})
	sub := hub.Subscribe(7, 16)

	tx := []byte("hello gateway tx")
	rc := hub.Submit(7, 1, tx)
	if rc.Status != StatusAccepted {
		t.Fatalf("status = %v, want accepted", rc.Status)
	}
	if rc.TxHash != mempool.HashTx(tx) {
		t.Fatal("receipt hash mismatch")
	}

	// The block commits with the tx in slot 1 among three.
	other1, other2 := []byte("other tx A"), []byte("other tx B")
	node.r.Submit(other1) // reach the pool so hashes match reality
	hub.OnDeliver(delivery(3, 2, other1, tx, other2))

	select {
	case c := <-sub.C:
		if c.Epoch != 3 || c.Proposer != 2 || c.Index != 1 || c.Count != 3 {
			t.Fatalf("commit = %+v", c)
		}
		if !c.Verify(tx) {
			t.Fatal("proof did not verify")
		}
		if c.Verify(other1) {
			t.Fatal("proof verified the wrong tx")
		}
	default:
		t.Fatal("no commit streamed")
	}

	ctr := hub.Counters()
	if ctr.Accepted != 1 || ctr.Commits != 3 || ctr.CommitsStreamed != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestHubDuplicateAndResubmission(t *testing.T) {
	node := newStub(t, replica.Params{ClientDedup: true})
	hub := NewHub(node, Options{N: 4, F: 1})
	sub := hub.Subscribe(9, 16)

	tx := []byte("retry me")
	if rc := hub.Submit(9, 1, tx); rc.Status != StatusAccepted {
		t.Fatalf("first submit: %v", rc.Status)
	}
	// A retry while pending is deduplicated, not queued twice.
	if rc := hub.Submit(9, 2, tx); rc.Status != StatusDuplicatePending {
		t.Fatalf("second submit: %v", rc.Status)
	}
	if got := node.r.PendingBytes(); got != len(tx) {
		t.Fatalf("pending bytes = %d, want one copy (%d)", got, len(tx))
	}

	hub.OnDeliver(delivery(1, 0, tx))
	<-sub.C // original commit

	// Resubmission after commitment: duplicate-committed receipt AND the
	// proof re-streamed, so a crashed client can re-learn its commit.
	rc := hub.Submit(9, 3, tx)
	if rc.Status != StatusDuplicateCommitted {
		t.Fatalf("resubmit: %v", rc.Status)
	}
	select {
	case c := <-sub.C:
		if !c.Verify(tx) {
			t.Fatal("re-streamed proof did not verify")
		}
	default:
		t.Fatal("no proof re-streamed on duplicate-committed")
	}
	if ctr := hub.Counters(); ctr.RejectedDuplicate != 2 {
		t.Fatalf("RejectedDuplicate = %d, want 2", ctr.RejectedDuplicate)
	}
}

func TestHubOverCapacity(t *testing.T) {
	node := newStub(t, replica.Params{ClientDedup: true, MempoolBytes: 64})
	hub := NewHub(node, Options{N: 4, F: 1, RetryAfter: 123 * time.Millisecond})

	if rc := hub.Submit(5, 1, bytes.Repeat([]byte{1}, 60)); rc.Status != StatusAccepted {
		t.Fatalf("fill: %v", rc.Status)
	}
	rc := hub.Submit(5, 2, bytes.Repeat([]byte{2}, 60))
	if rc.Status != StatusOverCapacity {
		t.Fatalf("overflow: %v", rc.Status)
	}
	if rc.RetryAfter != 123*time.Millisecond {
		t.Fatalf("retry hint = %v", rc.RetryAfter)
	}
	// The mempool never grew past its budget.
	if got := node.r.PendingBytes(); got > 64 {
		t.Fatalf("pending bytes %d exceed budget", got)
	}
	if ctr := hub.Counters(); ctr.RejectedOverCapacity != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestHubOversizeAndInvalid(t *testing.T) {
	node := newStub(t, replica.Params{ClientDedup: true})
	hub := NewHub(node, Options{N: 4, F: 1})
	if rc := hub.Submit(1, 1, bytes.Repeat([]byte{1}, maxTxBytes+1)); rc.Status != StatusOversize {
		t.Fatalf("oversize: %v", rc.Status)
	}
	if rc := hub.Submit(1, 2, nil); rc.Status != StatusInvalid {
		t.Fatalf("empty: %v", rc.Status)
	}
}

func TestHubSeedRecoversProofs(t *testing.T) {
	node := newStub(t, replica.Params{ClientDedup: true})
	hub := NewHub(node, Options{N: 4, F: 1})
	tx := []byte("pre-crash commit")
	hub.Seed([]replica.RecoveredBlock{{
		Epoch: 9, Proposer: 1,
		TxHashes: []mempool.Hash{mempool.HashTx([]byte("a")), mempool.HashTx(tx)},
	}})
	sub := hub.Subscribe(4, 4)
	rc := hub.Submit(4, 1, tx)
	if rc.Status != StatusDuplicateCommitted {
		t.Fatalf("status = %v, want duplicate-committed from seeded index", rc.Status)
	}
	c := <-sub.C
	if c.Epoch != 9 || c.Index != 1 || !c.Verify(tx) {
		t.Fatalf("seeded commit = %+v", c)
	}
}

// TestHubProofEviction: one-transaction blocks each count as one
// against proofTxs, so the index keeps the newest proofTxs of them.
func TestHubProofEviction(t *testing.T) {
	node := newStub(t, replica.Params{ClientDedup: true})
	hub := NewHub(node, Options{N: 4, F: 1})
	tx := func(i int) []byte { return []byte(fmt.Sprintf("t%d", i)) }
	for i := 0; i <= proofTxs; i++ {
		hub.OnDeliver(delivery(uint64(i+1), 0, tx(i)))
	}
	hub.mu.Lock()
	held := len(hub.blocks)
	_, oldest := hub.index[mempool.HashTx(tx(0))]
	_, newest := hub.index[mempool.HashTx(tx(proofTxs))]
	hub.mu.Unlock()
	if held != proofTxs || oldest || !newest {
		t.Fatalf("eviction: held=%d oldest=%v newest=%v", held, oldest, newest)
	}
}

// TestHubProofIndexBoundsTransactions: 400 blocks of 1,000 transactions
// overflow proofTxs. Whole blocks go, oldest first, until the index
// holds at most the bound: a transaction of the newest block still
// re-streams its proof, one of the oldest does not.
func TestHubProofIndexBoundsTransactions(t *testing.T) {
	const blocks, perBlock = 400, 1000
	node := newStub(t, replica.Params{ClientDedup: true})
	hub := NewHub(node, Options{N: 4, F: 1})
	tx := func(b, i int) []byte { return []byte(fmt.Sprintf("b%d-t%d", b, i)) }
	for b := 0; b < blocks; b++ {
		d := replica.Delivery{Epoch: uint64(b + 1), Proposer: 2}
		for i := 0; i < perBlock; i++ {
			d.TxHashes = append(d.TxHashes, mempool.HashTx(tx(b, i)))
		}
		hub.OnDeliver(d)
	}
	hub.mu.Lock()
	indexed, held := len(hub.index), len(hub.blocks)
	hub.mu.Unlock()
	if want := proofTxs / perBlock; indexed > proofTxs || held != want || indexed != want*perBlock {
		t.Fatalf("index holds %d transactions in %d blocks; want %d blocks, at most %d transactions",
			indexed, held, want, proofTxs)
	}
	sub := hub.Subscribe(5, 4)
	newest := tx(blocks-1, 7)
	if rc := hub.Submit(5, 1, newest); rc.Status != StatusDuplicateCommitted {
		t.Fatalf("newest block's transaction: status %v, want duplicate-committed", rc.Status)
	}
	select {
	case c := <-sub.C:
		if c.Epoch != blocks || c.Index != 7 || c.Count != perBlock || !c.Verify(newest) {
			t.Fatalf("newest block's commit = %+v", c)
		}
	default:
		t.Fatal("newest block's proof did not stream")
	}
	if rc := hub.Submit(5, 2, tx(0, 7)); rc.Status == StatusDuplicateCommitted {
		t.Fatal("oldest block's transaction still reads duplicate-committed")
	}
	select {
	case c := <-sub.C:
		t.Fatalf("oldest block's proof streamed: %+v", c)
	default:
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	hello := Hello{Name: []byte("client-a"), Subscribe: true}
	m, err := DecodeMessage(EncodeHello(hello))
	if err != nil || m.Type != MTHello || !bytes.Equal(m.Hello.Name, hello.Name) || !m.Hello.Subscribe {
		t.Fatalf("hello round trip: %+v %v", m, err)
	}

	w := Welcome{ClientID: 0xdeadbeef, N: 31, F: 10, MaxTxBytes: 1 << 20}
	m, err = DecodeMessage(EncodeWelcome(w))
	if err != nil || *m.Welcome != w {
		t.Fatalf("welcome round trip: %+v %v", m, err)
	}

	s := Submit{ReqID: 42, Tx: []byte("payload")}
	m, err = DecodeMessage(EncodeSubmit(s))
	if err != nil || m.Submit.ReqID != 42 || !bytes.Equal(m.Submit.Tx, s.Tx) {
		t.Fatalf("submit round trip: %+v %v", m, err)
	}

	rc := Receipt{ReqID: 7, Status: StatusOverCapacity, RetryAfter: 250 * time.Millisecond,
		TxHash: mempool.HashTx([]byte("x"))}
	m, err = DecodeMessage(EncodeReceipt(rc))
	if err != nil || *m.Receipt != rc {
		t.Fatalf("receipt round trip: %+v %v", m, err)
	}

	// A commit with a real proof survives the wire and still verifies.
	tx := []byte("prove me")
	hashes := []mempool.Hash{mempool.HashTx([]byte("a")), mempool.HashTx(tx), mempool.HashTx([]byte("c"))}
	tree := txTree(hashes)
	proof, err := tree.Prove(1)
	if err != nil {
		t.Fatal(err)
	}
	c := Commit{TxHash: hashes[1], Epoch: 5, Proposer: 3, Index: 1, Count: 3,
		Root: tree.Root(), Path: proof.Path}
	m, err = DecodeMessage(EncodeCommit(c))
	if err != nil || !m.Commit.Verify(tx) {
		t.Fatalf("commit round trip: %+v %v", m, err)
	}

	p := Ping{Nonce: 99}
	if m, err = DecodeMessage(EncodePing(p)); err != nil || m.Ping.Nonce != 99 {
		t.Fatalf("ping round trip: %v", err)
	}
	if m, err = DecodeMessage(EncodePong(p)); err != nil || m.Type != MTPong {
		t.Fatalf("pong round trip: %v", err)
	}

	// Truncations and junk fail loudly rather than misparse.
	for _, frame := range [][]byte{{}, {0xFF}, EncodeSubmit(s)[:5], EncodeCommit(c)[:20]} {
		if _, err := DecodeMessage(frame); err == nil {
			t.Fatalf("malformed frame decoded: %x", frame)
		}
	}
}

func TestClientIDNeverLocal(t *testing.T) {
	if ClientID([]byte("any name")) == mempool.LocalClient {
		t.Fatal("client id collided with LocalClient")
	}
	if ClientID([]byte("a")) == ClientID([]byte("b")) {
		t.Fatal("distinct names mapped to one id")
	}
}

func TestHubRateLimit(t *testing.T) {
	node := newStub(t, replica.Params{ClientDedup: true})
	var now time.Duration
	hub := NewHub(node, Options{
		N: 4, F: 1,
		RatePerClient: 500, // a 2000-byte burst
		Now:           func() time.Duration { return now },
	})

	tx := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 500) }
	// The burst admits four 500-byte transactions, then the bucket is dry.
	for i := 0; i < 4; i++ {
		if rc := hub.Submit(9, uint64(i), tx(i)); rc.Status != StatusAccepted {
			t.Fatalf("submission %d: %v, want accepted", i, rc.Status)
		}
	}
	rc := hub.Submit(9, 5, tx(5))
	if rc.Status != StatusRateLimited {
		t.Fatalf("flood status = %v, want rate-limited", rc.Status)
	}
	if rc.RetryAfter <= 0 {
		t.Fatal("rate-limited receipt carries no retry-after hint")
	}
	// The limit is per client: a different client is unaffected.
	if rc := hub.Submit(10, 1, tx(6)); rc.Status != StatusAccepted {
		t.Fatalf("other client: %v, want accepted", rc.Status)
	}
	// Tokens refill with time: after the hinted wait the retry passes.
	now += rc.RetryAfter + time.Millisecond
	if rc := hub.Submit(9, 6, tx(5)); rc.Status != StatusAccepted {
		t.Fatalf("post-refill status = %v, want accepted", rc.Status)
	}
	c := hub.Counters()
	if c.RejectedRateLimited != 1 {
		t.Fatalf("RejectedRateLimited = %d, want 1", c.RejectedRateLimited)
	}
	if c.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", c.Rejected())
	}
}

func TestHubRateLimitProtectsBudget(t *testing.T) {
	// A flooder with a rate limit cannot exhaust the shared mempool
	// budget before the well-behaved client's submission arrives — the
	// regression the admission-time limit exists to prevent.
	node := newStub(t, replica.Params{ClientDedup: true, MempoolBytes: 4000})
	hub := NewHub(node, Options{N: 4, F: 1, RatePerClient: 250, // a 1000-byte burst
		Now: func() time.Duration { return 0 }})
	flooded, limited := 0, 0
	for i := 0; i < 20; i++ {
		rc := hub.Submit(1, uint64(i), bytes.Repeat([]byte{byte(i)}, 500))
		switch rc.Status {
		case StatusAccepted:
			flooded++
		case StatusRateLimited:
			limited++
		}
	}
	if flooded > 2 || limited == 0 {
		t.Fatalf("flooder got %d txs in (%d limited), want <= 2", flooded, limited)
	}
	// The honest client still has mempool room.
	if rc := hub.Submit(2, 1, bytes.Repeat([]byte{0xee}, 500)); rc.Status != StatusAccepted {
		t.Fatalf("honest client rejected: %v", rc.Status)
	}
}

func TestHubRateLimitAdmitsOversizeTxAsDebt(t *testing.T) {
	// A legal transaction larger than the whole burst must eventually be
	// admitted (as debt against future refill), not livelocked forever.
	node := newStub(t, replica.Params{ClientDedup: true})
	var now time.Duration
	hub := NewHub(node, Options{N: 4, F: 1,
		RatePerClient: 500, // a 2000-byte burst
		Now:           func() time.Duration { return now }})
	big := bytes.Repeat([]byte{1}, 5000) // 2.5x the burst
	rc := hub.Submit(3, 1, big)
	if rc.Status != StatusAccepted {
		t.Fatalf("full-bucket oversize submission: %v, want accepted", rc.Status)
	}
	// The debt throttles what follows: an immediate small submission is
	// limited, and the hinted wait is finite and honest.
	rc = hub.Submit(3, 2, bytes.Repeat([]byte{2}, 100))
	if rc.Status != StatusRateLimited || rc.RetryAfter <= 0 {
		t.Fatalf("post-debt submission: %v (retry %v), want rate-limited with a hint", rc.Status, rc.RetryAfter)
	}
	now += 8 * time.Second // debt (3000) + 100 repaid at 500 B/s, plus slack
	if rc := hub.Submit(3, 3, bytes.Repeat([]byte{2}, 100)); rc.Status != StatusAccepted {
		t.Fatalf("post-repayment submission: %v, want accepted", rc.Status)
	}
}

func TestHubRateLimitDoesNotBlockProofRecovery(t *testing.T) {
	// Resubmitting an already-committed transaction is how a client
	// recovers a lost commit proof; it must bypass (and not drain) the
	// admission rate limit.
	node := newStub(t, replica.Params{ClientDedup: true})
	hub := NewHub(node, Options{N: 4, F: 1,
		RatePerClient: 50, // a 200-byte burst
		Now:           func() time.Duration { return 0 }})
	tx := bytes.Repeat([]byte{7}, 200)
	sub := hub.Subscribe(4, 4)
	if rc := hub.Submit(4, 1, tx); rc.Status != StatusAccepted {
		t.Fatalf("first submission: %v", rc.Status)
	}
	hub.OnDeliver(delivery(3, 0, tx))
	// Bucket is now empty (200-byte burst consumed); the committed
	// resubmission must still answer duplicate-committed with a proof.
	rc := hub.Submit(4, 2, tx)
	if rc.Status != StatusDuplicateCommitted {
		t.Fatalf("committed resubmission: %v, want duplicate-committed", rc.Status)
	}
	gotProofs := 0
	for {
		select {
		case <-sub.C:
			gotProofs++
			continue
		default:
		}
		break
	}
	if gotProofs < 2 { // delivery push + re-streamed proof
		t.Fatalf("proof not re-streamed (got %d)", gotProofs)
	}
	// An uncommitted submission from the same dry bucket is still
	// limited — the bypass is for committed duplicates only.
	if rc := hub.Submit(4, 3, bytes.Repeat([]byte{8}, 200)); rc.Status != StatusRateLimited {
		t.Fatalf("fresh submission from dry bucket: %v, want rate-limited", rc.Status)
	}
}
