package dlclient

import (
	"bytes"
	"net"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/gateway"
	"dledger/internal/mempool"
	"dledger/internal/replica"
	"dledger/internal/wire"
)

// The tests run the client against a real gateway.Server backed by a
// standalone replica: admission is real, consensus is simulated by
// feeding deliveries straight into the hub.

type stubCtx struct{}

func (stubCtx) Now() time.Duration                             { return 0 }
func (stubCtx) Send(int, wire.Envelope, wire.Priority, uint64) {}
func (stubCtx) After(time.Duration, func())                    {}

type stubNode struct{ r *replica.Replica }

func (s stubNode) Exec(fn func(*replica.Replica)) { fn(s.r) }

func newHub(t *testing.T, params replica.Params) *gateway.Hub {
	t.Helper()
	r, err := replica.New(core.Config{N: 4, F: 1}, 0, params, nil, stubCtx{})
	if err != nil {
		t.Fatal(err)
	}
	return gateway.NewHub(stubNode{r}, gateway.Options{N: 4, F: 1})
}

func deliver(hub *gateway.Hub, epoch uint64, txs ...[]byte) {
	d := replica.Delivery{Epoch: epoch, Proposer: 1, Txs: txs}
	for _, tx := range txs {
		d.TxHashes = append(d.TxHashes, mempool.HashTx(tx))
	}
	hub.OnDeliver(d)
}

func TestSubmitReceiptAndCommitStream(t *testing.T) {
	hub := newHub(t, replica.Params{ClientDedup: true})
	srv, err := gateway.Serve(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr(), Options{Name: "unit-client"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if info := cl.Info(); info.N != 4 || info.F != 1 {
		t.Fatalf("info = %+v", info)
	}

	tx := []byte("first transaction")
	rc, err := cl.Submit(tx)
	if err != nil || rc.Status != StatusAccepted {
		t.Fatalf("submit: %+v %v", rc, err)
	}
	if cl.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", cl.Outstanding())
	}

	deliver(hub, 1, []byte("other"), tx)
	select {
	case cm := <-cl.Commits():
		if !cm.Verify(tx) || cm.Epoch != 1 || cm.Index != 1 {
			t.Fatalf("commit = %+v", cm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no commit streamed")
	}
	if cl.Outstanding() != 0 || cl.VerifyFailures() != 0 {
		t.Fatalf("outstanding=%d verifyFailures=%d", cl.Outstanding(), cl.VerifyFailures())
	}

	// Idempotent resubmission: duplicate-committed, proof re-streamed,
	// SubmitAndWait resolves from it.
	cm, err := cl.SubmitAndWait(tx, 5*time.Second)
	if err != nil || !cm.Verify(tx) {
		t.Fatalf("resubmit: %+v %v", cm, err)
	}
}

// TestReconnectResubmitsOutstanding breaks the connection under an
// accepted-but-uncommitted transaction: the client must reconnect,
// resubmit it (idempotently), and still receive the commit.
func TestReconnectResubmitsOutstanding(t *testing.T) {
	hub := newHub(t, replica.Params{ClientDedup: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := gateway.NewServer(hub, ln)

	cl, err := Dial(addr, Options{Name: "reconnector"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tx := []byte("survives the reconnect")
	if rc, err := cl.Submit(tx); err != nil || rc.Status != StatusAccepted {
		t.Fatalf("submit: %+v %v", rc, err)
	}

	// Kill the server (dropping the connection), then resurrect it on
	// the same address with the same hub.
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	var srv2 *gateway.Server
	for {
		ln2, err := net.Listen("tcp", addr)
		if err == nil {
			srv2 = gateway.NewServer(hub, ln2)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer srv2.Close()

	// The client reconnects and resubmits; the duplicate receipt keeps
	// it tracked. Wait for the resubmission to land in the hub.
	waitDeadline := time.Now().Add(10 * time.Second)
	for hub.Counters().RejectedDuplicate == 0 && hub.Counters().Accepted < 2 {
		if time.Now().After(waitDeadline) {
			t.Fatal("client never resubmitted after reconnect")
		}
		time.Sleep(20 * time.Millisecond)
	}

	deliver(hub, 3, tx)
	select {
	case cm := <-cl.Commits():
		if !cm.Verify(tx) || cm.Epoch != 3 {
			t.Fatalf("commit = %+v", cm)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no commit after reconnect")
	}
	if cl.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", cl.Outstanding())
	}
}

// TestReceiptFields checks rejection plumbing end to end: retry-after
// hints and status causes cross the wire intact.
func TestReceiptFields(t *testing.T) {
	hub := newHub(t, replica.Params{ClientDedup: true, MempoolBytes: 64})
	srv, err := gateway.Serve(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), Options{Name: "rejects", NoSubscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if rc, _ := cl.Submit(bytes.Repeat([]byte{1}, 60)); rc.Status != StatusAccepted {
		t.Fatalf("fill: %v", rc.Status)
	}
	rc, err := cl.Submit(bytes.Repeat([]byte{2}, 60))
	if err != nil || rc.Status != StatusOverCapacity || rc.RetryAfter <= 0 {
		t.Fatalf("overflow receipt: %+v %v", rc, err)
	}
	// Over-capacity submissions are not tracked for resubmission.
	if cl.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", cl.Outstanding())
	}
}
