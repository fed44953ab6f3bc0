package mempool

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func TestPushPopFIFO(t *testing.T) {
	p := NewWithOptions(Options{})
	for i := 0; i < 5; i++ {
		p.PushFrom(1, []byte{byte(i)})
	}
	if p.Len() != 5 || p.PendingBytes() != 5 {
		t.Fatalf("len=%d bytes=%d", p.Len(), p.PendingBytes())
	}
	out := p.PopBatch(0)
	for i, tx := range out {
		if tx[0] != byte(i) {
			t.Fatal("FIFO order violated")
		}
	}
	if p.Len() != 0 || p.PendingBytes() != 0 {
		t.Fatal("pool not drained")
	}
}

func TestPopBatchRespectsMaxBytes(t *testing.T) {
	p := NewWithOptions(Options{})
	for i := 0; i < 10; i++ {
		p.PushFrom(1, make([]byte, 100))
	}
	out := p.PopBatch(350)
	if len(out) != 3 { // 300 <= 350, a fourth would exceed the cap
		t.Fatalf("popped %d txs, want 3", len(out))
	}
	if p.Len() != 7 {
		t.Fatalf("pool has %d left", p.Len())
	}
	if p.PendingBytes() != 700 {
		t.Fatalf("pending bytes %d", p.PendingBytes())
	}
	// An exact fit pops exactly.
	if out := p.PopBatch(200); len(out) != 2 {
		t.Fatalf("exact-fit pop returned %d txs, want 2", len(out))
	}
}

func TestPopBatchOversizedTx(t *testing.T) {
	p := NewWithOptions(Options{})
	p.PushFrom(1, make([]byte, 1000))
	out := p.PopBatch(10)
	if len(out) != 1 {
		t.Fatal("oversized tx must still pop to avoid wedging")
	}
}

func TestPopBatchEmpty(t *testing.T) {
	p := NewWithOptions(Options{})
	if out := p.PopBatch(100); out != nil {
		t.Fatal("empty pool should return nil")
	}
}

func TestPushFrontOrder(t *testing.T) {
	p := NewWithOptions(Options{})
	p.PushFrom(1, []byte("c"))
	p.PushFrom(1, []byte("d"))
	p.PushFrontAt([][]byte{[]byte("a"), []byte("b")}, 0)
	if p.PendingBytes() != 4 {
		t.Fatalf("bytes = %d", p.PendingBytes())
	}
	out := p.PopBatch(0)
	want := "abcd"
	var got bytes.Buffer
	for _, tx := range out {
		got.Write(tx)
	}
	if got.String() != want {
		t.Fatalf("order %q, want %q", got.String(), want)
	}
}

func TestPushFrontEmpty(t *testing.T) {
	p := NewWithOptions(Options{})
	p.PushFrom(1, []byte("x"))
	p.PushFrontAt(nil, 0)
	if p.Len() != 1 {
		t.Fatal("empty PushFront changed the pool")
	}
}

func TestFairDequeueRoundRobin(t *testing.T) {
	p := NewWithOptions(Options{})
	// Client 1 floods; clients 2 and 3 each submit one tx afterwards.
	for i := 0; i < 6; i++ {
		if err := p.PushFrom(1, []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	p.PushFrom(2, []byte("b0"))
	p.PushFrom(3, []byte("c0"))
	out := p.PopBatch(8) // four 2-byte txs
	var got bytes.Buffer
	for _, tx := range out {
		got.Write(tx)
	}
	// Round-robin: one from each active client per turn, in activation
	// order — the flooder cannot push the others out of the batch.
	if got.String() != "a0b0c0a1" {
		t.Fatalf("dequeue order %q, want a0b0c0a1", got.String())
	}
	// The cursor persists: the next batch resumes the rotation rather
	// than restarting at the flooder.
	out = p.PopBatch(0)
	got.Reset()
	for _, tx := range out {
		got.Write(tx)
	}
	if got.String() != "a2a3a4a5" {
		t.Fatalf("drain order %q, want a2a3a4a5", got.String())
	}
}

func TestDedupLifecycle(t *testing.T) {
	p := NewWithOptions(Options{Dedup: true})
	tx := []byte("the transaction")
	if err := p.PushFrom(1, tx); err != nil {
		t.Fatal(err)
	}
	// Queued: duplicate rejected, from any client.
	if err := p.PushFrom(2, bytes.Clone(tx)); err != ErrDuplicatePending {
		t.Fatalf("queued dup: %v", err)
	}
	// In flight (popped into a proposal): still pending.
	if got := p.PopBatch(0); len(got) != 1 {
		t.Fatal("pop failed")
	}
	if err := p.PushFrom(1, bytes.Clone(tx)); err != ErrDuplicatePending {
		t.Fatalf("in-flight dup: %v", err)
	}
	// Committed: rejected as committed, and stays so.
	p.Committed(HashTx(tx))
	for i := 0; i < 2; i++ {
		if err := p.PushFrom(1, bytes.Clone(tx)); err != ErrDuplicateCommitted {
			t.Fatalf("committed dup %d: %v", i, err)
		}
	}
	// Different content is unaffected.
	if err := p.PushFrom(1, []byte("another transaction")); err != nil {
		t.Fatalf("fresh tx rejected: %v", err)
	}
}

func TestCommittedMemoryEviction(t *testing.T) {
	p := NewWithOptions(Options{Dedup: true})
	tx := func(i int) []byte { return []byte(fmt.Sprintf("tx%d", i)) }
	for i := 0; i <= committedCap; i++ {
		p.Committed(HashTx(tx(i)))
	}
	// FIFO eviction: the oldest fell out, the newest committedCap remain.
	if err := p.PushFrom(1, tx(0)); err != nil {
		t.Fatalf("evicted hash still rejected: %v", err)
	}
	for _, i := range []int{1, committedCap / 2, committedCap} {
		if err := p.PushFrom(1, tx(i)); err != ErrDuplicateCommitted {
			t.Fatalf("hash %d: %v, want duplicate-committed", i, err)
		}
	}
	snap := p.CommittedSnapshot()
	if len(snap) != committedCap || snap[0] != HashTx(tx(1)) || snap[committedCap-1] != HashTx(tx(committedCap)) {
		t.Fatalf("snapshot order wrong: %d entries", len(snap))
	}
}

func TestByteBudget(t *testing.T) {
	p := NewWithOptions(Options{MaxBytes: 100})
	if err := p.PushFrom(1, make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if err := p.PushFrom(2, make([]byte, 60)); err != ErrOverCapacity {
		t.Fatalf("over budget: %v", err)
	}
	if err := p.PushFrom(2, make([]byte, 40)); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
	if p.PendingBytes() != 100 {
		t.Fatalf("bytes = %d", p.PendingBytes())
	}
	// Draining frees budget.
	p.PopBatch(0)
	if err := p.PushFrom(1, make([]byte, 100)); err != nil {
		t.Fatalf("freed budget rejected: %v", err)
	}
}

func TestMarkPending(t *testing.T) {
	p := NewWithOptions(Options{Dedup: true})
	tx := []byte("recovered in-flight tx")
	p.MarkPending(HashTx(tx))
	if err := p.PushFrom(1, tx); err != ErrDuplicatePending {
		t.Fatalf("marked-pending dup: %v", err)
	}
	if p.Len() != 0 {
		t.Fatal("MarkPending queued bytes")
	}
	p.Committed(HashTx(tx))
	if err := p.PushFrom(1, tx); err != ErrDuplicateCommitted {
		t.Fatalf("after commit: %v", err)
	}
}

func TestPopBatchSliceIsolation(t *testing.T) {
	// The popped batch must not share backing storage growth with the
	// pool (appending to it must not clobber remaining txs).
	p := NewWithOptions(Options{})
	for i := 0; i < 4; i++ {
		p.PushFrom(1, []byte(fmt.Sprintf("tx%d", i)))
	}
	batch := p.PopBatch(7) // pops tx0, tx1
	_ = append(batch, []byte("evil"))
	rest := p.PopBatch(0)
	if string(rest[0]) != "tx2" {
		t.Fatalf("pool corrupted by append to popped batch: %q", rest[0])
	}
}

func TestOldestAtTracksArrivalStamps(t *testing.T) {
	p := NewWithOptions(Options{})
	if _, ok := p.OldestAt(); ok {
		t.Fatal("empty pool reported an oldest stamp")
	}
	p.PushFromAt(1, []byte("a"), 5*time.Second)
	p.PushFromAt(2, []byte("b"), 3*time.Second)
	p.PushFrontAt([][]byte{[]byte("f")}, 4*time.Second)
	if at, ok := p.OldestAt(); !ok || at != 3*time.Second {
		t.Fatalf("OldestAt = %v,%v, want 3s", at, ok)
	}
	// Popping must advance stamps in lockstep with the txs.
	out := p.PopBatch(2) // front "f" + round-robin pulls client 1's "a"
	if len(out) != 2 {
		t.Fatalf("popped %d", len(out))
	}
	if at, ok := p.OldestAt(); !ok || at != 3*time.Second {
		t.Fatalf("after partial pop OldestAt = %v,%v, want 3s (client 2 still queued)", at, ok)
	}
	p.PopBatch(0)
	if _, ok := p.OldestAt(); ok {
		t.Fatal("drained pool still reports a stamp")
	}
}

func TestFrontLenAndLegacyPushesUnstamped(t *testing.T) {
	p := NewWithOptions(Options{})
	p.PushFrontAt([][]byte{[]byte("x"), []byte("y")}, 0)
	p.PushFrom(1, []byte("z"))
	if p.FrontLen() != 2 {
		t.Fatalf("FrontLen = %d, want 2", p.FrontLen())
	}
	// Un-timestamped pushes carry zero stamps, which OldestAt
	// skips rather than reporting a bogus age since process start.
	if _, ok := p.OldestAt(); ok {
		t.Fatal("zero stamps must not surface from OldestAt")
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
}
