package replica

import (
	"errors"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/store"
	"dledger/internal/workload"
)

// failingStore wraps a MemStore and starts failing every write after
// `failAfter` successfully appended records — a disk that fills up mid-run.
type failingStore struct {
	*store.MemStore
	appends   int
	failAfter int
	marked    int // MarkUnsafeRestart calls (store.UnsafeRestartMarker)
}

var errDiskFull = errors.New("storefail_test: injected write failure")

func (f *failingStore) AppendBatch(recs []store.Record) (uint64, error) {
	for i := range recs {
		if f.appends++; f.appends > f.failAfter {
			f.MemStore.AppendBatch(recs[:i]) // the records before the failure landed
			return 0, errDiskFull
		}
	}
	return f.MemStore.AppendBatch(recs)
}

func (f *failingStore) MarkUnsafeRestart() error {
	f.marked++
	return nil
}

func (f *failingStore) PutChunk(c store.ChunkRecord) error {
	if f.appends > f.failAfter {
		return errDiskFull
	}
	return f.MemStore.PutChunk(c)
}

func (f *failingStore) Sync() error {
	if f.appends > f.failAfter {
		return errDiskFull
	}
	return f.MemStore.Sync()
}

// TestStoreErrorsCountedAndNodeStaysAvailable drives the documented
// availability-over-durability contract end to end: when durable writes
// start failing mid-run, the replica records StoreErrors, stops
// persisting, and keeps participating in consensus — the cluster's
// delivery pipeline must not stall.
func TestStoreErrorsCountedAndNodeStaysAvailable(t *testing.T) {
	cfg := core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("storefail")}
	net := &fakeNet{}
	var broken *Replica
	for i := 0; i < cfg.N; i++ {
		var st store.Store = store.NewMem()
		if i == 0 {
			st = &failingStore{MemStore: store.NewMem(), failAfter: 10}
		}
		r, err := New(cfg, i, Params{BatchDelay: 50 * time.Millisecond}, st, &fakeCtx{net: net, self: i})
		if err != nil {
			t.Fatal(err)
		}
		net.replicas = append(net.replicas, r)
	}
	broken = net.replicas[0]
	for _, r := range net.replicas {
		r.Start()
	}
	for i, r := range net.replicas {
		for k := 0; k < 40; k++ {
			r.Submit(workload.Make(i, uint32(k+1), 0, 64))
		}
	}
	net.run(30 * time.Second)

	if broken.Stats.StoreErrors == 0 {
		t.Fatal("StoreErrors = 0 after injected write failures")
	}
	if broken.Stats.StoreErrors != 1 {
		// The replica stops persisting at the first failure; the counter
		// records the event, not every skipped write.
		t.Fatalf("StoreErrors = %d, want 1 (first failure only)", broken.Stats.StoreErrors)
	}
	// The first failure must also durably invalidate the restart point,
	// exactly once (caveat iii: OpenFile refuses the datadir afterwards).
	if fs := broken.st.(*failingStore); fs.marked != 1 {
		t.Fatalf("MarkUnsafeRestart called %d times, want 1", fs.marked)
	}
	if broken.Stats.DeliveredTxs < 4*40 {
		t.Fatalf("broken-store node delivered %d of %d txs; persistence failure must not cost availability",
			broken.Stats.DeliveredTxs, 4*40)
	}
	for i, r := range net.replicas[1:] {
		if r.Stats.StoreErrors != 0 {
			t.Fatalf("healthy node %d reports %d StoreErrors", i+1, r.Stats.StoreErrors)
		}
		if r.Stats.DeliveredTxs < 4*40 {
			t.Fatalf("healthy node %d delivered %d txs", i+1, r.Stats.DeliveredTxs)
		}
	}
}
