package replica

import (
	"reflect"
	"testing"
	"time"

	"dledger/internal/avid"
	"dledger/internal/core"
	"dledger/internal/store"
	"dledger/internal/wire"
	"dledger/internal/workload"
)

// orderLog records, in order, a replica's fsyncs, sends and deliveries.
type orderLog []string

// syncLogStore is a FileStore that logs every Sync.
type syncLogStore struct {
	*store.FileStore
	log *orderLog
}

func (s syncLogStore) Sync() error {
	*s.log = append(*s.log, "sync")
	return s.FileStore.Sync()
}

// logCtx logs every send and never fires a timer.
type logCtx struct{ log *orderLog }

func (c logCtx) Now() time.Duration { return 0 }
func (c logCtx) Send(_ int, env wire.Envelope, _ wire.Priority, _ uint64) {
	*c.log = append(*c.log, "send "+reflect.TypeOf(env.Payload).Name())
}
func (c logCtx) After(time.Duration, func()) {}

// TestBatchCommitsOnceBeforeWire feeds node 0 the tail of an epoch as
// one OnEnvelope call: four Terms that each decide a BA instance (each
// casts node 0's own Term vote, a durable record) and the returned
// chunks that complete the decided blocks' retrievals. The batch must take
// exactly one Sync, with no send and no delivery before it, and leave
// the same deliveries and Stats as feeding the envelopes one at a time.
func TestBatchCommitsOnceBeforeWire(t *testing.T) {
	cfg := core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("batch")}
	params, err := avid.NewParams(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := func(from, proposer int, m wire.Msg) wire.Envelope {
		return wire.Envelope{From: from, Epoch: 1, Proposer: proposer, Payload: m}
	}
	// Nodes 1-3 each disperse a block to node 0, and every BA instance
	// holds one Term, so the next Term decides it: S = {1, 2, 3}.
	var prefix, batch []wire.Envelope
	returns := map[int]wire.Chunk{}
	for j := 1; j <= 3; j++ {
		blk := &wire.Block{Proposer: j, Epoch: 1, V: []uint64{0, 0, 0, 0}, Txs: [][]byte{workload.Make(j, 1, 0, 64)}}
		chunks, root, err := avid.Disperse(params, blk.Encode())
		if err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, env(j, j, chunks[0]))
		for from := 1; from <= 3; from++ {
			prefix = append(prefix, env(from, j, wire.Ready{Root: root}))
		}
		returns[j] = chunks[j%3+1] // a server other than the proposer
	}
	for j := 0; j < 4; j++ {
		prefix = append(prefix, env(1, j, wire.Term{Value: j != 0}))
		batch = append(batch, env(2, j, wire.Term{Value: j != 0}))
	}
	for j := 1; j <= 3; j++ {
		c := returns[j]
		batch = append(batch, env(j%3+1, j, wire.ReturnChunk{Root: c.Root, Data: c.Data, Proof: c.Proof}))
	}

	type run struct {
		r          *Replica
		log        orderLog
		deliveries []Delivery
	}
	start := func() *run {
		x := &run{}
		st := syncLogStore{FileStore: openStore(t, t.TempDir()), log: &x.log}
		r, err := New(cfg, 0, Params{}, st, logCtx{log: &x.log})
		if err != nil {
			t.Fatal(err)
		}
		r.OnDeliver = func(d Delivery) {
			x.log = append(x.log, "deliver")
			x.deliveries = append(x.deliveries, d)
		}
		r.Start()
		for _, e := range prefix {
			r.OnEnvelope(e)
		}
		x.r, x.log = r, nil
		return x
	}

	single := start()
	for i, e := range batch {
		before := len(single.log)
		single.r.OnEnvelope(e)
		step := single.log[before:]
		if i < 4 && (len(step) == 0 || step[0] != "sync" || !contains(step, "send Term")) {
			t.Fatalf("Term %d alone: %v, want its own sync, then its Term vote on the wire", i, step)
		}
	}
	if single.r.Stats.EpochsDelivered != 1 || len(single.deliveries) != 3 {
		t.Fatalf("one at a time: %d epochs, %d blocks delivered; want the epoch's three blocks",
			single.r.Stats.EpochsDelivered, len(single.deliveries))
	}

	batched := start()
	batched.r.OnEnvelope(batch...)
	if syncs := len(batched.log) - len(withoutSyncs(batched.log)); syncs != 1 || batched.log[0] != "sync" {
		t.Fatalf("batched step: %v, want one sync before every send and delivery", batched.log)
	}
	if got, want := withoutSyncs(batched.log), withoutSyncs(single.log); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched sends and deliveries %v, one at a time %v", got, want)
	}
	if !reflect.DeepEqual(batched.deliveries, single.deliveries) {
		t.Fatalf("batched deliveries %+v, one at a time %+v", batched.deliveries, single.deliveries)
	}
	if !reflect.DeepEqual(batched.r.Stats, single.r.Stats) {
		t.Fatalf("batched Stats %+v, one at a time %+v", batched.r.Stats, single.r.Stats)
	}
}

func contains(events []string, ev string) bool {
	for _, e := range events {
		if e == ev {
			return true
		}
	}
	return false
}

func withoutSyncs(events orderLog) (out []string) {
	for _, e := range events {
		if e != "sync" {
			out = append(out, e)
		}
	}
	return out
}
