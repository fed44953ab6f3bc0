package replica

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dledger/internal/avid"
	"dledger/internal/core"
	"dledger/internal/mempool"
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

// TestCheckpointCoversTheWholeTurn builds a TCP turn whose checkpoint
// falls due before its last delivery: two epochs deliver, the next
// epoch's decision asks for a proposal that is due at once, and a third
// epoch delivers. With CheckpointEvery 2 the turn checkpoints, and the
// snapshot must hold the effects of every record its WAL position
// covers: after a restart the epoch and transaction counters match the
// engine and the live node, and the third epoch's transactions are
// refused as committed.
func TestCheckpointCoversTheWholeTurn(t *testing.T) {
	cfg := core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("turn checkpoint")}
	params := Params{ClientDedup: true, CheckpointEvery: 2}
	avidParams, err := avid.NewParams(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 1 and 2 commit the blocks of nodes 1-3, epoch 3 those of
	// nodes 1 and 2; node 0's own blocks never commit. Node 0 holds its
	// chunk of every committed block, and the chunk its retrieval still
	// needs arrives in the turn.
	commits := map[uint64][]int{1: {1, 2, 3}, 2: {1, 2, 3}, 3: {1, 2}}
	var prefix, delivered12, decide3, deliver3 []wire.Envelope
	var epoch3Txs [][]byte
	for epoch := uint64(1); epoch <= 3; epoch++ {
		env := func(from, proposer int, m wire.Msg) wire.Envelope {
			return wire.Envelope{From: from, Epoch: epoch, Proposer: proposer, Payload: m}
		}
		for _, j := range commits[epoch] {
			txs := [][]byte{workload.Make(j, uint32(epoch), 0, 64), workload.Make(j, uint32(epoch)+100, 0, 64)}
			blk := &wire.Block{Proposer: j, Epoch: epoch, V: []uint64{0, 0, 0, 0}, Txs: txs}
			chunks, root, err := avid.Disperse(avidParams, blk.Encode())
			if err != nil {
				t.Fatal(err)
			}
			prefix = append(prefix, env(j, j, chunks[0]))
			for from := 1; from <= 3; from++ {
				prefix = append(prefix, env(from, j, wire.Ready{Root: root}))
			}
			c := chunks[j%3+1]
			ret := env(j%3+1, j, wire.ReturnChunk{Root: c.Root, Data: c.Data, Proof: c.Proof})
			if epoch < 3 {
				delivered12 = append(delivered12, ret)
			} else {
				deliver3, epoch3Txs = append(deliver3, ret), append(epoch3Txs, txs...)
			}
		}
		// Two Terms decide an instance; epoch 3's last one waits for the turn.
		for j := 0; j < 4; j++ {
			commit := slices.Contains(commits[epoch], j)
			prefix = append(prefix, env(1, j, wire.Term{Value: commit}))
			if last := env(2, j, wire.Term{Value: commit}); epoch == 3 && j == 3 {
				decide3 = append(decide3, last)
			} else {
				prefix = append(prefix, last)
			}
		}
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	net := &fakeNet{}
	r, err := New(cfg, 0, params, st, &soloCtx{net: net})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	for _, e := range prefix {
		r.OnEnvelope(e)
	}
	if r.Stats.EpochsDelivered != 0 || r.Engine().DispersalEpoch() != 3 {
		t.Fatalf("setup: %d epochs delivered, node 0 proposed through %d; want 0 and 3",
			r.Stats.EpochsDelivered, r.Engine().DispersalEpoch())
	}

	// The proposal epoch 3's decision asks for is due: the batch delay
	// has passed since node 0's last one.
	net.now = time.Second
	var turn []string
	r.Engine().SetActionTap(func(actions []core.Action) []core.Action {
		for _, a := range actions {
			switch a.(type) {
			case core.DeliverAction, core.EpochDeliveredAction, core.ProposalNeededAction:
				turn = append(turn, reflect.TypeOf(a).Name())
			}
		}
		return actions
	})
	r.OnEnvelope(slices.Concat(delivered12, decide3, deliver3)...)
	want := []string{"DeliverAction", "DeliverAction", "DeliverAction", "EpochDeliveredAction",
		"DeliverAction", "DeliverAction", "DeliverAction", "EpochDeliveredAction",
		"ProposalNeededAction", "DeliverAction", "DeliverAction", "EpochDeliveredAction"}
	if !reflect.DeepEqual(turn, want) {
		t.Fatalf("turn actions %v, want %v", turn, want)
	}
	if r.Engine().DispersalEpoch() != 4 || r.Stats.EpochsDelivered != 3 {
		t.Fatalf("after the turn: proposed through %d, %d epochs delivered; want 4 and 3",
			r.Engine().DispersalEpoch(), r.Stats.EpochsDelivered)
	}

	r2, err := New(cfg, 0, params, restartStore(t, st, dir), &soloCtx{net: net})
	if err != nil {
		t.Fatal(err)
	}
	if got, eng := r2.Stats.EpochsDelivered, r2.Engine().DeliveredEpoch(); got != int64(eng) || got != r.Stats.EpochsDelivered {
		t.Fatalf("recovered EpochsDelivered=%d, engine at %d, live node %d", got, eng, r.Stats.EpochsDelivered)
	}
	if r2.Stats.DeliveredTxs != r.Stats.DeliveredTxs {
		t.Fatalf("recovered DeliveredTxs=%d, live node %d", r2.Stats.DeliveredTxs, r.Stats.DeliveredTxs)
	}
	for _, tx := range epoch3Txs {
		if err := r2.SubmitFrom(7, tx); err != mempool.ErrDuplicateCommitted {
			t.Fatalf("resubmitting a transaction of epoch 3: %v, want ErrDuplicateCommitted", err)
		}
	}
}
