package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dledger/internal/avid"
	"dledger/internal/ba"
	"dledger/internal/bufpool"
	"dledger/internal/coin"
	"dledger/internal/erasure"
	"dledger/internal/gateway"
	"dledger/internal/gf256"
	"dledger/internal/mempool"
	"dledger/internal/merkle"
	"dledger/internal/replica"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// layerShape is the shape a workload gives its layers: the unit costs
// are replayed at the workload's own cluster size and at the block size
// and transactions per block it was measured to run at, so they price
// the work that workload actually does.
type layerShape struct {
	n, f        int
	blockBytes  int
	txsPerBlock int
	txSize      int
}

// timeOp calls fn over and over for about budget and returns the mean
// seconds per call. fn is called once beforehand to fill caches and
// pools.
func timeOp(budget time.Duration, fn func()) float64 {
	fn()
	start := time.Now()
	for n := 1; ; n++ {
		fn()
		if el := time.Since(start); el >= budget {
			return el.Seconds() / float64(n)
		}
	}
}

// recoverEpochs is how many steps of WAL records store.recover_ms
// replays: about an hour of a node's log at ten epochs a second would be
// 36000; a twelfth of that keeps the replay well under a second.
const recoverEpochs = 3000

// noNode satisfies gateway.Node for hubs that are only fed deliveries.
type noNode struct{}

func (noNode) Exec(func(*replica.Replica)) {}

// unitCosts replays single layers from outside, through their exported
// functions, spending about budget in total. dir is a scratch directory
// on the filesystem the live data directories use.
func unitCosts(sh layerShape, budget time.Duration, dir string, seed int64) (map[string]float64, error) {
	const ops = 19
	per := budget / ops
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	k := sh.n - 2*sh.f
	block := make([]byte, sh.blockBytes)
	rng.Read(block)
	mb := func(bytes int, sec float64) float64 { return float64(bytes) / 1e6 / sec }
	// A replayed layer that errs or returns a wrong answer fails the run
	// once the replays are over.
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	expect := func(ok bool, what string) {
		if !ok {
			check(fmt.Errorf("layer replay: %s", what))
		}
	}

	coder, err := erasure.New(k, sh.n)
	if err != nil {
		return nil, err
	}
	shard := coder.ShardSize(len(block))

	// gf256: the multiply-accumulate kernel over one shard.
	src, dst := make([]byte, shard), make([]byte, shard)
	rng.Read(src)
	out["gf256.muladd_mb_s"] = mb(shard, timeOp(per, func() { gf256.MulAddSlice(0x57, dst, src) }))

	// erasure: encode one block; decode it from parity shards only, the
	// path with no systematic shortcut.
	var scratch erasure.Scratch
	out["erasure.encode_mb_s"] = mb(len(block), timeOp(per, func() {
		_, err := coder.SplitInto(block, &scratch)
		check(err)
	}))
	full, err := coder.Split(block)
	if err != nil {
		return nil, err
	}
	out["erasure.decode_mb_s"] = mb(len(block), timeOp(per, func() {
		shards := make([][]byte, sh.n)
		copy(shards[sh.n-k:], full[sh.n-k:])
		_, err := coder.Reconstruct(shards)
		check(err)
	}))

	// merkle: the dispersal tree over one block's N chunks.
	out["merkle.build_us"] = 1e6 * timeOp(per, func() { merkle.NewTree(full) })
	tree := merkle.NewTree(full)
	proof, err := tree.Prove(sh.n - 1)
	if err != nil {
		return nil, err
	}
	root := tree.Root()
	out["merkle.verify_us"] = 1e6 * timeOp(per, func() {
		expect(merkle.Verify(root, full[sh.n-1], proof), "merkle proof rejected")
	})

	// avid: the proposer's side of a dispersal, and a retrieval from the
	// last K servers.
	params, err := avid.NewParams(sh.n, sh.f)
	if err != nil {
		return nil, err
	}
	out["avid.disperse_mb_s"] = mb(len(block), timeOp(per, func() {
		_, _, err := avid.Disperse(params, block)
		check(err)
	}))
	chunks, aroot, err := avid.Disperse(params, block)
	if err != nil {
		return nil, err
	}
	out["avid.retrieve_mb_s"] = mb(len(block), timeOp(per, func() {
		r := avid.NewRetriever(params)
		r.Start()
		for i := sh.n - 1; i >= 0 && !r.Done(); i-- {
			r.HandleReturnChunk(i, wire.ReturnChunk{Root: aroot, Data: chunks[i].Data, Proof: chunks[i].Proof})
		}
		got, bad := r.Block()
		expect(!bad && len(got) == len(block), "avid retrieval failed")
	}))

	// ba: one instance run to decision at all N nodes with unanimous
	// input, messages delivered in FIFO order.
	scheme := coin.NewScheme([]byte("bench"))
	var instance uint64
	var msgs, decides float64
	out["ba.decide_us"] = 1e6 * timeOp(per, func() {
		instance++
		nodes := make([]*ba.BA, sh.n)
		for j := range nodes {
			nodes[j] = ba.New(sh.n, sh.f, scheme.ForInstance(instance, 0))
		}
		type qmsg struct {
			from, to int
			msg      wire.Msg
		}
		var queue []qmsg
		enq := func(from int, sends []ba.Send) {
			for _, s := range sends {
				if s.To != wire.Broadcast {
					queue = append(queue, qmsg{from, s.To, s.Msg})
					continue
				}
				for to := range nodes {
					queue = append(queue, qmsg{from, to, s.Msg})
				}
			}
		}
		for j, n := range nodes {
			enq(j, n.Input(true))
		}
		for ; len(queue) > 0; queue = queue[1:] {
			m := queue[0]
			enq(m.to, nodes[m.to].Handle(m.from, m.msg))
			msgs++
		}
		decides++
	})
	out["ba.msgs_per_decide"] = msgs / decides

	// wire: a chunk frame and a vote frame through encode and decode, and
	// a block of the workload's shape through its codec.
	chunkEnv := wire.Envelope{From: 1, Epoch: 7, Proposer: 2, Payload: chunks[0]}
	var frame []byte
	out["wire.chunk_codec_mb_s"] = mb(len(chunks[0].Data), timeOp(per, func() {
		frame = chunkEnv.AppendTo(frame[:0])
		_, err := wire.Decode(frame)
		check(err)
	}))
	voteEnv := wire.Envelope{From: 1, Epoch: 7, Proposer: 2, Payload: wire.BVal{Round: 1, Value: true}}
	out["wire.vote_codec_ns"] = 1e9 / 1000 * timeOp(per, func() {
		for i := 0; i < 1000; i++ {
			frame = voteEnv.AppendTo(frame[:0])
			_, err := wire.Decode(frame)
			check(err)
		}
	})
	txs := make([][]byte, sh.txsPerBlock)
	for i := range txs {
		txs[i] = make([]byte, sh.txSize)
		rng.Read(txs[i])
		binary.BigEndian.PutUint32(txs[i], uint32(i))
	}
	blk := &wire.Block{Proposer: 1, Epoch: 7, V: make([]uint64, sh.n), Txs: txs}
	out["wire.block_codec_us_per_ktx"] = 1e6 * 1000 / float64(len(txs)) * timeOp(per, func() {
		_, err := wire.DecodeBlock(blk.Encode())
		check(err)
	})

	// bufpool: one chunk-sized frame buffer taken and given back.
	out["bufpool.get_release_ns"] = 1e9 / 1000 * timeOp(per, func() {
		for i := 0; i < 1000; i++ {
			bufpool.Get(shard).Release()
		}
	})

	// mempool: admission with dedup, batch dequeue, and commit marking,
	// one block's worth of fresh transactions per round.
	pool := mempool.NewWithOptions(mempool.Options{MaxBytes: mempoolBytes, Dedup: true})
	var push, pop, commit time.Duration
	var rounds int
	var serial uint64
	for start := time.Now(); time.Since(start) < 3*per; rounds++ {
		batch := make([][]byte, len(txs))
		hashes := make([]mempool.Hash, len(txs))
		for i := range batch {
			batch[i] = append([]byte(nil), txs[i]...)
			serial++
			binary.BigEndian.PutUint64(batch[i], serial)
			hashes[i] = mempool.HashTx(batch[i])
		}
		t0 := time.Now()
		for _, tx := range batch {
			if err := pool.PushFrom(1, tx); err != nil {
				return nil, fmt.Errorf("mempool replay: %w", err)
			}
		}
		t1 := time.Now()
		for pool.Len() > 0 {
			pool.PopBatch(150 << 10)
		}
		t2 := time.Now()
		for _, h := range hashes {
			pool.Committed(h)
		}
		push, pop, commit = push+t1.Sub(t0), pop+t2.Sub(t1), commit+time.Since(t2)
	}
	perTx := float64(rounds * len(txs))
	out["mempool.push_ns"] = float64(push) / perTx
	out["mempool.pop_us_per_ktx"] = float64(pop) / 1e3 / perTx * 1000
	out["mempool.commit_ns"] = float64(commit) / perTx

	// store: a step's small records with their group-commit fsync; one
	// epoch's N chunks with theirs; and recovery of what was written.
	sdir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sdir)
	st, err := store.OpenFile(store.FileOptions{Dir: sdir})
	if err != nil {
		return nil, err
	}
	var epoch uint64
	step := func() []store.Record {
		epoch++
		return []store.Record{
			{Type: store.RecVote, Epoch: epoch, Proposer: 1, VoteKind: 1, Round: 1, Value: true},
			{Type: store.RecVote, Epoch: epoch, Proposer: 2, VoteKind: 2, Round: 1, Value: true},
			{Type: store.RecDecided, Epoch: epoch, S: []int{0, 1, 2}},
		}
	}
	out["store.append_sync_us"] = 1e6 * timeOp(per, func() {
		_, err := st.AppendBatch(step())
		check(err)
		check(st.Sync())
	})
	out["store.putchunk_mb_s"] = mb(sh.n*shard, timeOp(per, func() {
		epoch++
		for p := 0; p < sh.n; p++ {
			rec := store.ChunkRecord{Epoch: epoch, Proposer: p, Root: aroot, HasChunk: true, Data: chunks[p].Data, Proof: chunks[p].Proof}
			check(st.PutChunk(rec))
		}
		check(st.Sync())
	}))
	check(st.Close())
	if failed != nil {
		return nil, failed
	}
	// Recovery of a fixed log, so the number does not depend on how many
	// records the timed loops above happened to write: recoverEpochs
	// steps of records, reopened and replayed.
	rdir, err := os.MkdirTemp(dir, "recover-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(rdir)
	if st, err = store.OpenFile(store.FileOptions{Dir: rdir}); err != nil {
		return nil, err
	}
	for i := 0; i < recoverEpochs; i++ {
		_, err := st.AppendBatch(step())
		check(err)
	}
	check(st.Sync())
	check(st.Close())
	t0 := time.Now()
	if st, err = store.OpenFile(store.FileOptions{Dir: rdir}); err != nil {
		return nil, err
	}
	replayed := 0
	_, err = st.Recover(func(uint64, store.Record) error { replayed++; return nil })
	check(err)
	out["store.recover_ms"] = 1e3 * time.Since(t0).Seconds()
	expect(replayed == 3*recoverEpochs, fmt.Sprintf("store recovered %d of %d records", replayed, 3*recoverEpochs))
	check(st.Close())

	// gateway: a delivered block indexed for proofs; dlclient: one commit
	// proof of such a block verified against its transaction.
	hub := gateway.NewHub(noNode{}, gateway.Options{N: sh.n, F: sh.f})
	hashes := make([]mempool.Hash, len(txs))
	for i, tx := range txs {
		hashes[i] = mempool.HashTx(tx)
	}
	var depoch uint64
	out["gateway.ondeliver_us_per_ktx"] = 1e6 * 1000 / float64(len(txs)) * timeOp(per, func() {
		depoch++
		hs := append([]mempool.Hash(nil), hashes...)
		for i := range hs {
			binary.BigEndian.PutUint64(hs[i][:], depoch) // fresh content every block
		}
		hub.OnDeliver(replica.Delivery{Epoch: depoch, Proposer: 0, TxHashes: hs, Txs: txs})
	})
	hub.OnDeliver(replica.Delivery{Epoch: depoch + 1, Proposer: 0, TxHashes: hashes, Txs: txs})
	sub := hub.Subscribe(1, 4)
	probe := txs[len(txs)/2]
	if rc := hub.Submit(1, 1, probe); rc.Status != gateway.StatusDuplicateCommitted {
		return nil, fmt.Errorf("gateway replay: committed probe answered %v", rc.Status)
	}
	var cm gateway.Commit
	select {
	case cm = <-sub.C:
	default:
		return nil, fmt.Errorf("gateway replay: no proof streamed for the committed probe")
	}
	hub.Unsubscribe(sub)
	out["dlclient.verify_ns"] = 1e9 / 100 * timeOp(per, func() {
		for i := 0; i < 100; i++ {
			expect(cm.Verify(probe), "commit proof rejected")
		}
	})
	return out, failed
}
